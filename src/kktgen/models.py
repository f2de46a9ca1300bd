"""Fully-connected classifier, generator and multiplier networks.

All three network families are MLPs with ReLU hidden activations and an
identity output layer.  Parameters live in a flat float64
:class:`ParameterVector` with named per-layer groups ("layer0.weight",
"layer0.bias", ...); weights are stored (fan_in, fan_out) so the batch
forward is ``X @ W + b``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad

PARAM_MAGIC = b"KGPV"
PARAM_VERSION = 1


def _normalize_bias(bias, n_layers):
    if isinstance(bias, bool):
        return (bias,) * n_layers
    bias = tuple(bool(b) for b in bias)
    if len(bias) != n_layers:
        raise ValueError("bias flags must match the number of layers")
    return bias


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a fully-connected ReLU network.

    ``widths`` runs input -> hidden... -> output, so ``len(widths) - 1``
    layers.  ``bias`` is a single flag or one flag per layer.
    """

    widths: tuple
    bias: tuple = True

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w <= 0 for w in widths):
            raise ValueError("layer widths must be positive")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "bias",
                           _normalize_bias(self.bias, len(widths) - 1))

    @property
    def n_layers(self):
        return len(self.widths) - 1

    @property
    def in_dim(self):
        return self.widths[0]

    @property
    def out_dim(self):
        return self.widths[-1]

    def group_shapes(self):
        """Ordered (name, shape) pairs: layer-major, weight before bias."""
        out = []
        for l in range(self.n_layers):
            out.append((f"layer{l}.weight",
                        (self.widths[l], self.widths[l + 1])))
            if self.bias[l]:
                out.append((f"layer{l}.bias", (self.widths[l + 1],)))
        return out

    def to_json(self):
        return {"kind": "mlp", "widths": list(self.widths),
                "bias": list(self.bias)}

    @staticmethod
    def from_json(obj):
        if obj.get("kind") != "mlp":
            raise ValueError(f"not an MLP spec: {obj.get('kind')!r}")
        return MlpSpec(tuple(obj["widths"]), tuple(obj["bias"]))

    def hash(self):
        payload = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class GeneratorSpec:
    """Conditional generator x = g(noise, y[, t])."""

    noise_dim: int
    num_classes: int
    hidden: tuple
    out_dim: int
    num_classifiers: int = 1
    bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden",
                           tuple(int(h) for h in self.hidden))
        if self.noise_dim < 1 or self.num_classes < 2 or self.out_dim < 1:
            raise ValueError("invalid generator dimensions")
        if self.num_classifiers < 1:
            raise ValueError("num_classifiers must be >= 1")

    @property
    def conditions_on_classifier(self):
        return self.num_classifiers > 1

    @property
    def in_dim(self):
        extra = self.num_classifiers if self.conditions_on_classifier else 0
        return self.noise_dim + self.num_classes + extra

    def mlp(self):
        return MlpSpec((self.in_dim, *self.hidden, self.out_dim), self.bias)

    def to_json(self):
        return {"kind": "generator", "noise_dim": self.noise_dim,
                "num_classes": self.num_classes, "hidden": list(self.hidden),
                "out_dim": self.out_dim,
                "num_classifiers": self.num_classifiers, "bias": self.bias}

    @staticmethod
    def from_json(obj):
        if obj.get("kind") != "generator":
            raise ValueError("not a generator spec")
        return GeneratorSpec(obj["noise_dim"], obj["num_classes"],
                             tuple(obj["hidden"]), obj["out_dim"],
                             obj["num_classifiers"], obj["bias"])


@dataclass(frozen=True)
class MultiplierSpec:
    """KKT-multiplier network mu' = h(x, y[, t]) in R^{num_classes}."""

    in_dim: int
    num_classes: int
    hidden: tuple
    num_classifiers: int = 1
    bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden",
                           tuple(int(h) for h in self.hidden))
        if self.in_dim < 1 or self.num_classes < 2:
            raise ValueError("invalid multiplier dimensions")
        if self.num_classifiers < 1:
            raise ValueError("num_classifiers must be >= 1")

    @property
    def conditions_on_classifier(self):
        return self.num_classifiers > 1

    def mlp(self):
        extra = self.num_classifiers if self.conditions_on_classifier else 0
        return MlpSpec((self.in_dim + self.num_classes + extra,
                        *self.hidden, self.num_classes), self.bias)

    def to_json(self):
        return {"kind": "multiplier", "in_dim": self.in_dim,
                "num_classes": self.num_classes, "hidden": list(self.hidden),
                "num_classifiers": self.num_classifiers, "bias": self.bias}

    @staticmethod
    def from_json(obj):
        if obj.get("kind") != "multiplier":
            raise ValueError("not a multiplier spec")
        return MultiplierSpec(obj["in_dim"], obj["num_classes"],
                              tuple(obj["hidden"]), obj["num_classifiers"],
                              obj["bias"])


def spec_from_json(obj):
    kind = obj.get("kind")
    if kind == "mlp":
        return MlpSpec.from_json(obj)
    if kind == "generator":
        return GeneratorSpec.from_json(obj)
    if kind == "multiplier":
        return MultiplierSpec.from_json(obj)
    raise ValueError(f"unknown spec kind {kind!r}")


# ---------------------------------------------------------------------------
# flat parameters


class ParameterVector:
    """Flat float64 parameter storage with a named group map."""

    def __init__(self, values, groups):
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("parameter values must be a flat vector")
        self.groups = dict(groups)  # name -> (offset, length)
        covered = 0
        expected_offset = 0
        for name, (offset, length) in self.groups.items():
            if offset != expected_offset:
                raise ValueError(f"group {name!r} breaks the partition")
            expected_offset += length
            covered += length
        if covered != self.values.size:
            raise ValueError("groups do not partition the parameter vector")

    @staticmethod
    def zeros_for(spec):
        groups = {}
        offset = 0
        for name, shape in spec_group_shapes(spec):
            length = int(np.prod(shape))
            groups[name] = (offset, length)
            offset += length
        return ParameterVector(np.zeros(offset), groups)

    def group(self, name):
        offset, length = self.groups[name]
        return self.values[offset:offset + length]

    def group_names(self):
        return list(self.groups)

    def copy(self):
        return ParameterVector(self.values.copy(), self.groups)

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return (isinstance(other, ParameterVector)
                and self.groups == other.groups
                and np.array_equal(self.values, other.values))


def spec_group_shapes(spec):
    mlp = spec if isinstance(spec, MlpSpec) else spec.mlp()
    return mlp.group_shapes()


def make_leaves(spec, params):
    """Autodiff leaf tensors for each parameter group, reshaped per layer."""
    leaves = {}
    for name, shape in spec_group_shapes(spec):
        leaves[name] = ad.tensor(params.group(name).reshape(shape),
                                 name=name)
    return leaves


def mlp_apply(spec, leaves, x):
    """Forward pass through the MLP graph; x is (in_dim,) or (batch, in_dim)."""
    mlp = spec if isinstance(spec, MlpSpec) else spec.mlp()
    got = x.value.shape[-1]
    if got != mlp.in_dim:
        raise ValueError(
            f"input dimension {got} does not match spec input {mlp.in_dim}"
        )
    h = x
    for l in range(mlp.n_layers):
        h = ad.matmul(h, leaves[f"layer{l}.weight"])
        if mlp.bias[l]:
            h = ad.add(h, leaves[f"layer{l}.bias"])
        if l < mlp.n_layers - 1:
            h = ad.relu(h)
    return h


def mlp_apply_np(spec, params, x):
    """Pure-numpy forward, the fast path for training and evaluation."""
    return mlp_forward(spec, params, x)[0]


def layer_weight(mlp, params, l):
    """Layer l's weight group as a (fan_in, fan_out) view."""
    return params.group(f"layer{l}.weight").reshape(mlp.widths[l],
                                                    mlp.widths[l + 1])


class MlpCache(NamedTuple):
    """What one numpy forward keeps for backprop and tangent passes.

    ``acts[l]`` is the input of layer l (``acts[0]`` is x).  A hidden ReLU
    is active exactly where its output is positive, so the masks need not
    be stored.
    """

    weights: list  # (fan_in, fan_out) views, one per layer
    acts: list


def mlp_forward(spec, params, x):
    """Numpy forward; returns (output, :class:`MlpCache`)."""
    mlp = spec if isinstance(spec, MlpSpec) else spec.mlp()
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mlp.in_dim:
        raise ValueError(
            f"input dimension {x.shape[-1]} does not match spec input "
            f"{mlp.in_dim}"
        )
    weights = [layer_weight(mlp, params, l) for l in range(mlp.n_layers)]
    acts = [x]
    h = x
    for l, w in enumerate(weights):
        h = h @ w
        if mlp.bias[l]:
            h = h + params.group(f"layer{l}.bias")
        if l < mlp.n_layers - 1:
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, MlpCache(weights, acts)


def mlp_backprop(cache, dout, inject=None):
    """Backpropagate the output cotangent ``dout`` through a cached forward.

    ``inject[l]``, when given, is an extra cotangent added at the input of
    layer l (``inject[0]`` lands on x).  Returns (deltas, dx): ``deltas[l]``
    is the cotangent of layer l's pre-activation, ``dx`` that of x.
    ReLU derivatives are 0 at the kink, as in :func:`autodiff.relu`.
    """
    deltas = [None] * len(cache.weights)
    delta = dout
    for l in reversed(range(len(cache.weights))):
        deltas[l] = delta
        cot = delta @ cache.weights[l].T
        if inject is not None:
            cot = cot + inject[l]
        if l > 0:
            delta = cot * (cache.acts[l] > 0.0)
    return deltas, cot


def mlp_param_grad(mlp, cache, deltas):
    """Flat parameter gradient (group order) from pre-activation cotangents.

    The rows of the forward are summed over.  With a leading batch axis,
    inputs ``(batch, rows, in_dim)``, the result is one flat gradient per
    batch entry, ``(batch, n_params)``.
    """
    parts = []
    for l in range(mlp.n_layers):
        delta = deltas[l]
        parts.append((cache.acts[l].swapaxes(-1, -2) @ delta)
                     .reshape(*delta.shape[:-2], -1))
        if mlp.bias[l]:
            parts.append(delta.sum(axis=-2))
    return np.concatenate(parts, axis=-1)


def mlp_param_jvp(mlp, cache, tangent):
    """Output derivative along the parameter direction ``tangent``.

    ``tangent`` is a :class:`ParameterVector` over the same groups.  This is
    one tangent forward pass (Pearlmutter's R-operator) with the ReLU masks
    of the cached forward held fixed.
    """
    acts = cache.acts
    dz = None
    for l in range(mlp.n_layers):
        w_dot = layer_weight(mlp, tangent, l)
        if l == 0:
            dz = acts[0] @ w_dot
        else:
            dz = ((dz * (acts[l] > 0.0)) @ cache.weights[l]
                  + acts[l] @ w_dot)
        if mlp.bias[l]:
            dz = dz + tangent.group(f"layer{l}.bias")
    return dz


def condition(first, labels, t, spec):
    """Network input [first, onehot(labels)(, onehot(t))] for a spec.

    The one conditional-input builder of the generator and multiplier
    networks.  ``t`` is one classifier index or one per row; it enters only
    when the spec conditions on the classifier, which then requires it.
    """
    parts = [first, np.eye(spec.num_classes)[labels]]
    if spec.conditions_on_classifier:
        if t is None:
            raise ValueError("classifier index t required by this spec")
        ts = np.broadcast_to(np.asarray(t, dtype=np.int64), labels.shape)
        parts.append(np.eye(spec.num_classifiers)[ts])
    return np.concatenate(parts, axis=1)


def init_kaiming(spec, seed):
    """Kaiming-normal weights (std sqrt(2 / fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    pv = ParameterVector.zeros_for(spec)
    for name, shape in spec_group_shapes(spec):
        if name.endswith(".weight"):
            fan_in = shape[0]
            std = np.sqrt(2.0 / fan_in)
            pv.group(name)[:] = rng.normal(0.0, std,
                                           size=int(np.prod(shape)))
    return pv


# ---------------------------------------------------------------------------
# serialization: little-endian header, group table, raw float64 payload


def serialize_params(spec, params):
    mlp = spec if isinstance(spec, MlpSpec) else spec.mlp()
    blob = bytearray()
    blob += PARAM_MAGIC
    blob += struct.pack("<I", PARAM_VERSION)
    blob += mlp.hash()
    blob += struct.pack("<I", len(params.groups))
    for name, (offset, length) in params.groups.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<QQ", offset, length)
    blob += struct.pack("<Q", params.values.size)
    blob += params.values.astype("<f8").tobytes()
    return bytes(blob)


def read_struct(fmt, view, pos, what):
    """Unpack ``fmt`` at ``pos`` of a buffer; returns (values, end position).

    Raises ValueError naming ``what`` when the buffer ends first.
    """
    end = pos + struct.calcsize(fmt)
    if end > len(view):
        raise ValueError(f"{what}: truncated at byte {len(view)}")
    return struct.unpack_from(fmt, view, pos), end


def deserialize_params(blob, expected_spec=None):
    view = memoryview(blob)
    what = "parameter blob"
    if bytes(view[:4]) != PARAM_MAGIC:
        raise ValueError("bad parameter blob magic")
    (version,), pos = read_struct("<I", view, 4, what)
    if version != PARAM_VERSION:
        raise ValueError(f"unsupported parameter blob version {version}")
    (spec_hash, n_groups), pos = read_struct("<32sI", view, pos, what)
    if expected_spec is not None:
        mlp = (expected_spec if isinstance(expected_spec, MlpSpec)
               else expected_spec.mlp())
        if mlp.hash() != spec_hash:
            raise ValueError("parameter blob does not match the given spec")
    groups = {}
    for _ in range(n_groups):
        (name_len,), pos = read_struct("<H", view, pos, what)
        (name, offset, length), pos = read_struct(f"<{name_len}sQQ", view,
                                                  pos, what)
        groups[name.decode("utf-8")] = (offset, length)
    (count,), pos = read_struct("<Q", view, pos, what)
    values = np.frombuffer(view, dtype="<f8", count=count,
                           offset=pos).astype(np.float64)
    return ParameterVector(values, groups)
