"""Fully-connected classifier, generator and multiplier networks.

All three network families are MLPs with ReLU hidden activations and an
identity output layer.  Parameters live in a flat float64
:class:`ParameterVector` with named per-layer groups ("layer0.weight",
"layer0.bias", ...); weights are stored (fan_in, fan_out) so the batch
forward is ``X @ W + b``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from dataclasses import dataclass

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

    def mlp(self):
        """The MLP itself, as :meth:`GeneratorSpec.mlp` gives a generator's."""
        return self

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
        expected_offset = 0
        for name, (offset, length) in self.groups.items():
            if offset != expected_offset:
                raise ValueError(f"group {name!r} breaks the partition")
            expected_offset += length
        if expected_offset != self.values.size:
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

    def copy(self):
        return ParameterVector(self.values.copy(), self.groups)

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return (isinstance(other, ParameterVector)
                and self.groups == other.groups
                and np.array_equal(self.values, other.values))


def spec_group_shapes(spec):
    return spec.mlp().group_shapes()


def make_leaves(spec, params):
    """Autodiff leaf tensors for each parameter group, reshaped per layer."""
    leaves = {}
    for name, shape in spec_group_shapes(spec):
        leaves[name] = ad.tensor(params.group(name).reshape(shape),
                                 name=name)
    return leaves


def mlp_apply(spec, leaves, x):
    """Forward pass through the MLP graph; x is (in_dim,) or (batch, in_dim)."""
    mlp = spec.mlp()
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


# 0 as a read-only 0-d array: a ufunc takes it with less per-call work
# than the Python float 0.0 (no scalar promotion), for the same bits
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _matmul(a, b, out=None):
    """``a @ b``, into ``out`` when given.

    On 2-d operands ``ndarray.dot`` gives the same bits as matmul at a
    lower cost per call; matmul broadcasts any leading batch axes.
    """
    if a.ndim == 2:
        return a.dot(b, out)
    return np.matmul(a, b, out=out)


def mlp_apply_np(spec, params, x):
    """Pure-numpy forward, the fast path for training and evaluation."""
    return BoundMlp(spec, params).forward(x)[0]


class BoundMlp:
    """An MLP spec bound to its flat parameters: the numpy core.

    Binding once builds what every pass needs: per-layer weight views
    (fan_in, fan_out) into ``params.values`` and their transposes, bias
    views, a flat gradient buffer with per-layer views that
    :meth:`param_grad` fills, and a flat ``tangent`` buffer with per-layer
    views that :meth:`jvp` reads.  The views stay valid as long as
    ``params.values`` is updated in place, as every optimizer here does,
    so a training loop binds once before its first iteration.

    ``batch`` is a leading batch shape: inputs ``(*batch, rows, in_dim)``
    then give one flat gradient per batch entry, ``(*batch, n_params)``,
    each summed over its rows.  ReLU derivatives are 0 at the kink, as in
    :func:`autodiff.relu`.
    """

    def __init__(self, spec, params, batch=()):
        mlp = spec.mlp()
        self.spec = spec
        self.mlp = mlp
        self.params = params
        shapes = mlp.group_shapes()
        if [(name, int(np.prod(shape))) for name, shape in shapes] != [
                (name, length) for name, (_, length) in params.groups.items()]:
            raise ValueError("parameter groups do not match the spec")
        self.grad = np.empty((*batch, len(params)))
        # (weight slice, weight shape, bias slice or None) per layer
        self.layout = []
        for l in range(mlp.n_layers):
            offset, length = params.groups[f"layer{l}.weight"]
            bias = None
            if mlp.bias[l]:
                b_offset, b_length = params.groups[f"layer{l}.bias"]
                bias = slice(b_offset, b_offset + b_length)
            self.layout.append((slice(offset, offset + length),
                                (mlp.widths[l], mlp.widths[l + 1]), bias))
        self.weights = self.weights_of(params.values)
        self.weights_t = [w.T for w in self.weights]
        self.biases = [None if b is None else params.values[b]
                       for _, _, b in self.layout]
        self.grad_weights = [self.grad[..., w].reshape(*batch, *shape)
                             for w, shape, _ in self.layout]
        self.grad_biases = [None if b is None else self.grad[..., b]
                            for _, _, b in self.layout]
        self.tangent = np.empty(len(params))
        self.tangent_weights = self.weights_of(self.tangent)
        self.tangent_weights_t = [w.T for w in self.tangent_weights]
        self.tangent_biases = [None if b is None else self.tangent[b]
                               for _, _, b in self.layout]

    def weights_of(self, flat):
        """Per-layer (fan_in, fan_out) weight views of a flat vector."""
        return [flat[w].reshape(shape) for w, shape, _ in self.layout]

    def forward(self, x):
        """Returns (output, acts); ``acts[l]`` is the input of layer l.

        A hidden ReLU is active exactly where its output is positive, so
        the masks need not be kept.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.mlp.in_dim:
            raise ValueError(
                f"input dimension {x.shape[-1]} does not match spec input "
                f"{self.mlp.in_dim}"
            )
        last = self.mlp.n_layers - 1
        acts = [x]
        h = x
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = _matmul(h, w)
            if b is not None:
                h += b
            if l < last:
                np.maximum(h, _ZERO, out=h)
                acts.append(h)
        return h, acts

    def backprop(self, acts, dout, inject=None):
        """Pre-activation cotangents ``deltas[l]`` from the output's ``dout``.

        ``inject[l]``, when given, is an extra cotangent added at the input
        of layer l; ``inject[0]`` lands on x and is taken by
        :meth:`input_cotangent`, which this pass does not compute.
        """
        deltas = [None] * len(acts)
        delta = deltas[-1] = dout
        for l in range(len(acts) - 1, 0, -1):
            cot = _matmul(delta, self.weights_t[l])
            if inject is not None:
                cot += inject[l]
            delta = deltas[l - 1] = np.multiply(cot, acts[l] > _ZERO, out=cot)
        return deltas

    def input_cotangent(self, deltas, inject=None):
        """Cotangent of the input x, plus ``inject[0]`` when given."""
        cot = _matmul(deltas[0], self.weights_t[0])
        if inject is not None:
            cot += inject[0]
        return cot

    def param_grad(self, acts, deltas):
        """Flat parameter gradient (group order) from :meth:`backprop`.

        Returns the binding's gradient buffer, which the next call
        overwrites.
        """
        for a, delta, gw, gb in zip(acts, deltas, self.grad_weights,
                                    self.grad_biases):
            _matmul(a.swapaxes(-1, -2), delta, gw)
            if gb is not None:
                np.add.reduce(delta, axis=-2, out=gb)
        return self.grad

    def jvp(self, acts):
        """Output derivative along the parameter direction in ``tangent``.

        One tangent forward pass (Pearlmutter's R-operator) with the ReLU
        masks of the forward that gave ``acts`` held fixed.  The caller
        fills the binding's flat ``tangent`` buffer first.
        """
        dz = None
        for l, (a, w_dot, b_dot) in enumerate(
                zip(acts, self.tangent_weights, self.tangent_biases)):
            if l == 0:
                dz = _matmul(a, w_dot)
            else:
                np.multiply(dz, a > _ZERO, out=dz)
                dz = _matmul(dz, self.weights[l])
                dz += _matmul(a, w_dot)
            if b_dot is not None:
                dz += b_dot
        return dz

    def hvp(self, acts, deltas):
        """Tangent of :meth:`param_grad` along the direction in ``tangent``.

        The Hessian-vector product of the scalar whose output cotangent
        gave ``deltas`` (:meth:`backprop`), forward-over-reverse
        (Pearlmutter) with the ReLU masks of ``acts`` held fixed: a
        tangent forward keeps each layer's input tangent, and a backprop
        of a zero cotangent with ``deltas[l] @ tangent_l^T`` injected at
        each layer input gives the tangent deltas.  Returns the binding's
        gradient buffer, which the next call overwrites.
        """
        a_dots = [None]  # input tangent of each layer; x has none
        for l in range(1, len(acts)):
            dz = _matmul(acts[l - 1], self.tangent_weights[l - 1])
            if l > 1:
                dz += _matmul(a_dots[-1], self.weights[l - 1])
            if self.tangent_biases[l - 1] is not None:
                dz += self.tangent_biases[l - 1]
            a_dots.append(np.multiply(dz, acts[l] > _ZERO, out=dz))
        inject = [None] + [_matmul(d, w_dot_t) for d, w_dot_t in
                           zip(deltas[1:], self.tangent_weights_t[1:])]
        grad = self.param_grad(
            acts, self.backprop(acts, np.zeros_like(deltas[-1]), inject))
        for a_dot, delta, gw in zip(a_dots[1:], deltas[1:],
                                    self.grad_weights[1:]):
            gw += _matmul(a_dot.swapaxes(-1, -2), delta)
        return grad


def row_gradients(spec, params, x, dout):
    """Outputs and per-row parameter gradients of a batch of inputs.

    ``x`` is (rows, in_dim) and ``dout`` (rows, out_dim).  Returns the
    (rows, out_dim) outputs Phi(x) and the (rows, n_params) gradients,
    row r the gradient of dout[r] . Phi(x[r]), from one forward and one
    backprop with the rows on the batch axis.
    """
    net = BoundMlp(spec, params, batch=(x.shape[0],))
    out, acts = net.forward(x[:, None, :])
    grads = net.param_grad(acts, net.backprop(acts, dout[:, None, :]))
    return out[:, 0], grads


@functools.lru_cache(maxsize=32)
def _one_hot_table(n):
    """The read-only n x n identity: row k is the one-hot code of k."""
    table = np.eye(n)
    table.flags.writeable = False
    return table


def condition(first, labels, t, spec, out=None):
    """Network input [first, onehot(labels)(, onehot(t))] for a spec.

    The one conditional-input builder of the generator and multiplier
    networks.  ``t`` is one classifier index or one per row; it enters only
    when the spec conditions on the classifier, which then requires it.
    ``out``, an (rows, input width) array, receives the input in place of
    a new array, so a training loop can reuse one buffer per network.
    """
    rows, d = first.shape
    c = spec.num_classes
    extra = spec.num_classifiers if spec.conditions_on_classifier else 0
    if out is None:
        out = np.empty((rows, d + c + extra))
    out[:, :d] = first
    _one_hot_table(c).take(labels, axis=0, out=out[:, d:d + c])
    if extra:
        if t is None:
            raise ValueError("classifier index t required by this spec")
        out[:, d + c:] = _one_hot_table(extra)[t]
    return out


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
    mlp = spec.mlp()
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
        if expected_spec.mlp().hash() != spec_hash:
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
