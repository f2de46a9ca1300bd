"""Fully-connected classifier, generator and multiplier networks.

All three network families are MLPs with ReLU hidden activations and an
identity output layer.  Parameters live in a flat float64
:class:`ParameterVector` with named per-layer groups ("layer0.weight",
"layer0.bias", ...); weights are stored (fan_in, fan_out) so the batch
forward is ``X @ W + b``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import struct
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernels import operand

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

    kind: typing.ClassVar[str] = "mlp"
    widths: tuple[int, ...]
    bias: tuple[bool, ...] = True

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

    def hash(self):
        payload = json.dumps(to_json(self), sort_keys=True).encode()
        return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class GeneratorSpec:
    """Conditional generator x = g(noise, y[, t])."""

    kind: typing.ClassVar[str] = "generator"
    noise_dim: int
    num_classes: int
    hidden: tuple[int, ...]
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


@dataclass(frozen=True)
class MultiplierSpec:
    """KKT-multiplier network mu' = h(x, y[, t]) in R^{num_classes}."""

    kind: typing.ClassVar[str] = "multiplier"
    in_dim: int
    num_classes: int
    hidden: tuple[int, ...]
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


# ---------------------------------------------------------------------------
# JSON form of the spec and profile dataclasses

# the scalar hints :func:`from_json` reads, and what each must be in JSON
_JSON_SCALARS = {int: "an integer", bool: "a boolean", float: "a float"}


def to_json(obj):
    """A spec's or profile's JSON object: its class's ``kind`` tag, if
    any, and its fields."""
    kind = getattr(obj, "kind", None)
    return {**({"kind": kind} if kind else {}), **dataclasses.asdict(obj)}


def from_json(cls, obj):
    """The ``cls`` whose :func:`to_json` object is ``obj``.

    Each field must be there with the JSON type of its hint: an integer
    (not a boolean) for ``int``, a boolean, a float, a list for
    ``tuple[X, ...]``, an object for ``dict[str, X]``.  Anything else, or
    another kind tag, is a ValueError naming the field; keys that are no
    field are ignored, and a hint of another form is a TypeError.
    """
    kind = getattr(cls, "kind", None)
    if kind is not None and obj.get("kind") != kind:
        raise ValueError(f"kind {json.dumps(obj.get('kind'))} is not "
                         f"{json.dumps(kind)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            raise ValueError(f"{f.name} is missing")
        values[f.name] = _from_json_value(hints[f.name], obj[f.name], f.name)
    return cls(**values)


def _from_json_value(hint, value, where):
    """``value`` as a ``hint``; ``where`` names it in an error."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        if isinstance(value, list):
            return tuple(_from_json_value(args[0], v, f"{where}[{i}]")
                         for i, v in enumerate(value))
        what = "a list"
    elif typing.get_origin(hint) is dict and args[:1] == (str,):
        if isinstance(value, dict):
            return {k: _from_json_value(args[1], v, f"{where}.{k}")
                    for k, v in value.items()}
        what = "an object"
    elif hint in _JSON_SCALARS:
        if type(value) is hint:
            return value
        what = _JSON_SCALARS[hint]
    else:
        raise TypeError(f"{where}: no JSON form for the hint {hint!r}")
    raise ValueError(f"{where} {json.dumps(value)} is not {what}")


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
        for name, shape in spec.mlp().group_shapes():
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


def make_leaves(spec, params):
    """Autodiff leaf tensors for each parameter group, reshaped per layer."""
    leaves = {}
    for name, shape in spec.mlp().group_shapes():
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


_ZERO = operand(0.0)

# bytes per temporary array of a blocked pass over rows
BLOCK_BYTES = 1 << 20

# rows of a forward block are a multiple of this.  OpenBLAS multiplies
# rows in tiles and rounds the rows of a last, partial tile otherwise;
# blocks that start on multiples of 64 rows keep each row in the tile it
# has in one product over all rows, for any tile size that divides 64
FORWARD_ROW_MULTIPLE = 64


def _block_rows(row_bytes):
    """Rows per block of a blocked pass whose temporaries take
    ``row_bytes`` per row, so that each stays under ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // max(row_bytes, 1))


def _forward_block_rows(mlp):
    """Rows per block of :func:`mlp_apply_np` on an :class:`MlpSpec`: the
    most whose layer outputs (8 bytes per hidden and output unit) stay
    under ``BLOCK_BYTES``, rounded down to a multiple of
    ``FORWARD_ROW_MULTIPLE``, and at least that."""
    rows = _block_rows(8 * sum(mlp.widths[1:]))
    return max(FORWARD_ROW_MULTIPLE,
               rows - rows % FORWARD_ROW_MULTIPLE)


def mlp_apply_np(spec, params, x):
    """Pure-numpy forward, the fast path for training and evaluation.

    It binds afresh on every call, so each call returns a new array.
    The rows of a 2-d ``x`` go through the binding a block at a time
    (:func:`_forward_block_rows`) into one output array, so the layer
    outputs take one block's memory, not memory in proportion to the
    rows.  A block whose rows are not a multiple of
    ``FORWARD_ROW_MULTIPLE`` is padded with zero rows, whose outputs
    are dropped: every row is then in a full tile, so its bits do not
    depend on how many rows come with it, and no block is a single row,
    which numpy would multiply with a matrix-vector product.
    """
    net = BoundMlp(spec, params)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        return net.forward(x)
    rows = len(x)
    step = _forward_block_rows(net.mlp)
    out = np.empty((rows, net.mlp.out_dim))
    for start in range(0, rows, step):
        n = min(step, rows - start)
        block = x[start:start + n]
        if n % FORWARD_ROW_MULTIPLE:
            block = np.concatenate(
                [block, np.zeros((-n % FORWARD_ROW_MULTIPLE, x.shape[1]))])
        out[start:start + n] = net.forward(block)[:n]
    return out


class BoundMlp:
    """An MLP spec bound to its flat parameters: the numpy core.

    Binding once builds what every pass needs: per-layer weight views
    (fan_in, fan_out) into ``params.values`` and their transposes, bias
    views, a flat gradient buffer with per-layer views that
    :meth:`param_grad` fills, and a flat ``tangent`` buffer with per-layer
    views that :meth:`jvp` reads.  The views stay valid as long as
    ``params.values`` is updated in place, as every optimizer here does,
    so a training loop binds once before its first iteration.

    The first forward on an input array binds the array too: it
    allocates each layer's output, and the first pass after it the
    ReLU-mask, cotangent and tangent buffers and the transposed views of
    the layer inputs; the first :meth:`hvp` allocates gradient-sized
    buffers of its own.  Later forwards on the same array object reuse
    them, so a loop that writes each step's input into one buffer
    allocates nothing per step; another array binds anew.  Every pass
    acts on the latest forward and writes into these buffers: what a
    pass returns is valid until the next call of that pass, and a
    forward's outputs (its return value and ``acts``, the input of each
    layer) until the next forward on the same binding.  :meth:`hvp`
    keeps its own cotangents apart, so the ``deltas`` it is given
    survive it.

    ``batch`` is a leading batch shape: inputs ``(*batch, rows, in_dim)``
    then give one flat gradient per batch entry, ``(*batch, n_params)``,
    each summed over its rows.  ReLU derivatives are 0 at the kink, as in
    :func:`autodiff.relu`.

    On a 2-d input the passes are products with the (params, rows)
    matrix whose column i is the parameter gradient of row i's output
    along a fixed cotangent ``dout[i]``, without forming it:
    :meth:`param_grad` of a backprop of ``dout`` with row i scaled by
    v_i is the matrix times v, and the row sums of :meth:`jvp` along r
    times ``dout`` are its transpose times r.  The KKT oracle hands the
    classifier's margin gradients to NNLS so.
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
        self._x = None  # the input array the buffers are bound to
        self._grad_terms = None  # hvp's, made by its first call

    def weights_of(self, flat):
        """Per-layer (fan_in, fan_out) weight views of a flat vector."""
        return [flat[w].reshape(shape) for w, shape, _ in self.layout]

    def _bind_input(self, x):
        """Allocates the layer outputs for inputs shaped like ``x``; the
        first pass after the forward allocates the rest."""
        if x.shape[-1] != self.mlp.in_dim:
            raise ValueError(
                f"input dimension {x.shape[-1]} does not match spec input "
                f"{self.mlp.in_dim}"
            )
        # ndarray.dot gives the same bits as matmul on 2-d operands at a
        # lower cost per call; matmul broadcasts leading batch axes
        self._mm = np.ndarray.dot if x.ndim == 2 else np.matmul
        # the last input's layer outputs go first, so a binding that
        # moves from block to block holds one block's
        self._x = self.acts = self._forward_steps = self._mask_steps = None
        outs = self._like(x, self.mlp.widths[1:])
        self.acts = [x, *outs[:-1]]
        last = len(outs) - 1
        self._forward_steps = [(a, w, b, h, l < last) for l, (a, w, b, h) in
                               enumerate(zip(self.acts, self.weights,
                                             self.biases, outs))]
        self._x = x

    @staticmethod
    def _like(x, widths, dtype=np.float64):
        """One buffer per width, shaped like ``x`` but for its last axis."""
        return [np.empty((*x.shape[:-1], w), dtype) for w in widths]

    def _bind_passes(self):
        """Allocates the buffers of the passes after a forward."""
        x, acts, widths = self._x, self.acts, self.mlp.widths
        hidden = widths[1:-1]
        self._acts_t = [a.swapaxes(-1, -2) for a in acts]
        # mask l is 1.0 where the input of layer l + 1 is positive, else
        # 0.0: a float factor gives the bits of a boolean one at less cost
        masks = self._like(x, hidden)
        self._mask_steps = list(zip(acts[1:], self._like(x, hidden, bool),
                                    masks))
        # deltas[l - 1] is layer l's input cotangent, then its
        # pre-activation cotangent; the last entry is the caller's
        self._deltas = [*self._like(x, hidden), None]
        self._hvp_deltas = [*self._like(x, hidden), None]
        self._backprop_steps = [(l, self.weights_t[l], masks[l - 1])
                                for l in range(len(acts) - 1, 0, -1)]
        tangents = self._like(x, widths[1:])
        self._tangents_t = [a.swapaxes(-1, -2) for a in tangents[:-1]]
        self._jvp_steps = list(zip(acts, self.weights, self.tangent_weights,
                                   self.tangent_biases, [None, *masks],
                                   tangents, self._like(x, widths[1:])))
        self._inject = self._like(x, widths[:-1])
        self._input_cot = np.empty(x.shape)
        self._zero_out = np.zeros((*x.shape[:-1], widths[-1]))

    def forward(self, x):
        """The output of the MLP at ``x``; ``acts[l]`` is layer l's input.

        A hidden ReLU is active exactly where its output is positive, so
        the first pass that needs the masks makes them from ``acts``.
        """
        if x is not self._x:
            self._bind_input(np.asarray(x, dtype=np.float64))
        mm = self._mm
        for a, w, b, h, hidden in self._forward_steps:
            mm(a, w, h)
            if b is not None:
                h += b
            if hidden:
                np.maximum(h, _ZERO, out=h)
        self._masked = False
        return h

    def _relu_masks(self):
        """The float ReLU masks of the latest forward, made once for all
        the passes that follow it."""
        if self._mask_steps is None:
            self._bind_passes()
        for a, active, mask in self._mask_steps:
            np.greater(a, _ZERO, out=active)
            np.copyto(mask, active)
        self._masked = True

    def backprop(self, dout, inject=None):
        """Pre-activation cotangents ``deltas[l]`` from the output's ``dout``.

        ``inject[l]``, when given, is an extra cotangent added at the input
        of layer l; ``inject[0]`` lands on x and is taken by
        :meth:`input_cotangent`, which this pass does not compute.
        """
        if not self._masked:
            self._relu_masks()
        return self._backprop(dout, inject, self._deltas)

    def _backprop(self, dout, inject, deltas):
        """:meth:`backprop` into the buffers ``deltas``, once the masks
        are made."""
        mm = self._mm
        delta = dout
        for l, w_t, mask in self._backprop_steps:
            cot = deltas[l - 1]
            mm(delta, w_t, cot)
            if inject is not None:
                cot += inject[l]
            np.multiply(cot, mask, out=cot)
            delta = cot
        deltas[-1] = dout
        return deltas

    def input_cotangent(self, deltas, inject=None):
        """Cotangent of the input x, plus ``inject[0]`` when given."""
        cot = self._input_cot
        self._mm(deltas[0], self.weights_t[0], cot)
        if inject is not None:
            cot += inject[0]
        return cot

    def param_grad(self, deltas):
        """Flat parameter gradient (group order) from :meth:`backprop`.

        Returns the binding's gradient buffer, which the next call
        overwrites.
        """
        mm = self._mm
        for a_t, delta, gw, gb in zip(self._acts_t, deltas, self.grad_weights,
                                      self.grad_biases):
            mm(a_t, delta, gw)
            if gb is not None:
                np.add.reduce(delta, axis=-2, out=gb)
        return self.grad

    def jvp(self):
        """Output derivative along the parameter direction in ``tangent``.

        One tangent forward pass (Pearlmutter's R-operator) with the ReLU
        masks of the latest forward held fixed.  The caller fills the
        binding's flat ``tangent`` buffer first.  Each hidden layer's
        input tangent is left in a buffer of its own, for :meth:`hvp`.
        """
        if not self._masked:
            self._relu_masks()
        mm = self._mm
        dz = None
        for a, w, w_dot, b_dot, mask, out, term in self._jvp_steps:
            if dz is None:
                mm(a, w_dot, out)
            else:
                np.multiply(dz, mask, out=dz)
                mm(dz, w, out)
                mm(a, w_dot, term)
                out += term
            if b_dot is not None:
                out += b_dot
            dz = out
        return dz

    def tangent_inject(self, deltas):
        """``deltas[l] @ tangent_l^T`` for every layer l: the cotangent at
        each layer input that the parameter tangent adds to the gradient
        of the scalar whose output cotangent gave ``deltas``.

        Backprop takes it as ``inject``; returns the binding's buffers.
        """
        mm = self._mm
        for delta, v_t, out in zip(deltas, self.tangent_weights_t,
                                   self._inject):
            mm(delta, v_t, out)
        return self._inject

    def hvp(self, deltas):
        """Tangent of :meth:`param_grad` along the direction in ``tangent``.

        The Hessian-vector product of the scalar whose output cotangent
        gave ``deltas`` (:meth:`backprop`), forward-over-reverse
        (Pearlmutter) with the ReLU masks of the latest forward held
        fixed: a tangent forward (:meth:`jvp`) gives each layer's input
        tangent, and a backprop of a zero cotangent with ``deltas[l] @
        tangent_l^T`` injected at each layer input gives the tangent
        deltas, into buffers apart from ``deltas``.  Returns the binding's
        gradient buffer, which the next call overwrites.
        """
        if self._grad_terms is None:
            # the second weight-gradient term of layers 1 on, before it
            # is added: gradient-sized, so only a binding that runs hvp
            # holds it
            self._grad_terms = [np.empty_like(gw)
                                for gw in self.grad_weights[1:]]
        self.jvp()
        grad = self.param_grad(self._backprop(
            self._zero_out, self.tangent_inject(deltas), self._hvp_deltas))
        mm = self._mm
        for a_dot_t, delta, gw, term in zip(self._tangents_t, deltas[1:],
                                            self.grad_weights[1:],
                                            self._grad_terms):
            mm(a_dot_t, delta, term)
            gw += term
        return grad


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
    for name, shape in spec.mlp().group_shapes():
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


def deserialize_params(blob, spec):
    """The :class:`ParameterVector` of a blob :func:`serialize_params`
    wrote for ``spec``; a blob of another architecture is refused."""
    view = memoryview(blob)
    what = "parameter blob"
    if bytes(view[:4]) != PARAM_MAGIC:
        raise ValueError("bad parameter blob magic")
    (version,), pos = read_struct("<I", view, 4, what)
    if version != PARAM_VERSION:
        raise ValueError(f"unsupported parameter blob version {version}")
    (spec_hash, n_groups), pos = read_struct("<32sI", view, pos, what)
    if spec.mlp().hash() != spec_hash:
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
