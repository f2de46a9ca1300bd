"""Minimal reverse-mode autodiff over dense float64 arrays.

The engine is define-by-run: every operation returns a new :class:`Tensor`
node holding its numpy value, its parents and the VJP (vector-Jacobian
product) rules.  VJP rules are themselves expressed with these same
operations, so the output of :func:`grad` is an ordinary graph node and can
be differentiated again.  That closure under differentiation is what makes
the mixed second derivatives of the stationarity objective possible.

Conventions:
  * all values are float64 numpy arrays (scalars are 0-d arrays),
  * relu'(0) = 0, and ties in max/min-with-constant also get derivative 0,
  * reductions run in numpy's fixed left-to-right order, so results are
    deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "constant",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "relu",
    "exp",
    "sqrt",
    "absval",
    "square",
    "maximum",
    "minimum",
    "tsum",
    "tmean",
    "concat",
    "slice_axis",
    "one_hot",
    "grad",
    "finite_difference_check",
]


class Tensor:
    """A node of the computation graph.

    ``parents`` and ``vjps`` are empty for leaves and constants.  ``vjps[k]``
    maps the cotangent of this node to the cotangent contribution for
    ``parents[k]``, built out of graph operations.
    """

    __slots__ = ("value", "parents", "vjps", "name")

    def __init__(self, value, parents=(), vjps=(), name=None, checked=True):
        arr = np.asarray(value, dtype=np.float64)
        if checked and not np.all(np.isfinite(arr)):
            raise ValueError(
                f"non-finite value in tensor {name or '<anonymous>'}"
            )
        self.value = arr
        self.parents = parents
        self.vjps = vjps
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    # operator sugar; right-hand scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(name={self.name!r}, shape={self.value.shape})"


def tensor(value, name=None):
    """Create a leaf tensor (finiteness-checked)."""
    return Tensor(value, name=name)


def constant(value):
    """Create a constant tensor; gradients never flow into constants."""
    return Tensor(value, checked=False)


def _wrap(x):
    return x if isinstance(x, Tensor) else constant(x)


def _node(value, parents, vjps, name=None):
    return Tensor(value, parents=tuple(parents), vjps=tuple(vjps),
                  name=name, checked=False)


def _unbroadcast(cot, shape):
    """Reduce a cotangent back to ``shape`` after numpy broadcasting."""
    while cot.value.ndim > len(shape):
        cot = tsum(cot, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and cot.value.shape[axis] != 1:
            cot = tsum(cot, axis=axis, keepdims=True)
    if cot.value.shape != shape:
        cot = reshape(cot, shape)
    return cot


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    return _node(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape),
         lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    return _node(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape),
         lambda g: _unbroadcast(neg(g), b.value.shape)),
    )


def neg(a):
    return _node(-a.value, (a,), (lambda g: neg(g),))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    return _node(
        a.value * b.value,
        (a, b),
        (lambda g: _unbroadcast(mul(g, b), a.value.shape),
         lambda g: _unbroadcast(mul(g, a), b.value.shape)),
    )


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    return _node(
        a.value / b.value,
        (a, b),
        (lambda g: _unbroadcast(div(g, b), a.value.shape),
         lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))),
                                b.value.shape)),
    )


def matmul(a, b):
    if a.value.ndim < 1 or b.value.ndim < 1:
        raise ValueError("matmul requires tensors of rank >= 1")
    try:
        value = a.value @ b.value
    except ValueError as err:
        raise ValueError(
            f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}"
        ) from err

    def vjp_a(g):
        if b.value.ndim == 1:  # (m,n) @ (n,) -> (m,)
            return _outer_or_scale(g, b, a.value.shape)
        if a.value.ndim == 1:  # (n,) @ (n,m) -> (m,)
            return matmul(b, g)
        return matmul(g, transpose(b))

    def vjp_b(g):
        if a.value.ndim == 1:
            if b.value.ndim == 1:
                return mul(g, a)
            return _outer_or_scale(a, g, b.value.shape)
        if b.value.ndim == 1:
            return matmul(transpose(a), g)
        return matmul(transpose(a), g)

    return _node(value, (a, b), (vjp_a, vjp_b))


def _outer_or_scale(u, v, shape):
    """Outer product u v^T as a graph op, reshaped to ``shape``."""
    if u.value.ndim == 0 or v.value.ndim == 0:
        return reshape(mul(u, v), shape)
    uc = reshape(u, (u.value.size, 1))
    vc = reshape(v, (1, v.value.size))
    return reshape(matmul(uc, vc), shape)


def transpose(a):
    if a.value.ndim != 2:
        raise ValueError("transpose expects a rank-2 tensor")
    return _node(a.value.T.copy(), (a,), (lambda g: transpose(g),))


def reshape(a, shape):
    shape = tuple(shape)
    old = a.value.shape
    return _node(a.value.reshape(shape), (a,),
                 (lambda g: reshape(g, old),))


# ---------------------------------------------------------------------------
# nonlinearities and elementwise functions


def relu(a):
    mask = constant((a.value > 0.0).astype(np.float64))
    return _node(np.maximum(a.value, 0.0), (a,),
                 (lambda g: mul(g, mask),))


def exp(a):
    # the VJP rebuilds exp(a) rather than closing over the output node,
    # which would put every graph in a reference cycle
    return _node(np.exp(a.value), (a,), (lambda g: mul(g, exp(a)),))


def sqrt(a):
    return _node(np.sqrt(a.value), (a,),
                 (lambda g: div(mul(g, constant(0.5)), sqrt(a)),))


def absval(a):
    sign = constant(np.sign(a.value))
    return _node(np.abs(a.value), (a,), (lambda g: mul(g, sign),))


def square(a):
    return mul(a, a)


def maximum(a, c):
    """Elementwise max(a, c) with constant c; derivative 0 at ties."""
    c = float(c)
    mask = constant((a.value > c).astype(np.float64))
    return _node(np.maximum(a.value, c), (a,), (lambda g: mul(g, mask),))


def minimum(a, c):
    """Elementwise min(a, c) with constant c; derivative 0 at ties."""
    c = float(c)
    mask = constant((a.value < c).astype(np.float64))
    return _node(np.minimum(a.value, c), (a,), (lambda g: mul(g, mask),))


# ---------------------------------------------------------------------------
# reductions, concatenation, embedding


def tsum(a, axis=None, keepdims=False):
    value = np.sum(a.value, axis=axis, keepdims=keepdims)
    in_shape = a.value.shape

    def vjp(g):
        if axis is None:
            return _broadcast(g, in_shape)
        gv = g
        if not keepdims:
            kshape = list(in_shape)
            kshape[axis] = 1
            gv = reshape(gv, kshape)
        return _broadcast(gv, in_shape)

    return _node(value, (a,), (vjp,))


def _broadcast(a, shape):
    """Broadcast to ``shape``; the adjoint is the matching reduction."""
    old = a.value.shape
    return _node(np.broadcast_to(a.value, shape).copy(), (a,),
                 (lambda g: _unbroadcast_exact(g, old),))


def _unbroadcast_exact(g, shape):
    out = _unbroadcast(g, shape)
    if out.value.shape != shape:
        out = reshape(out, shape)
    return out


def tmean(a, axis=None, keepdims=False):
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), constant(1.0 / n))


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    value = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(k):
        return lambda g: slice_axis(g, axis, int(offsets[k]),
                                    int(offsets[k + 1]))

    return _node(value, tensors, tuple(make_vjp(k) for k in
                                       range(len(tensors))))


def slice_axis(a, axis, start, stop):
    index = [slice(None)] * a.value.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    in_shape = a.value.shape

    def vjp(g):
        parts = []
        if start > 0:
            before = list(in_shape)
            before[axis] = start
            parts.append(constant(np.zeros(before)))
        parts.append(g)
        if stop < in_shape[axis]:
            after = list(in_shape)
            after[axis] = in_shape[axis] - stop
            parts.append(constant(np.zeros(after)))
        return concat(parts, axis=axis) if len(parts) > 1 else g

    return _node(a.value[index].copy(), (a,), (vjp,))


def one_hot(labels, num_classes):
    """Constant one-hot embedding of integer labels, shape (n, num_classes)."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("label out of range for one-hot embedding")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return constant(out)


# ---------------------------------------------------------------------------
# differentiation


def _ancestors(root):
    """Topological order of the subgraph reachable from ``root``."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order, seen


def grad(root, wrt, allow_unused=False):
    """Differentiate scalar ``root`` with respect to the tensors in ``wrt``.

    Returns one cotangent tensor per entry of ``wrt``; each is a node of an
    extended graph and can be differentiated again.  Raises if ``root`` is
    not a scalar, or (unless ``allow_unused``) if a requested tensor does
    not feed ``root``; with ``allow_unused`` such entries get zero
    cotangents, which a derived gradient expression may legitimately need.
    """
    if root.value.size != 1:
        raise ValueError(
            f"grad requires a scalar root, got shape {root.value.shape}"
        )
    wrt = list(wrt)
    order, seen = _ancestors(root)
    if not allow_unused:
        for w in wrt:
            if id(w) not in seen:
                raise ValueError(
                    f"tensor {w.name or '<anonymous>'} is not an ancestor "
                    "of the root"
                )

    cotangents = {id(root): constant(np.ones(root.value.shape))}
    for node in reversed(order):
        cot = cotangents.get(id(node))
        if cot is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contribution = vjp(cot)
            prev = cotangents.get(id(parent))
            cotangents[id(parent)] = (contribution if prev is None
                                      else add(prev, contribution))
    out = []
    for w in wrt:
        cot = cotangents.get(id(w))
        if cot is None:
            cot = constant(np.zeros(w.value.shape))
        elif cot.value.shape != w.value.shape:
            cot = reshape(cot, w.value.shape)
        out.append(cot)
    return out


def finite_difference_check(fn, point, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a leaf tensor to a scalar tensor.  The analytic gradient is
    obtained with :func:`grad`; each coordinate is then perturbed by
    ``±step`` for the central difference.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = tensor(np.asarray(point, dtype=np.float64))
    analytic = grad(fn(x), [x])[0].value
    numeric = np.zeros_like(x.value)
    flat = x.value.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(fn(tensor(x.value)).value)
        flat[i] = orig - step
        lo = float(fn(tensor(x.value)).value)
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * step)
    denom = np.abs(analytic) + 1e-12
    return float(np.max(np.abs(analytic - numeric) / denom))
