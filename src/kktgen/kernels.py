"""Numpy kernels: the Adam update, mean total variation, uniform SSIM
and nonnegative least squares."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def operand(value):
    """A read-only 0-d float64 array: a ufunc takes one with less per-call
    work than a Python float, for the same bits."""
    scalar = np.array(value, dtype=np.float64)
    scalar.flags.writeable = False
    return scalar


# Adam's moment decay rates and its denominator offset, those of every
# optimizer the program runs
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam over a flat parameter array of one size: its moments ``m``
    and ``v``, its step count ``t``, and what :func:`adam_update` needs
    besides the arrays it updates, bound once for every step.

    The constants beta1, 1 - beta1, beta2, 1 - beta2, lr and eps are
    read-only 0-d arrays, the bias corrections 1 - beta^t are 0-d arrays
    that each step rewrites, and two scratch vectors hold the
    intermediates, so a step converts no Python float and allocates
    nothing.
    """

    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.bound = (*(operand(c) for c in (BETA1, 1.0 - BETA1, BETA2,
                                             1.0 - BETA2, lr, EPS)),
                      np.empty(()), np.empty(()), np.empty(size),
                      np.empty(size))

    def step(self, values, grads):
        self.t += 1
        adam_update(values, grads, self)


def adam_update(values, grads, adam):
    """One in-place Adam step of :class:`Adam` ``adam`` at its step count
    ``adam.t`` (1-based), with bias correction.

    ``adam.m``, ``adam.v`` and ``values`` are updated in their own
    storage, with the operations of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g`` and
    ``values -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that order, so
    the result is bit-identical to the out-of-place expressions.
    """
    b1, c1, b2, c2, lr, eps, bc1, bc2, step, update = adam.bound
    m, v = adam.m, adam.v
    t = float(adam.t)
    bc1[()] = 1.0 - BETA1 ** t
    bc2[()] = 1.0 - BETA2 ** t
    m *= b1
    np.multiply(grads, c1, out=step)
    m += step
    np.multiply(grads, c2, out=step)
    step *= grads
    v *= b2
    v += step
    np.divide(v, bc2, out=step)
    np.sqrt(step, out=step)
    step += eps
    np.divide(m, bc1, out=update)
    update *= lr
    update /= step
    values -= update


class TotalVariation:
    """Mean anisotropic total variation of a batch of ``m`` flat
    ``height`` x ``width`` images, and its gradient (|.|' = 0 at ties),
    with every buffer bound once for batches of that shape.

    Each call takes the down differences x[i + w] - x[i] and the right
    differences x[i + 1] - x[i] over the flat batch, one contiguous
    subtraction each, into one buffer.  Its down part is bordered by
    ``width`` zeros on each side and its right part by one, so that with
    S and R the signs of the two parts a pixel's gradient is
    S[i] - S[i + w] + R[i] - R[i + 1], four contiguous slices.  The
    differences that cross from one image or row into the next are
    gathered out before the sum, and their signs are zeroed; the rest
    are gathered in the order of the (m, h - 1, w) and (m, h, w - 1)
    difference arrays, whose sums they reproduce bit for bit.  The signs
    are int8, from two comparisons, and the gradient is their integer
    count times 1/m, so it is exact and every zero of it is +0.0, as the
    np.sign form gives for finite x.  A call returns (value, gradient);
    the gradient is the kernel's buffer, valid until the next call.
    """

    def __init__(self, m, height, width):
        n, w, size = m * height * width, width, height * width
        self.width = w
        self.inv_m = 1.0 / m
        # the down part: w zeros, the n - w down differences, w zeros;
        # then the right part: one zero, the n - 1 right differences,
        # one zero
        self.diffs = np.zeros(2 * n + w + 1)
        self.down = self.diffs[w:n]
        self.right = self.diffs[n + w + 1:2 * n + w]
        down_in = np.arange(n - w) % size < size - w
        right_in = np.arange(n - 1) % w < w - 1
        self.valid = np.concatenate([w + np.flatnonzero(down_in),
                                     n + w + 1 + np.flatnonzero(right_in)])
        self.abs = np.empty(self.valid.size)
        n_down = np.count_nonzero(down_in)
        self.abs_down, self.abs_right = self.abs[:n_down], self.abs[n_down:]
        self.positive = np.empty(self.diffs.size, dtype=bool)
        self.negative = np.empty(self.diffs.size, dtype=bool)
        self.positive_int = self.positive.view(np.int8)
        self.negative_int = self.negative.view(np.int8)
        self.signs = np.empty(self.diffs.size, dtype=np.int8)
        # 1 where a difference stays in its image row or column; an int8
        # product has no signed zero
        self.keep = np.zeros(self.diffs.size, dtype=np.int8)
        self.keep[self.valid] = 1
        self.grad_terms = (self.signs[:n], self.signs[w:n + w],
                           self.signs[n + w:2 * n + w],
                           self.signs[n + w + 1:])
        self.count = np.empty(n, dtype=np.int8)
        self.grad = np.empty((m, size))
        self.grad_flat = self.grad.reshape(-1)

    def __call__(self, x):
        flat, w = x.reshape(-1), self.width
        np.subtract(flat[w:], flat[:-w], out=self.down)
        np.subtract(flat[1:], flat[:-1], out=self.right)
        # "clip" only skips a buffered copy; the indices are in range
        self.diffs.take(self.valid, out=self.abs, mode="clip")
        np.abs(self.abs, out=self.abs)
        value = (np.add.reduce(self.abs_down)
                 + np.add.reduce(self.abs_right)) * self.inv_m
        np.greater(self.diffs, 0.0, out=self.positive)
        np.less(self.diffs, 0.0, out=self.negative)
        np.subtract(self.positive_int, self.negative_int, out=self.signs)
        self.signs *= self.keep
        s_lo, s_hi, r_lo, r_hi = self.grad_terms
        count = self.count
        np.subtract(s_lo, s_hi, out=count)
        count += r_lo
        count -= r_hi
        np.copyto(self.grad_flat, count)
        self.grad_flat *= self.inv_m
        return float(value), self.grad


def ssim_uniform(a, b, window, c1, c2):
    """Mean SSIM over all valid uniform windows of each image of stack
    ``a`` against each image of stack ``b``.

    ``a`` and ``b`` are stacks ``(k, h, w)`` of images of one shape; the
    scores have shape ``(k_a, k_b)``.

    Each window of each image is a vector of ``window**2`` pixels, so a
    stack is ``(P, k, window**2)`` over its P window positions.  The
    window means and second moments are taken once per stack; the cross
    moment of every pair at every window is one batched matrix product,
    ``(P, k_a, window**2) @ (P, window**2, k_b)``, so no array over
    pairs and pixels is formed: besides the window vectors, the
    temporaries are ``(P, k_a, k_b)`` arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or b.shape[1:] != a.shape[1:]:
        raise ValueError("ssim_uniform expects two stacks of equal-shape "
                         "2-d images")
    if window > min(a.shape[1:]):
        raise ValueError("window larger than the image")

    def windows(stack):
        views = sliding_window_view(stack, (window, window), axis=(1, 2))
        return views.reshape(len(stack), -1,
                             window * window).transpose(1, 0, 2)

    def moments(vectors):
        mu = vectors.mean(axis=-1)
        return mu, (vectors * vectors).mean(axis=-1) - mu * mu

    win_a, win_b = windows(a), windows(b)
    mu_a, var_a = (m[:, :, None] for m in moments(win_a))
    mu_b, var_b = (m[:, None, :] for m in moments(win_b))
    cov = (np.matmul(win_a, win_b.transpose(0, 2, 1)) / (window * window)
           - mu_a * mu_b)
    scores = (((2 * mu_a * mu_b + c1) * (2 * cov + c2))
              / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
    return scores.mean(axis=0)


class NnlsIterationLimit(RuntimeError):
    """:func:`nnls` used up its iterations before the KKT conditions held."""


# a column enters the passive set only if its component outside the span
# of the passive columns, scaled by this factor, still changes the norm
# of its component inside: Lawson & Hanson's test for near-dependence
_INDEPENDENCE_FACTOR = 0.01

# the iteration cap per column, scipy's
_ITERATIONS_PER_COLUMN = 3


def nnls(a, b):
    """min ||a x - b|| over x >= 0; returns ``(x, rnorm)``.

    Lawson & Hanson's active-set method (*Solving Least Squares
    Problems*, 1974, ch. 23-24), with the results of
    ``scipy.optimize.nnls``.  The passive columns are factored a = QR in
    their order of entry, with Q kept as one Householder reflector per
    passive column, so no copy of ``a`` is made: besides R, at most
    n-by-n, memory grows with the columns that enter.  A trial column is
    a copy of its column of ``a`` with the reflectors applied one at a
    time, in order; its parts inside and outside the span of the passive
    columns give the test for near-dependence, and one more reflector
    gives its coefficients.  When columns leave, the passive columns
    after the first that left are factored again.  The duals are
    ``a.T @ (b - a x)``.  The column of largest positive dual enters the
    passive set unless it is numerically dependent on the passive
    columns or would enter with a coefficient <= 0; a rejected column
    waits until the dual is next recomputed.  Each entry lowers the
    residual in exact arithmetic; the solve ends at one that does not,
    which fits only rounding error, with the solution before it.  Every
    passive-set solve after an entry counts as one iteration;
    :class:`NnlsIterationLimit` is raised after 3n of them.

    ``a`` is an (m, n) array, or an (m, n) linear operator that need not
    form its matrix: an object with a ``shape`` and the methods
    ``matvec(x)``, ``a @ x``, which may be a buffer the next call
    overwrites; ``rmatvec(r)``, ``a.T @ r`` as a new array; and
    ``column(j)``, column j as a new array.  They are all the solve
    uses of ``a``; an array is used through ``a @ x``, ``a.T @ r`` and
    ``a[:, j].copy()``.
    """
    if hasattr(a, "column"):
        matvec, rmatvec, column = a.matvec, a.rmatvec, a.column
    else:
        a = np.asarray(a, dtype=np.float64)

        def matvec(x):
            return a @ x

        def rmatvec(res):
            return a.T @ res

        def column(j):
            return a[:, j].copy()
    b = np.asarray(b, dtype=np.float64)
    if len(a.shape) != 2 or b.shape != (a.shape[0],):
        raise ValueError("nnls expects an (m, n) matrix and an m-vector")
    m, n = a.shape
    maxiter = _ITERATIONS_PER_COLUMN * n
    size = min(m, n)
    r = np.zeros((size, size))
    # the reflector of the k-th passive column: (v, tau), with
    # H_k = I - tau v v^T and v zero above row k and 1 in it, so that
    # Q^T = H_{k-1} ... H_0
    reflectors = []

    def factor(col, k):
        """Make ``col``, Q^T times a column of ``a``, column k of R:
        store its rows of R and return its reflector, made in ``col``."""
        head = col[k]
        r[:k, k] = col[:k]
        col[:k] = 0.0
        # the norm of the whole column with its head zeroed: the tail
        # slice alone rounds otherwise, and on the circle oracle's matrix
        # that drops a last entry which scipy makes
        beta = -math.copysign(math.sqrt(col.dot(col)), head)
        r[k, k] = beta
        col /= head - beta
        col[k] = 1.0
        return col, (beta - head) / beta

    def refactor(keep, passive):
        """Q^T b after the passive columns from position ``keep`` on are
        factored again."""
        del reflectors[keep:]
        qtb = _reflect(b.copy(), reflectors)
        for k in range(keep, len(passive)):
            col = _reflect(column(passive[k]), reflectors)
            reflectors.append(factor(col, k))
            _reflect(qtb, reflectors[-1:])
        return qtb

    x = np.zeros(n)
    free = np.ones(n, dtype=bool)
    passive = []  # in order of entry, the order of the reflectors
    qtb = b.copy()
    rnorm = math.sqrt(b.dot(b))
    dual = rmatvec(b)
    iters = 0
    while len(passive) < size:
        j = int(np.argmax(np.where(free, dual, 0.0)))
        if not (free[j] and dual[j] > 0.0):
            break
        k = len(passive)
        col = _reflect(column(j), reflectors)
        head, tail = col[:k], col[k:]
        inside = math.sqrt(head.dot(head))
        outside = math.sqrt(tail.dot(tail))
        z = None
        if inside + _INDEPENDENCE_FACTOR * outside > inside:
            v, tau = factor(col, k)
            rhs = qtb[:k + 1].copy()
            rhs[k] -= tau * v.dot(qtb)
            z = np.linalg.solve(r[:k + 1, :k + 1], rhs)
        if z is None or not z[-1] > 0.0:
            dual[j] = 0.0
            continue
        passive.append(j)
        reflectors.append((v, tau))
        _reflect(qtb, reflectors[-1:])
        free[j] = False
        x_before, rnorm_before = x.copy(), rnorm
        while True:
            iters += 1
            if iters > maxiter:
                raise NnlsIterationLimit(
                    f"nnls: no solution within {maxiter} iterations")
            blocked = np.flatnonzero(z <= 0.0)
            if not blocked.size:
                break
            cols = np.array(passive)
            now = x[cols]
            ratios = now[blocked] / (now[blocked] - z[blocked])
            stop = int(np.argmin(ratios))
            x[cols] = now + ratios[stop] * (z - now)
            x[cols[blocked[stop]]] = 0.0
            free[cols] = x[cols] <= 0.0
            x[free] = 0.0
            keep = int(np.argmax(free[cols]))
            passive = [i for i in passive if not free[i]]
            qtb = refactor(keep, passive)
            k = len(passive)
            z = np.linalg.solve(r[:k, :k], qtb[:k])
        x[passive] = z
        res = b - matvec(x)
        rnorm = math.sqrt(res.dot(res))
        if not rnorm < rnorm_before:
            x, rnorm = x_before, rnorm_before
            break
        dual = rmatvec(res)
    return x, rnorm


def _reflect(v, reflectors):
    """Apply the reflectors (u, tau), I - tau u u^T, to ``v`` in place,
    one at a time, in order; returns ``v``."""
    for u, tau in reflectors:
        v -= (tau * u.dot(v)) * u
    return v
