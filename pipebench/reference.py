"""The benchmark's own numpy yardstick for the pipeline's outputs.

Nothing here imports kktgen: every check compares the program against
these functions, so they are written from the method's formulas and
tested on their own (``test_reference.py``).

A network is a list of ``(W, b)`` pairs, ``W`` of shape (fan_in, fan_out)
and ``b`` a vector or None; hidden layers use ReLU and the last layer is
linear.  Flattened parameter vectors run layer by layer, weight (row-major)
before bias, which is the layout of kktgen's parameter vectors.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

TIE_TOL = 1e-6
NORM_EPS = 1e-12
MASK_REL_TOL = 1e-6


def forward(layers, x):
    """Logits and the (pre-activations, activations) cache for backward."""
    acts = [np.asarray(x, dtype=np.float64)]
    pres = []
    for k, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        if b is not None:
            z = z + b
        pres.append(z)
        acts.append(np.maximum(z, 0.0) if k < len(layers) - 1 else z)
    return acts[-1], (pres, acts)


def backward(layers, cache, dlogits):
    """Per-layer (dW, db) of sum(dlogits * logits), summed over the batch."""
    pres, acts = cache
    delta = np.asarray(dlogits, dtype=np.float64)
    grads = [None] * len(layers)
    for k in reversed(range(len(layers))):
        w, b = layers[k]
        grads[k] = (acts[k].T @ delta,
                    delta.sum(axis=0) if b is not None else None)
        if k > 0:
            delta = (delta @ w.T) * (pres[k - 1] > 0.0)
    return grads


def flatten(pairs):
    """Concatenate (W, b) pairs in parameter-vector order."""
    parts = []
    for w, b in pairs:
        parts.append(np.ravel(w))
        if b is not None:
            parts.append(np.ravel(b))
    return np.concatenate(parts)


def unflatten(layers, flat):
    """Inverse of :func:`flatten`, shaped like ``layers``."""
    out, pos = [], 0
    for w, b in layers:
        nw = w.size
        w2 = flat[pos:pos + nw].reshape(w.shape)
        pos += nw
        b2 = None
        if b is not None:
            b2 = flat[pos:pos + b.size].copy()
            pos += b.size
        out.append((w2, b2))
    return out


def margin_gradient(layers, x, y, c):
    """Flat gradient of Phi_y(x) - Phi_c(x) with respect to the parameters."""
    x = np.atleast_2d(x)
    logits, cache = forward(layers, x)
    d = np.zeros_like(logits)
    d[0, y] += 1.0
    d[0, c] -= 1.0
    return flatten(backward(layers, cache, d))


def one_hot(labels, n):
    out = np.zeros((len(labels), n))
    out[np.arange(len(labels)), np.asarray(labels, dtype=int)] = 1.0
    return out


def margins(logits, labels):
    """Phi_y - Phi_c per row, with the true-class column set to +inf."""
    idx = np.arange(len(labels))
    m = logits[idx, labels][:, None] - logits
    m[idx, labels] = np.inf
    return m


def second_place(logits, labels, tol=TIE_TOL):
    """Rivals whose logit is within ``tol`` of the best rival logit."""
    idx = np.arange(len(labels))
    rival = np.array(logits, dtype=np.float64)
    rival[idx, labels] = -np.inf
    best = rival.max(axis=1, keepdims=True)
    return rival >= best - tol


def lambda_bar(lambdas, alpha):
    """tilde-Lambda e^{alpha (2 Lambda - I)}: the weights of each group."""
    lam = np.asarray(lambdas, dtype=np.float64)
    lmax = lam.max()
    on = lam >= lmax * (1.0 - MASK_REL_TOL)
    return np.where(on, lmax * np.exp(alpha * (2.0 * lam - 1.0)), 0.0)


def group_weights(layers, per_group):
    """Flat vector giving every entry of group j the weight per_group[j]."""
    parts, j = [], 0
    for w, b in layers:
        parts.append(np.full(w.size, per_group[j]))
        j += 1
        if b is not None:
            parts.append(np.full(b.size, per_group[j]))
            j += 1
    return np.concatenate(parts)


def nnls_residual(layers, lambdas, x, labels, alpha, tol=TIE_TOL):
    """min over mu >= 0 of ||Lbar zeta - G mu|| / ||Lbar zeta||.

    The columns of G are margin gradients of each point against each of
    its second-place rivals.
    """
    logits, _ = forward(layers, x)
    second = second_place(logits, labels, tol)
    cols = [margin_gradient(layers, x[i], labels[i], c)
            for i in range(len(labels))
            for c in np.flatnonzero(second[i])]
    target = group_weights(layers, lambda_bar(lambdas, alpha)) \
        * flatten(layers)
    g = np.array(cols).T
    mu, _ = scipy.optimize.nnls(g, target)
    return float(np.linalg.norm(target - g @ mu)
                 / (np.linalg.norm(target) + NORM_EPS))


def stationarity(layers, lambdas, alpha, virtual_n, x, labels, mu):
    """The stationarity loss of a batch under fixed multipliers:

        || Lbar zeta / N - (1/M) sum_i sum_{c != y_i} mu_ic g_ic ||

    with g_ic the parameter gradient of Phi_{y_i}(x_i) - Phi_c(x_i).
    ``mu`` is (M, C); its true-class column is ignored.  The squared norm
    carries the same 1e-12 floor as the program's loss.
    """
    m, n_cls = mu.shape
    not_y = 1.0 - one_hot(labels, n_cls)
    mu_r = mu * not_y
    coeff = mu_r.sum(axis=1, keepdims=True) * (1.0 - not_y) - mu_r
    _, cache = forward(layers, x)
    g = flatten(backward(layers, cache, coeff))
    target = group_weights(layers, lambda_bar(lambdas, alpha)) \
        * flatten(layers) / virtual_n
    r = target - g / m
    return float(np.sqrt(r @ r + NORM_EPS))


def duality(logits, labels, alpha, delta, tol=TIE_TOL):
    """Mean U-shaped penalty of second-place margins outside the band."""
    z = margins(logits, labels) - np.exp(-alpha)
    mask = second_place(logits, labels, tol)
    z = np.where(mask, z, 0.0)
    pen = np.maximum(z - delta, 0.0) - np.minimum(z, 0.0)
    return float(np.sum(np.where(mask, pen, 0.0)) / len(labels))


def coverage(samples, sample_labels, data_x, data_labels, predicted=None):
    """(mean nearest-data distance, per-data-point min distance, agreement).

    Agreement compares the conditioning labels with ``predicted`` when it
    is given, else with the label of each sample's nearest data point
    (the lowest index on ties).
    """
    d = np.linalg.norm(samples[:, None, :] - data_x[None, :, :], axis=2)
    nearest = np.argmin(d, axis=1)
    mean_nn = float(d[np.arange(len(samples)), nearest].mean())
    per_point = d.min(axis=0)
    other = predicted if predicted is not None else data_labels[nearest]
    agree = float(np.mean(np.asarray(sample_labels) == other))
    return mean_nn, per_point, agree
