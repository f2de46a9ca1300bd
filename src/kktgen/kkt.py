"""Losses and diagnostics built from the max-margin KKT conditions.

The stationarity loss measures how far the rescaled stationarity condition

    (1/N) Lbar zeta  =  (1/M) sum_i sum_{c != y_i}
                        mu_ic [grad Phi_{y_i}(x_i) - grad Phi_c(x_i)]

is from holding over a generated batch; the duality loss pushes every
second-place margin into the band [e^{-alpha}, e^{-alpha} + delta].  The
NNLS oracle checks the same stationarity system on real labeled data with
freely fitted nonnegative multipliers.  Both losses exist twice: as
autodiff graphs, the reference, and in closed form with their gradients
(:func:`kkt_loss_grads`), which the generator step uses.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from . import autodiff as ad
from .autodiff import Tensor
from .homogeneity import lambda_bar
from .models import (ParameterVector, layer_weight, mlp_apply, mlp_apply_np,
                     mlp_backprop, mlp_forward, mlp_param_grad,
                     mlp_param_jvp, spec_group_shapes)

DEFAULT_TIE_TOL = 1e-6
NORM_EPS = 1e-12


def second_place_set(logits, y, tie_tol=DEFAULT_TIE_TOL):
    """Rival classes within ``tie_tol`` of the best non-true logit."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.size
    if n < 2:
        raise ValueError("second-place set needs at least two classes")
    if not 0 <= y < n:
        raise ValueError(f"label {y} out of range")
    rivals = [c for c in range(n) if c != y]
    best = max(logits[c] for c in rivals)
    return {c for c in rivals if logits[c] >= best - tie_tol}


def second_place_mask(logits, labels, tie_tol=DEFAULT_TIE_TOL):
    """(M, C) indicator of second-place sets for a batch of logits.

    Row i marks the classes of ``second_place_set(logits[i], labels[i])``.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    m, num_classes = logits.shape
    if num_classes < 2:
        raise ValueError("second-place set needs at least two classes")
    if labels.shape != (m,) or np.any((labels < 0) | (labels >= num_classes)):
        raise ValueError("labels must be one in-range class per row")
    rows = np.arange(m)
    rivals = logits.copy()
    rivals[rows, labels] = -np.inf
    best = rivals.max(axis=1, keepdims=True)
    return (rivals >= best - tie_tol).astype(np.float64)


def _weighted_logit_sum(logits, labels, mu, num_classes):
    """sum_i sum_{c != y_i} mu_ic (Phi_{y_i} - Phi_c) as one graph scalar.

    Rewriting the double sum as a coefficient matrix against the logits
    lets one backward pass produce the full weighted gradient combination.
    """
    onehot = ad.one_hot(labels, num_classes)
    not_y = ad.constant(1.0 - onehot.value)
    mu_rivals = ad.mul(mu, not_y)
    row_tot = ad.tsum(mu_rivals, axis=1, keepdims=True)
    coeff = ad.sub(ad.mul(row_tot, onehot), mu_rivals)
    return ad.tsum(ad.mul(coeff, logits))


def stationarity_loss_graph(spec, zeta_leaves, lbar_weights, virtual_n,
                            x, labels, mu):
    """Stationarity loss as a graph scalar, given prebuilt classifier leaves.

    ``x`` and ``mu`` may be graph tensors (gradients then flow into the
    generator and multiplier networks through them).
    """
    if not np.all(np.isfinite(x.value)):
        bad = int(np.argwhere(~np.isfinite(x.value))[0][0])
        raise ValueError(f"non-finite generated sample at index {bad}")
    mlp = spec if hasattr(spec, "widths") else spec.mlp()
    m = labels.size
    logits = mlp_apply(mlp, zeta_leaves, x)
    s = _weighted_logit_sum(logits, labels, mu, mlp.out_dim)
    names = [name for name, _ in spec_group_shapes(spec)]
    grads = ad.grad(s, [zeta_leaves[n] for n in names], allow_unused=True)
    sq = None
    for name, g in zip(names, grads):
        target = ad.mul(zeta_leaves[name],
                        ad.constant(lbar_weights[name] / virtual_n))
        r = ad.sub(target, ad.mul(g, ad.constant(1.0 / m)))
        term = ad.tsum(ad.square(r))
        sq = term if sq is None else ad.add(sq, term)
    return ad.sqrt(ad.add(sq, ad.constant(NORM_EPS))), logits


def duality_loss(logits, labels, alpha, delta, tie_tol=DEFAULT_TIE_TOL):
    """U-shaped margin penalty over second-place pairs; a graph scalar.

    Zero exactly when every counted margin lies in
    [e^{-alpha}, e^{-alpha} + delta].
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    logits_t = logits if isinstance(logits, Tensor) else ad.tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    m, num_classes = logits_t.value.shape
    onehot = ad.one_hot(labels, num_classes)
    phi_y = ad.tsum(ad.mul(logits_t, onehot), axis=1, keepdims=True)
    margins = ad.sub(phi_y, logits_t)
    alpha_t = alpha if isinstance(alpha, Tensor) else ad.tensor(alpha)
    threshold = ad.exp(ad.neg(alpha_t))
    z = ad.sub(margins, threshold)
    upper = ad.maximum(ad.sub(z, ad.constant(delta)), 0.0)
    lower = ad.minimum(z, 0.0)
    mask = ad.constant(second_place_mask(logits_t.value, labels, tie_tol))
    per_pair = ad.mul(mask, ad.sub(upper, lower))
    return ad.mul(ad.tsum(per_pair), ad.constant(1.0 / m))


def _duality_grads(logits, labels, alpha, delta, tie_tol):
    """Numpy L_dual with its gradients in the logits and in alpha."""
    m = labels.size
    rows = np.arange(m)
    threshold = np.exp(-alpha)
    z = logits[rows, labels][:, None] - logits - threshold
    mask = second_place_mask(logits, labels, tie_tol)
    per_pair = mask * (np.maximum(z - delta, 0.0) - np.minimum(z, 0.0))
    l_dual = float(np.sum(per_pair) * (1.0 / m))
    # ties get derivative 0 on both sides of the band, as in the graph
    dz = mask * ((z - delta > 0.0) * 1.0 - (z < 0.0)) * (1.0 / m)
    dlogits = -dz
    dlogits[rows, labels] += dz.sum(axis=1)
    return l_dual, dlogits, float(dz.sum() * threshold)


def kkt_loss_grads(spec, zeta, lbar_weights, virtual_n, x, labels, mu,
                   alpha, delta, beta, tie_tol=DEFAULT_TIE_TOL):
    """L_stat + beta * L_dual on a batch, with gradients in x, mu and alpha.

    The closed-form numpy counterpart of :func:`stationarity_loss_graph`
    plus :func:`duality_loss`, which stay the reference it is tested
    against.  With coefficient matrix ``coeff(mu)`` and S = sum coeff *
    Phi(x), one backprop gives grad_zeta S and the residual r; the
    gradient of L_stat in grad_zeta S is the parameter tangent
    V = -r / (M L_stat).  A tangent forward along V gives dL_stat/dcoeff,
    and injecting delta_l V_l^T at each layer input on a backprop that
    also carries the duality cotangent gives the x gradient (the ReLU
    masks are locally constant).  ``lbar_weights`` is a constant, as in
    the graph, so alpha's gradient comes from the duality threshold
    alone.  Returns (l_stat, l_dual, dx, dmu, dalpha); dx and dalpha are
    gradients of the weighted sum, dmu of L_stat.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    mlp = spec if hasattr(spec, "widths") else spec.mlp()
    m = labels.size
    rows = np.arange(m)
    logits, cache = mlp_forward(mlp, zeta, x)
    not_y = np.ones_like(mu)
    not_y[rows, labels] = 0.0
    mu_rivals = mu * not_y
    coeff = -mu_rivals
    coeff[rows, labels] = mu_rivals.sum(axis=1)
    deltas, _ = mlp_backprop(cache, coeff)
    target = np.concatenate([zeta.group(name)
                             * (lbar_weights[name] / virtual_n)
                             for name in zeta.groups])
    r = target - mlp_param_grad(mlp, cache, deltas) * (1.0 / m)
    l_stat = float(np.sqrt(r @ r + NORM_EPS))
    tangent = ParameterVector(r * (-1.0 / (m * l_stat)), zeta.groups)
    dcoeff = mlp_param_jvp(mlp, cache, tangent)
    dmu = (dcoeff[rows, labels][:, None] - dcoeff) * not_y
    l_dual, dlogits, dalpha = _duality_grads(logits, labels, alpha, delta,
                                             tie_tol)
    inject = [d @ layer_weight(mlp, tangent, l).T
              for l, d in enumerate(deltas)]
    _, dx = mlp_backprop(cache, dlogits * beta, inject)
    return l_stat, l_dual, dx, dmu, dalpha * beta


def margins_np(spec, zeta, x, labels):
    """Numpy margins Phi_y - Phi_c, zero in the true-class column."""
    logits = mlp_apply_np(spec, zeta, x)
    phi_y = logits[np.arange(len(labels)), labels][:, None]
    return phi_y - logits


def kkt_residual_oracle(spec, zeta, profile, x, labels, alpha,
                        tie_tol=DEFAULT_TIE_TOL, require_separation=True):
    """Fit nonnegative multipliers on labeled data; report the residual.

    Multipliers are restricted to second-place (i, c) pairs.  Returns the
    normalized residual ||Lbar zeta - G mu|| / ||Lbar zeta|| and the fitted
    mu as {(i, c): value}.  Column (i, c) of G is the margin gradient
    grad_zeta (Phi_{y_i} - Phi_c)(x_i); all columns come from one forward
    and one backprop over the pair rows.  ``require_separation=False``
    skips the positive-margin check so the fit can serve as a control on
    shuffled labels, where stationarity should NOT be satisfiable.
    """
    mlp = spec if hasattr(spec, "widths") else spec.mlp()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    logits = mlp_apply_np(mlp, zeta, x)
    mask = second_place_mask(logits, labels, tie_tol)
    if require_separation:
        rival = np.ones_like(logits, dtype=bool)
        rival[np.arange(len(labels)), labels] = False
        margins = logits[np.arange(len(labels)), labels][:, None] - logits
        if np.min(margins[rival]) <= 0.0:
            raise ValueError("classifier does not separate the data; the "
                             "max-margin conditions do not apply")
    lbar = lambda_bar(profile, alpha)
    target = np.concatenate(
        [lbar[name] * zeta.group(name) for name in zeta.groups])
    rows, classes = np.nonzero(mask)
    pair_rows = np.arange(rows.size)
    _, cache = mlp_forward(mlp, zeta, x[rows][:, None, :])
    dlogits = np.zeros((rows.size, 1, mlp.out_dim))
    dlogits[pair_rows, 0, labels[rows]] = 1.0
    dlogits[pair_rows, 0, classes] = -1.0
    deltas, _ = mlp_backprop(cache, dlogits)
    g = mlp_param_grad(mlp, cache, deltas).T
    mu, _ = scipy.optimize.nnls(g, target)
    residual = float(np.linalg.norm(target - g @ mu)
                     / (np.linalg.norm(target) + NORM_EPS))
    pairs = [(int(i), int(c)) for i, c in zip(rows, classes)]
    return residual, dict(zip(pairs, mu))
