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

import math

import numpy as np

from . import autodiff as ad
from .homogeneity import lambda_bar
from .kernels import nnls
from .models import BoundMlp, mlp_apply, mlp_apply_np

DEFAULT_TIE_TOL = 1e-6
NORM_EPS = 1e-12


def second_place_mask(logits, labels):
    """(M, C) indicator of second-place sets for a batch of logits.

    Row i marks the rival classes (c != labels[i]) whose logit lies
    within ``DEFAULT_TIE_TOL`` of the best rival logit of that row.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    m, num_classes = logits.shape
    if num_classes < 2:
        raise ValueError("second-place set needs at least two classes")
    if labels.shape != (m,) or np.any((labels < 0) | (labels >= num_classes)):
        raise ValueError("labels must be one in-range class per row")
    return _second_place(logits, _own_indices(labels, num_classes)
                         ).astype(np.float64)


def _own_indices(labels, num_classes):
    """Flat indices of the (i, labels[i]) entries of an (M, C) array."""
    return np.arange(labels.size) * num_classes + labels


def _second_place(logits, own):
    """:func:`second_place_mask` as booleans, for a validated batch given
    by its flat own-class indices."""
    rivals = logits.copy()
    rivals.put(own, -np.inf)
    best = np.maximum.reduce(rivals, axis=1, keepdims=True)
    return rivals >= best - DEFAULT_TIE_TOL


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
    mlp = spec.mlp()
    m = labels.size
    logits = mlp_apply(mlp, zeta_leaves, x)
    s = _weighted_logit_sum(logits, labels, mu, mlp.out_dim)
    names = [name for name, _ in spec.mlp().group_shapes()]
    grads = ad.grad(s, [zeta_leaves[n] for n in names], allow_unused=True)
    sq = None
    for name, g in zip(names, grads):
        target = ad.mul(zeta_leaves[name],
                        ad.constant(lbar_weights[name] / virtual_n))
        r = ad.sub(target, ad.mul(g, ad.constant(1.0 / m)))
        term = ad.tsum(ad.square(r))
        sq = term if sq is None else ad.add(sq, term)
    return ad.sqrt(ad.add(sq, ad.constant(NORM_EPS))), logits


def duality_loss(logits, labels, alpha, delta):
    """U-shaped margin penalty over second-place pairs; a graph scalar.

    Zero exactly when every counted margin lies in
    [e^{-alpha}, e^{-alpha} + delta].
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    logits_t = logits if isinstance(logits, ad.Tensor) else ad.tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    m, num_classes = logits_t.value.shape
    onehot = ad.one_hot(labels, num_classes)
    phi_y = ad.tsum(ad.mul(logits_t, onehot), axis=1, keepdims=True)
    margins = ad.sub(phi_y, logits_t)
    z = ad.sub(margins, ad.constant(np.exp(-alpha)))
    upper = ad.maximum(ad.sub(z, ad.constant(delta)), 0.0)
    lower = ad.minimum(z, 0.0)
    mask = ad.constant(second_place_mask(logits_t.value, labels))
    per_pair = ad.mul(mask, ad.sub(upper, lower))
    return ad.mul(ad.tsum(per_pair), ad.constant(1.0 / m))


def _duality_grads(logits, own, alpha, delta):
    """Numpy L_dual with its gradient in the logits.

    ``own`` holds the flat indices of the true-class logits
    (:func:`_own_indices`).
    """
    m = own.size
    threshold = np.exp(-alpha)
    z = logits.take(own)[:, None] - logits
    z -= threshold
    z_hi = z - delta
    mask = _second_place(logits, own)
    per_pair = mask * (np.maximum(z_hi, 0.0) - np.minimum(z, 0.0))
    l_dual = float(np.add.reduce(per_pair, axis=None) * (1.0 / m))
    # ties get derivative 0 on both sides of the band, as in the graph
    dz = mask * np.subtract(z_hi > 0.0, z < 0.0, dtype=np.float64)
    dz *= 1.0 / m
    dlogits = np.negative(dz)
    dlogits.put(own, dlogits.take(own) + np.add.reduce(dz, axis=1))
    return l_dual, dlogits


def stationarity_target(params, lbar_weights, virtual_n):
    """(1/N) Lbar zeta as one flat vector in group order.

    The side of the stationarity condition that only the classifier and
    alpha fix, so a training loop computes it once per run.
    """
    return np.concatenate([params.group(name)
                           * (lbar_weights[name] / virtual_n)
                           for name in params.groups])


def kkt_loss_grads(zeta, target, x, labels, mu, alpha, delta, beta):
    """L_stat + beta * L_dual on a batch, with gradients in x and mu.

    ``zeta`` is the classifier's :class:`models.BoundMlp` and ``target``
    its :func:`stationarity_target`; ``labels`` must be in range.  The
    closed-form numpy counterpart of :func:`stationarity_loss_graph`
    plus :func:`duality_loss`, which stay the reference it is tested
    against.  With coefficient matrix ``coeff(mu)`` and S = sum coeff *
    Phi(x), one backprop gives grad_zeta S and the residual r; the
    gradient of L_stat in grad_zeta S is the parameter tangent
    V = -r / (M L_stat).  A tangent forward along V gives dL_stat/dcoeff,
    and injecting delta_l V_l^T at each layer input on a backprop that
    also carries the duality cotangent gives the x gradient (the ReLU
    masks are locally constant).  Returns (l_stat, l_dual, dx, dmu); dx
    is the gradient of the weighted sum, dmu of L_stat.  dx is
    ``zeta``'s input-cotangent buffer, which the next call overwrites.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    m = labels.size
    logits = zeta.forward(x)
    own = _own_indices(labels, logits.shape[1])
    not_y = np.ones_like(mu)
    not_y.put(own, 0.0)
    mu_rivals = mu * not_y
    coeff = np.negative(mu_rivals)
    coeff.put(own, np.add.reduce(mu_rivals, axis=1))
    deltas = zeta.backprop(coeff)
    g = zeta.param_grad(deltas)
    g *= 1.0 / m
    r = np.subtract(target, g, out=g)
    l_stat = math.sqrt(r.dot(r) + NORM_EPS)
    np.multiply(r, -1.0 / (m * l_stat), out=zeta.tangent)
    dcoeff = zeta.jvp()
    dmu = dcoeff.take(own)[:, None] - dcoeff
    dmu *= not_y
    l_dual, dlogits = _duality_grads(logits, own, alpha, delta)
    dlogits *= beta
    # the second backprop overwrites ``deltas``, which inject is made of
    inject = zeta.tangent_inject(deltas)
    dx = zeta.input_cotangent(zeta.backprop(dlogits, inject), inject)
    return l_stat, l_dual, dx, dmu


def margins_np(spec, zeta, x, labels):
    """Numpy margins Phi_y - Phi_c, zero in the true-class column."""
    logits = mlp_apply_np(spec, zeta, x)
    phi_y = logits[np.arange(len(labels)), labels][:, None]
    return phi_y - logits


def kkt_residual_oracle(spec, zeta, profile, x, labels, alpha):
    """Fit nonnegative multipliers on labeled data; report the residual.

    Multipliers are restricted to second-place (i, c) pairs.  Returns the
    normalized residual ||Lbar zeta - G mu|| / ||Lbar zeta|| and the fitted
    mu as {(i, c): value}.  Column (i, c) of G is the margin gradient
    grad_zeta (Phi_{y_i} - Phi_c)(x_i); all columns come from one forward
    and one backprop over the pair rows.  The fit does not check that the
    classifier separates the data, the premise of the max-margin
    conditions: on shuffled labels it serves as a control, where
    stationarity should NOT be satisfiable.
    """
    mlp = spec.mlp()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    logits = mlp_apply_np(mlp, zeta, x)
    mask = second_place_mask(logits, labels)
    target = stationarity_target(zeta, lambda_bar(profile, alpha), 1)
    rows, classes = np.nonzero(mask)
    pair_rows = np.arange(rows.size)
    dlogits = np.zeros((rows.size, mlp.out_dim))
    dlogits[pair_rows, labels[rows]] = 1.0
    dlogits[pair_rows, classes] = -1.0
    net = BoundMlp(mlp, zeta, batch=(rows.size,))
    net.forward(x[rows, None, :])
    g = net.param_grad(net.backprop(dlogits[:, None, :])).T
    mu, rnorm = nnls(g, target)
    residual = float(rnorm / (np.linalg.norm(target) + NORM_EPS))
    pairs = [(int(i), int(c)) for i, c in zip(rows, classes)]
    return residual, dict(zip(pairs, mu))
