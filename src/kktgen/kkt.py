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

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import autodiff as ad
from .autodiff import Tensor
from .homogeneity import lambda_bar
from .models import (ParameterVector, classifier_param_gradient,
                     layer_weight, make_leaves, mlp_apply, mlp_apply_np,
                     mlp_backprop, mlp_forward, mlp_param_grad,
                     mlp_param_jvp, spec_group_shapes)

DEFAULT_TIE_TOL = 1e-6
NORM_EPS = 1e-12


@dataclass
class GeneratedBatch:
    """A batch of generated samples with their conditioning labels."""

    x: np.ndarray  # (M, d)
    labels: np.ndarray  # (M,)
    classifier_indices: np.ndarray | None = None
    noise_seed: int | None = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.x.shape[0] != self.labels.size or self.x.shape[0] < 1:
            raise ValueError("batch needs >= 1 sample with matching labels")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite sample in generated batch")

    @property
    def size(self):
        return self.x.shape[0]


@dataclass
class KktEvaluation:
    """Per-batch margins, multipliers and loss values."""

    margins: np.ndarray  # (M, C): Phi_y - Phi_c
    second_place_sets: list
    multipliers: np.ndarray  # (M, C), zero at c = y
    stationarity_residual: np.ndarray  # flat, length |zeta|
    stationarity_loss: float
    duality_loss: float
    total_loss: float
    extras: dict = field(default_factory=dict)

    def to_record(self):
        """Flat key/value view for one CSV row."""
        rec = {
            "stationarity_loss": self.stationarity_loss,
            "duality_loss": self.duality_loss,
            "total_loss": self.total_loss,
            "residual_norm": float(
                np.linalg.norm(self.stationarity_residual)),
            "min_margin": float(self.margins[self.margins != 0.0].min())
            if np.any(self.margins != 0.0) else 0.0,
            "max_multiplier": float(self.multipliers.max(initial=0.0)),
        }
        rec.update(self.extras)
        return rec


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


def multipliers_from_proxy(proxy):
    """mu = relu(mu'); keeps dual feasibility by construction."""
    if isinstance(proxy, Tensor):
        return ad.relu(proxy)
    return np.maximum(np.asarray(proxy, dtype=np.float64), 0.0)


def _weighted_logit_sum(logits, labels, mu, num_classes):
    """sum_i sum_{c != y_i} mu_ic (Phi_{y_i} - Phi_c) as one graph scalar.

    Rewriting the double sum as a coefficient matrix against the logits
    lets one backward pass produce the full weighted gradient combination.
    """
    m = labels.size
    onehot = ad.one_hot(labels, num_classes)
    not_y = ad.constant(1.0 - onehot.value)
    mu_rivals = ad.mul(mu, not_y)
    row_tot = ad.tsum(mu_rivals, axis=1, keepdims=True)
    coeff = ad.sub(ad.mul(row_tot, onehot), mu_rivals)
    del m
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


def stationarity_loss(spec, zeta, lbar_weights, virtual_n, batch, mu):
    """Spec-level wrapper building its own graph; returns a scalar tensor."""
    if virtual_n < 1:
        raise ValueError("virtual dataset size must be >= 1")
    leaves = make_leaves(spec, zeta)
    mu_t = mu if isinstance(mu, Tensor) else ad.tensor(mu)
    x_t = ad.tensor(batch.x)
    loss, _ = stationarity_loss_graph(spec, leaves, lbar_weights, virtual_n,
                                      x_t, batch.labels, mu_t)
    return loss


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


def total_loss(l_stat, l_dual, beta):
    """L = L_stationarity + beta * L_duality."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if isinstance(l_stat, Tensor) or isinstance(l_dual, Tensor):
        l_stat = l_stat if isinstance(l_stat, Tensor) else ad.constant(l_stat)
        l_dual = l_dual if isinstance(l_dual, Tensor) else ad.constant(l_dual)
        return ad.add(l_stat, ad.mul(l_dual, ad.constant(beta)))
    return l_stat + beta * l_dual


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
    mu as {(i, c): value}.  ``require_separation=False`` skips the
    positive-margin check so the fit can serve as a control on shuffled
    labels, where stationarity should NOT be satisfiable.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    margins = margins_np(spec, zeta, x, labels)
    rival = np.ones_like(margins, dtype=bool)
    rival[np.arange(len(labels)), labels] = False
    if require_separation and np.min(margins[rival]) <= 0.0:
        raise ValueError("classifier does not separate the data; the "
                         "max-margin conditions do not apply")
    lbar = lambda_bar(profile, alpha)
    target = np.concatenate(
        [lbar[name] * zeta.group(name) for name in zeta.groups])
    logits = mlp_apply_np(spec, zeta, x)
    pairs, columns = [], []
    for i, (xi, y) in enumerate(zip(x, labels)):
        gy, _, _ = classifier_param_gradient(spec, zeta, xi, int(y))
        for c in sorted(second_place_set(logits[i], int(y), tie_tol)):
            gc, _, _ = classifier_param_gradient(spec, zeta, xi, int(c))
            pairs.append((i, int(c)))
            columns.append(gy - gc)
    g = np.array(columns).T
    mu, _ = scipy.optimize.nnls(g, target)
    residual = float(np.linalg.norm(target - g @ mu)
                     / (np.linalg.norm(target) + NORM_EPS))
    return residual, dict(zip(pairs, mu))


def q_min(spec, zeta_bar, x, labels):
    """Minimum margin of the normalized classifier over a dataset."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    labels = np.asarray(labels, dtype=np.int64)
    margins = margins_np(spec, zeta_bar, x, labels)
    rival = np.ones_like(margins, dtype=bool)
    rival[np.arange(len(labels)), labels] = False
    return float(np.min(margins[rival]))


def evaluate_batch(spec, zeta, profile, alpha, batch, mu, virtual_n, beta,
                   delta, tie_tol=DEFAULT_TIE_TOL):
    """Full KktEvaluation of a batch under fixed multipliers."""
    mu_arr = multipliers_from_proxy(np.asarray(mu, dtype=np.float64))
    lbar = lambda_bar(profile, alpha)
    leaves = make_leaves(spec, zeta)
    x_t = ad.tensor(batch.x)
    l_stat, logits = stationarity_loss_graph(
        spec, leaves, lbar, virtual_n, x_t, batch.labels, ad.tensor(mu_arr))
    l_dual = duality_loss(logits, batch.labels, float(alpha), delta,
                          tie_tol)
    margins = margins_np(spec, zeta, batch.x, batch.labels)
    sets = [second_place_set(row, int(y), tie_tol)
            for row, y in zip(mlp_apply_np(spec, zeta, batch.x),
                              batch.labels)]
    mu_clean = mu_arr.copy()
    mu_clean[np.arange(batch.size), batch.labels] = 0.0
    names = [name for name, _ in spec_group_shapes(spec)]
    target = np.concatenate([lbar[n] * zeta.group(n) / virtual_n
                             for n in names])
    s = _weighted_logit_sum(mlp_apply(spec, leaves, ad.tensor(batch.x)),
                            batch.labels, ad.tensor(mu_arr),
                            margins.shape[1])
    grads = ad.grad(s, [leaves[n] for n in names], allow_unused=True)
    avg = np.concatenate([g.value.reshape(-1) for g in grads]) / batch.size
    lstat_v = float(l_stat.value)
    ldual_v = float(l_dual.value)
    return KktEvaluation(
        margins=margins,
        second_place_sets=sets,
        multipliers=mu_clean,
        stationarity_residual=target - avg,
        stationarity_loss=lstat_v,
        duality_loss=ldual_v,
        total_loss=lstat_v + beta * ldual_v,
        extras={"alpha": float(alpha), "beta": beta, "delta": delta},
    )
