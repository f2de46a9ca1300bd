"""Losses and diagnostics built from the max-margin KKT conditions.

The stationarity loss measures how far the rescaled stationarity condition

    (1/N) Lbar zeta  =  (1/M) sum_i sum_{c != y_i}
                        mu_ic [grad Phi_{y_i}(x_i) - grad Phi_c(x_i)]

is from holding over a generated batch; the duality loss pushes every
second-place margin into the band [e^{-alpha}, e^{-alpha} + delta].  The
NNLS oracle checks the same stationarity system on real labeled data with
freely fitted nonnegative multipliers.  Both losses exist twice: as
autodiff graphs, the reference, and in closed form with their gradients
(:class:`KktTerms`, bound once per classifier and run), which the
generator step uses.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .homogeneity import lambda_bar
from .kernels import nnls, operand
from .models import _ZERO, BoundMlp, mlp_apply, mlp_apply_np

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


def stationarity_target(params, lbar_weights, virtual_n):
    """(1/N) Lbar zeta as one flat vector in group order.

    The side of the stationarity condition that only the classifier and
    alpha fix, so a training loop computes it once per run.
    """
    return np.concatenate([params.group(name)
                           * (lbar_weights[name] / virtual_n)
                           for name in params.groups])


class KktTerms:
    """L_stat + beta * L_dual of one classifier on generated batches of
    ``m`` rows, with their gradients in x and in the multiplier network's
    output before its ReLU, and every buffer bound once per run.

    ``zeta`` is the classifier's :class:`models.BoundMlp` and ``target``
    its :func:`stationarity_target`; alpha, delta and beta are fixed for
    the binding, and delta <= 0 is refused here.  The closed-form numpy
    counterpart of :func:`stationarity_loss_graph` plus
    :func:`duality_loss`, which stay the reference it is tested against.
    With coefficient matrix ``coeff(mu)`` and S = sum coeff * Phi(x), one
    backprop gives grad_zeta S and the residual r; the gradient of L_stat
    in grad_zeta S is the parameter tangent V = -r / (M L_stat).  A
    tangent forward along V gives dL_stat/dcoeff, and injecting delta_l
    V_l^T at each layer input on a backprop that also carries the duality
    cotangent gives the x gradient (the ReLU masks are locally constant).

    A batch with no positive rival multiplier is idle: every coefficient
    is 0 (complementary slackness puts most batches there on some runs),
    so r is the target, dL_stat/dmu is 0 and the injections are 0.  An
    idle call runs only the classifier forward and the duality terms
    and their backprop, with no injection; L_stat is the one bound
    from the target with the dot a busy call takes, and dmu is +0.0.
    Only zeros may differ in sign from the busy path's.  ``idle`` says
    whether the latest call was idle.

    What does not change within a run is bound once: the classifier's
    binding and target, exp(-alpha), delta, beta, 1/M and the tie
    tolerance as 0-d operands, the flat row offsets, and every (M, C) and
    (M,) buffer, the float masks included.  The terms are worked on
    class-major, (C, M): a row maximum or row sum is then a reduction over
    the leading axis, C rows of M.  A row sum adds the classes one after
    another, in class order, which is numpy's order for a row sum over
    fewer than 8 classes; from 8 on numpy adds them pairwise.  The
    row-major inputs and outputs move by copies, and a per-row value is
    copied into every class row or taken by the flat own-class indices,
    because a ufunc given a transposed or broadcast operand allocates an
    iteration buffer, where ``np.copyto`` allocates none.
    L_dual is the sum over the row-major (M, C) pair losses, as numpy
    makes it.  So after the first call, which binds the classifier's pass
    buffers, a call on a bias-free classifier allocates no array data.
    """

    def __init__(self, zeta, target, m, alpha, delta, beta):
        if delta <= 0:
            raise ValueError("delta must be positive")
        c = zeta.mlp.out_dim
        self.zeta, self.target = zeta, target
        self.m, self.inv_m_float = m, 1.0 / m
        (self.threshold, self.delta, self.beta, self.neg_beta, self.inv_m,
         self.tol) = (operand(v) for v in (np.exp(-alpha), delta, beta,
                                           -beta, 1.0 / m, DEFAULT_TIE_TOL))
        # the tangent's scale and the two scalar sums, rewritten per call
        self.scale, self.sq_norm, self.dual_sum = (np.empty(())
                                                   for _ in range(3))
        # L_stat where every coefficient is 0, by the dot of a busy call
        self.idle_l_stat = math.sqrt(
            target.dot(target, out=self.sq_norm).item() + NORM_EPS)
        self.idle = False
        # own[c, i] = i C + y_i, the flat index of entry (i, y_i) of an
        # (M, C) array, in every class row
        self.row_base = np.tile(np.arange(m) * c, (c, 1))
        self.labels_cm = np.empty((c, m), dtype=np.int64)
        self.own = np.empty((c, m), dtype=np.int64)
        self.own_rows = self.own[0]
        # column y of the table: 1.0 in the rows of the rivals of label y,
        # then -inf in the row of y and 0.0 in theirs.  A take by the
        # labels gives the class-major rival mask, then the addend that
        # takes the own class out of the row maximum
        eye = np.eye(c, dtype=bool)
        self.label_table = np.concatenate([np.where(eye, 0.0, 1.0),
                                           np.where(eye, -np.inf, 0.0)])
        self.label_cols = np.empty((2 * c, m))
        self.not_y, self.own_inf = self.label_cols[:c], self.label_cols[c:]
        self.sums = np.empty(m)
        # row-major: the coefficients, the logit and multiplier gradients,
        # the pair losses
        self.coeff, self.dlogits, self.dmu, self.pairs = (
            np.empty((m, c)) for _ in range(4))
        # class-major
        (self.mu, self.keep, self.logits_cm, self.dcoeff_cm, self.z, self.e,
         self.mask, self.work) = (np.empty((c, m)) for _ in range(8))
        self.bools = np.empty((c, m), dtype=bool)

    def __call__(self, x, labels, mu_pre):
        """(l_stat, l_dual, dx, dmu) at generated ``x`` with in-range
        ``labels`` and multipliers ReLU(``mu_pre``): dx is the gradient of
        the weighted sum, dmu that of L_stat in ``mu_pre``.  dx and dmu are
        the binding's buffers, which the next call overwrites; ``idle``
        says whether this call found no positive rival multiplier."""
        zeta, own, own_rows = self.zeta, self.own, self.own_rows
        sums, not_y, mu, keep = self.sums, self.not_y, self.mu, self.keep
        z, e, mask, bools, work = (self.z, self.e, self.mask, self.bools,
                                   self.work)
        coeff, dlogits, logits_cm = self.coeff, self.dlogits, self.logits_cm
        np.copyto(self.labels_cm, labels)
        np.add(self.row_base, self.labels_cm, out=own)
        # "clip" only skips a buffered copy; every index is in range
        self.label_table.take(labels, axis=1, out=self.label_cols,
                              mode="clip")
        # the rival multipliers; ``keep``, where one is positive, is the
        # product of the rival mask and the ReLU mask
        np.copyto(mu, mu_pre.T)
        np.maximum(mu, _ZERO, out=mu)
        mu *= not_y
        np.greater(mu, _ZERO, out=bools)
        self.idle = not np.count_nonzero(bools)

        logits = zeta.forward(x)
        if self.idle:
            # every coefficient is 0, so r is the target and inject is 0
            l_stat, inject = self.idle_l_stat, None
            self.dmu.fill(0.0)
        else:
            np.copyto(keep, bools)
            # the coefficients: -mu on the rivals, their row sum on the
            # own class
            np.copyto(coeff, mu.T)
            np.negative(coeff, out=coeff)
            np.add.reduce(mu, axis=0, out=sums)
            coeff.put(own_rows, sums)
            deltas = zeta.backprop(coeff)
            g = zeta.param_grad(deltas)
            g *= self.inv_m
            r = np.subtract(self.target, g, out=g)
            l_stat = math.sqrt(r.dot(r, out=self.sq_norm).item()
                               + NORM_EPS)
            self.scale[()] = -1.0 / (self.m * l_stat)
            np.multiply(r, self.scale, out=zeta.tangent)
            dcoeff = zeta.jvp()
            np.copyto(self.dcoeff_cm, dcoeff.T)
            dcoeff.take(own, out=work, mode="clip")
            work -= self.dcoeff_cm
            work *= keep
            np.copyto(self.dmu, work.T)
            # the duality backprop below overwrites ``deltas``, which
            # inject is made of
            inject = zeta.tangent_inject(deltas)

        # the second-place mask: the rival logits within the tie tolerance
        # of the best one.  A finite logit plus 0.0 compares as itself;
        # with a non-finite logit L_dual is not finite
        np.copyto(logits_cm, logits.T)
        np.add(logits_cm, self.own_inf, out=work)
        np.maximum.reduce(work, axis=0, out=sums)
        sums -= self.tol
        np.copyto(z, sums)
        np.greater_equal(work, z, out=bools)
        np.copyto(mask, bools)
        # z, the margins less e^-alpha, and e = z - clip(z, 0, delta), its
        # signed distance outside the band: the pair's loss is |e|, which
        # is e sign(e), and its slope sign(e), 0 at both band edges as in
        # the graph
        logits.take(own, out=z, mode="clip")
        z -= logits_cm
        z -= self.threshold
        np.maximum(z, _ZERO, out=e)
        np.minimum(e, self.delta, out=e)
        np.subtract(z, e, out=e)
        np.sign(e, out=work)
        work *= mask
        np.multiply(e, work, out=z)
        np.copyto(self.pairs, z.T)
        l_dual = (np.add.reduce(self.pairs, axis=None, out=self.dual_sum)
                  .item() * self.inv_m_float)
        work *= self.inv_m
        # the own-class entries of the slopes are zeros, so the own-class
        # entry of the logit gradient is beta times their row sum
        np.copyto(dlogits, work.T)
        dlogits *= self.neg_beta
        np.add.reduce(work, axis=0, out=sums)
        sums *= self.beta
        dlogits.put(own_rows, sums)
        dx = zeta.input_cotangent(zeta.backprop(dlogits, inject), inject)
        return l_stat, l_dual, dx, self.dmu


def margins_np(spec, zeta, x, labels):
    """Numpy margins Phi_y - Phi_c, zero in the true-class column."""
    logits = mlp_apply_np(spec, zeta, x)
    phi_y = logits[np.arange(len(labels)), labels][:, None]
    return phi_y - logits


class _PairJacobian:
    """The oracle's G as a linear operator for :func:`kernels.nnls`, with
    no pairs-by-parameters array: the classifier bound to the pair rows
    ``x`` as one 2-d batch, and bound again to one row.

    With ``dlogits`` the pairs' +-1 logit cotangents, G v is the
    parameter gradient of one backprop of ``dlogits`` with row j scaled
    by v_j, and G^T r the row sums of the tangent forward along r times
    ``dlogits``.  Column j, pair j's margin gradient, is a forward,
    backprop and parameter gradient of its row alone, the pass per pair
    that gave the columns when G was formed: a matrix product over the
    batch rounds a row otherwise than the product of that row alone.
    """

    def __init__(self, mlp, zeta, x, dlogits):
        self.net = BoundMlp(mlp, zeta)
        self.net.forward(x)
        self.x, self.dlogits = x, dlogits
        self.shape = (len(zeta), len(dlogits))
        self.dout = np.empty_like(dlogits)
        self.terms = np.empty_like(dlogits)
        self.pair = BoundMlp(mlp, zeta)
        self.pair_x, self.pair_dout = x[:1].copy(), dlogits[:1].copy()

    def matvec(self, v):
        """G v, in the batch binding's gradient buffer."""
        np.multiply(self.dlogits, v[:, None], out=self.dout)
        return self.net.param_grad(self.net.backprop(self.dout))

    def rmatvec(self, r):
        """G^T r, a new array."""
        np.copyto(self.net.tangent, r)
        np.multiply(self.net.jvp(), self.dlogits, out=self.terms)
        return np.add.reduce(self.terms, axis=1)

    def column(self, j):
        """Column j, a new array."""
        pair = self.pair
        np.copyto(self.pair_x[0], self.x[j])
        np.copyto(self.pair_dout[0], self.dlogits[j])
        pair.forward(self.pair_x)
        return pair.param_grad(pair.backprop(self.pair_dout)).copy()


def kkt_residual_oracle(spec, zeta, profile, x, labels, alpha):
    """Fit nonnegative multipliers on labeled data; report the residual.

    Multipliers are restricted to second-place (i, c) pairs.  Returns the
    normalized residual ||Lbar zeta - G mu|| / ||Lbar zeta|| and the fitted
    mu as {(i, c): value}.  Column (i, c) of G is the margin gradient
    grad_zeta (Phi_{y_i} - Phi_c)(x_i).  G is not formed: NNLS takes it
    as the classifier bound to the pair rows (:class:`_PairJacobian`),
    where G mu is a backprop of the margin cotangents scaled by mu, G^T r
    a tangent forward along r, and a column one pass over its pair's row.
    So no pairs-by-parameters array is held, and the solve's memory
    grows only with the columns that enter.  The fit does not check that
    the classifier separates the data, the premise of the max-margin
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
    g = _PairJacobian(mlp, zeta, x[rows], dlogits)
    mu, rnorm = nnls(g, target)
    residual = float(rnorm / (np.linalg.norm(target) + NORM_EPS))
    pairs = [(int(i), int(c)) for i, c in zip(rows, classes)]
    return residual, dict(zip(pairs, mu))
