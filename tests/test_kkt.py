"""Unit tests for the KKT losses and the residual oracle."""

import numpy as np
import pytest

import kktgen.autodiff as ad
import kktgen.kkt as kk
import kktgen.models as km
from kktgen.homogeneity import QuasiHomogeneousProfile, lambda_bar
from kktgen.models import MlpSpec, ParameterVector


def linear_pair_classifier(a=1.0):
    """1-layer bias-free 2-class net: logit0 = a*x0, logit1 = -a*x0.

    With data x = (+1, 0) labeled 0 and x = (-1, 0) labeled 1 this is a
    max-margin KKT point: the margin gradients of both points coincide,
    so one nonnegative multiplier reproduces Lbar zeta exactly.
    """
    spec = MlpSpec((2, 2), False)
    zeta = ParameterVector.zeros_for(spec)
    zeta.group("layer0.weight")[:] = np.array([[a, -a], [0.0, 0.0]]).ravel()
    profile = QuasiHomogeneousProfile({"layer0.weight": 1.0})
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([0, 1])
    return spec, zeta, profile, x, labels


def second_place_set(logits, y):
    """Rival classes within the tie tolerance of the best non-true logit:
    the per-row reference of ``second_place_mask``."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.size
    if n < 2:
        raise ValueError("second-place set needs at least two classes")
    if not 0 <= y < n:
        raise ValueError(f"label {y} out of range")
    rivals = [c for c in range(n) if c != y]
    best = max(logits[c] for c in rivals)
    return {c for c in rivals if logits[c] >= best - kk.DEFAULT_TIE_TOL}


def test_second_place_set_basic_and_ties():
    logits = np.array([5.0, 3.0, 3.0 - 1e-9, 1.0])
    assert second_place_set(logits, 0) == {1, 2}
    assert second_place_set(logits, 1) == {0}
    assert np.array_equal(kk.second_place_mask(logits, np.array([0])),
                          [[0, 1, 1, 0]])
    with pytest.raises(ValueError, match="at least two"):
        kk.second_place_mask(np.array([[1.0]]), np.array([0]))
    with pytest.raises(ValueError, match="in-range"):
        kk.second_place_mask(logits, np.array([4]))


def test_second_place_mask_batch():
    logits = np.array([[3.0, 2.0, 1.0], [0.0, 5.0, 5.0]])
    mask = kk.second_place_mask(logits, np.array([0, 1]))
    assert np.array_equal(mask, [[0, 1, 0], [0, 0, 1]])


def test_second_place_mask_matches_set_definition():
    """Row-wise mask equals the reference set on ties and gaps of
    exactly the tie tolerance."""
    rng = np.random.default_rng(0)
    tol = kk.DEFAULT_TIE_TOL
    logits = rng.standard_normal((300, 4))
    labels = rng.integers(0, 4, size=300)
    rows = np.arange(300)
    for i in range(0, 300, 3):  # exact ties, gaps of exactly tol
        rivals = [c for c in range(4) if c != labels[i]]
        best = max(logits[i, c] for c in rivals)
        logits[i, rivals[0]] = best
        logits[i, rivals[1]] = best - tol if i % 2 else best
        logits[i, rivals[2]] = np.nextafter(best - tol, -np.inf)
    logits[rows[::7], labels[::7]] = logits[rows[::7]].max(axis=1)
    mask = kk.second_place_mask(logits, labels)
    want = np.zeros_like(logits)
    for i, (row, y) in enumerate(zip(logits, labels)):
        want[i, list(second_place_set(row, int(y)))] = 1.0
    assert np.array_equal(mask, want)
    with pytest.raises(ValueError, match="in-range"):
        kk.second_place_mask(logits[:2], np.array([0, 4]))


def test_margins_np_true_class_column_zero():
    spec, zeta, _, x, labels = linear_pair_classifier()
    margins = kk.margins_np(spec, zeta, x, labels)
    assert np.array_equal(margins[np.arange(2), labels], [0.0, 0.0])
    assert margins[0, 1] == pytest.approx(2.0)
    assert margins[1, 0] == pytest.approx(2.0)


def test_duality_loss_pointwise_values():
    """Margins below/inside/above the band give the exact U-shape values."""
    alpha, delta = 0.0, 0.1
    threshold = np.exp(-alpha)
    for margin, want in ((threshold - 0.1, 0.1),
                         (threshold + delta / 2, 0.0),
                         (threshold + delta + 0.2, 0.2)):
        logits = np.array([[margin, 0.0]])
        loss = kk.duality_loss(logits, np.array([0]), alpha, delta)
        assert abs(loss.item() - want) < 1e-12


def duality_terms(logits, labels, alpha, delta):
    """L_dual and its logit gradient as :class:`kkt.KktTerms` computes
    them: its classifier is the identity on C inputs, so the logits are
    the inputs and the input gradient at beta = 1 is the logit gradient.
    Every multiplier is 0, so the stationarity term injects nothing."""
    m, num_classes = logits.shape
    spec = MlpSpec((num_classes, num_classes), False)
    zeta = ParameterVector.zeros_for(spec)
    zeta.group("layer0.weight")[:] = np.eye(num_classes).ravel()
    kkt = kk.KktTerms(km.BoundMlp(spec, zeta), np.zeros(len(zeta)), m,
                      alpha, delta, 1.0)
    _, l_dual, dx, _ = kkt(logits, labels, np.zeros((m, num_classes)))
    return l_dual, dx


def test_duality_grads_pointwise_values_and_slopes():
    """The numpy duality loss the generator step trains with gives the
    U-shape values below/inside/above the band, with margin slope -1, 0
    and 1 there."""
    alpha, delta = 0.0, 0.1
    threshold = np.exp(-alpha)
    for margin, want, slope in ((threshold - 0.1, 0.1, -1.0),
                                (threshold + delta / 2, 0.0, 0.0),
                                (threshold + delta + 0.2, 0.2, 1.0)):
        logits = np.array([[margin, 0.0]])
        value, dlogits = duality_terms(logits, np.array([0]), alpha, delta)
        assert abs(value - want) < 1e-12
        assert np.array_equal(dlogits, [[slope, -slope]])


def test_kkt_terms_refuse_a_band_of_no_width():
    spec, zeta, _, _, _ = linear_pair_classifier()
    for delta in (0.0, -0.1):
        with pytest.raises(ValueError, match="delta must be positive"):
            kk.KktTerms(km.BoundMlp(spec, zeta), np.zeros(len(zeta)), 2,
                        0.0, delta, 3.0)


def test_duality_loss_counts_only_second_place_pairs():
    # class 2 logit is far below: only the (0 vs 1) margin is penalized
    logits = np.array([[1.0, 0.9, -5.0]])
    loss = kk.duality_loss(logits, np.array([0]), alpha=0.0, delta=0.1)
    assert loss.item() == pytest.approx(np.exp(0.0) - 0.1)


def test_duality_loss_rejects_bad_delta():
    with pytest.raises(ValueError, match="delta"):
        kk.duality_loss(np.zeros((1, 2)), np.array([0]), 0.0, 0.0)


def stationarity_loss(spec, zeta, lbar, virtual_n, x, labels, mu):
    """The stationarity graph on constant samples and multipliers."""
    loss, _ = kk.stationarity_loss_graph(spec, km.make_leaves(spec, zeta),
                                         lbar, virtual_n, ad.tensor(x),
                                         labels, ad.tensor(mu))
    return loss


def test_stationarity_loss_zero_multipliers():
    """With mu = 0 the loss is the norm of the weighted-parameter target."""
    spec, zeta, profile, x, labels = linear_pair_classifier()
    lbar = lambda_bar(profile, alpha=0.0)
    mu = np.zeros((2, 2))
    loss = stationarity_loss(spec, zeta, lbar, 2, x, labels, mu)
    want = np.linalg.norm(zeta.values / 2.0)
    assert loss.item() == pytest.approx(want, rel=1e-6)


def test_stationarity_loss_exact_kkt_point_reaches_zero():
    """The linear pair admits multipliers that zero the residual."""
    spec, zeta, profile, x, labels = linear_pair_classifier(a=1.0)
    lbar = lambda_bar(profile, alpha=0.0)
    # target per point: Lbar zeta / N = zeta / 2.  Each point's margin
    # gradient (grad Phi_y - grad Phi_c) equals [[1,-1],[0,0]], while
    # zeta = [[1,-1],[0,0]]: mu = 1/2 per pair (M = 2 rescales by 1/M).
    mu = np.zeros((2, 2))
    mu[0, 1] = 0.5
    mu[1, 0] = 0.5
    loss = stationarity_loss(spec, zeta, lbar, 2, x, labels, mu)
    assert loss.item() < 1e-5


def test_stationarity_loss_gradient_flows_to_samples():
    spec = MlpSpec((2, 4, 3), False)
    zeta = km.init_kaiming(spec, seed=0)
    profile = QuasiHomogeneousProfile(
        {name: 0.5 for name in zeta.groups})
    lbar = lambda_bar(profile, 0.0)
    x = ad.tensor(np.random.default_rng(1).standard_normal((4, 2)))
    labels = np.array([0, 1, 2, 0])
    mu = ad.tensor(np.full((4, 3), 0.3))
    leaves = km.make_leaves(spec, zeta)
    loss, _ = kk.stationarity_loss_graph(spec, leaves, lbar, 4, x, labels,
                                         mu)
    gx, gmu = ad.grad(loss, [x, mu], allow_unused=True)
    assert np.any(gx.value != 0.0)
    assert np.any(gmu.value != 0.0)


def test_stationarity_loss_rejects_nonfinite_samples():
    spec, zeta, profile, x, labels = linear_pair_classifier()
    leaves = km.make_leaves(spec, zeta)
    bad = ad.constant(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="non-finite generated sample"):
        kk.stationarity_loss_graph(spec, leaves, lambda_bar(profile, 0.0),
                                   2, bad, np.array([0]),
                                   ad.tensor(np.zeros((1, 2))))


def test_kkt_residual_oracle_exact_point():
    spec, zeta, profile, x, labels = linear_pair_classifier()
    residual, mu = kk.kkt_residual_oracle(spec, zeta, profile, x, labels,
                                          alpha=0.0)
    assert residual < 1e-10
    assert set(mu) == {(0, 1), (1, 0)}
    assert all(v >= 0 for v in mu.values())


def test_kkt_residual_oracle_fits_flipped_labels():
    """The oracle only fits: on labels the classifier does not separate
    it reports a residual, a control, and ``evaluate`` checks the
    premise before it calls the oracle."""
    spec, zeta, profile, x, labels = linear_pair_classifier()
    flipped = labels[::-1].copy()
    residual, _ = kk.kkt_residual_oracle(spec, zeta, profile, x, flipped,
                                         alpha=0.0)
    assert residual > 0.5  # flipped labels cannot satisfy stationarity
