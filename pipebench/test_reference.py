"""Tests of the benchmark's numpy yardstick.

    python3 -m pytest pipebench -q

The checks in ``checks.py`` are only as good as these functions, so each
is tested against finite differences or a hand-worked case.
"""

import math

import numpy as np
import pytest

import reference as ref


def random_net(rng, widths, bias):
    return [(rng.standard_normal((a, b)) / math.sqrt(a),
             rng.standard_normal(b) * 0.1 if bias else None)
            for a, b in zip(widths[:-1], widths[1:])]


def central_difference(fn, flat, h=1e-6):
    out = np.zeros_like(flat)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        out[i] = (fn(flat + e) - fn(flat - e)) / (2 * h)
    return out


@pytest.mark.parametrize("bias", [False, True])
def test_backward_matches_central_differences(bias):
    rng = np.random.default_rng(0)
    layers = random_net(rng, (3, 5, 4, 3), bias)
    x = rng.standard_normal((7, 3))
    dlogits = rng.standard_normal((7, 3))
    _, cache = ref.forward(layers, x)
    analytic = ref.flatten(ref.backward(layers, cache, dlogits))

    def objective(flat):
        logits, _ = ref.forward(ref.unflatten(layers, flat), x)
        return float(np.sum(dlogits * logits))

    numeric = central_difference(objective, ref.flatten(layers))
    assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_margin_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    layers = random_net(rng, (2, 6, 6, 3), False)
    x = rng.standard_normal(2)
    analytic = ref.margin_gradient(layers, x, 2, 0)

    def margin(flat):
        logits, _ = ref.forward(ref.unflatten(layers, flat), x[None])
        return float(logits[0, 2] - logits[0, 0])

    numeric = central_difference(margin, ref.flatten(layers))
    assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_flatten_round_trips():
    rng = np.random.default_rng(2)
    layers = random_net(rng, (2, 3, 2), True)
    back = ref.unflatten(layers, ref.flatten(layers))
    for (w, b), (w2, b2) in zip(layers, back):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)


def test_nnls_residual_vanishes_on_a_stationary_point():
    # Linear two-class model: the margin gradient of point i is
    # x_i (e_y - e_c)^T, so W built as a nonnegative combination of them,
    # divided by the weight e^alpha of its single group, is stationary.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    labels = np.array([0, 1, 0, 1, 0, 1])
    mu = rng.random(6)
    alpha = 0.7
    w = np.zeros((4, 2))
    for i, y in enumerate(labels):
        w[:, y] += mu[i] * x[i]
        w[:, 1 - y] -= mu[i] * x[i]
    w *= math.exp(-alpha)
    layers = [(w, None)]
    assert ref.nnls_residual(layers, [1.0], x, labels, alpha) < 1e-10
    # a random model is not stationary for the same points
    other = [(rng.standard_normal((4, 2)), None)]
    assert ref.nnls_residual(other, [1.0], x, labels, alpha) > 0.1


def test_lambda_bar_weights_only_top_groups():
    got = ref.lambda_bar([0.5, 0.25, 0.5], 0.3)
    want = 0.5 * math.exp(0.3 * (2 * 0.5 - 1))
    assert np.allclose(got, [want, 0.0, want])


def test_coverage_on_a_hand_worked_set():
    data_x = np.array([[0.0, 0.0], [2.0, 0.0]])
    data_y = np.array([0, 1])
    samples = np.array([[0.0, 1.0], [2.0, 0.5], [1.5, 0.0], [1.0, 0.0]])
    labels = np.array([0, 1, 0, 0])
    mean_nn, per_point, agree = ref.coverage(samples, labels, data_x, data_y)
    # nearest distances 1, 0.5, 0.5 and 1 (a tie, won by point 0)
    assert mean_nn == pytest.approx(0.75)
    assert np.allclose(per_point, [1.0, 0.5])
    # sample 2's nearest point has label 1; the tie goes to label 0
    assert agree == pytest.approx(0.75)
    _, _, agree = ref.coverage(samples, labels, data_x, data_y,
                               predicted=np.array([0, 1, 1, 1]))
    assert agree == pytest.approx(0.5)


def test_second_place_and_duality_by_hand():
    logits = np.array([[2.0, 0.0, 1.0], [2.5, 3.0, 2.5 + 5e-7],
                       [0.0, 0.0, 4.0]])
    labels = np.array([0, 1, 2])
    assert ref.second_place(logits, labels).tolist() == [
        [False, False, True], [True, False, True], [True, True, False]]
    # band [e^0, e^0 + 0.5]: row 0's margin 1 is inside it, row 1's tied
    # margins 0.5 and 0.5 - 5e-7 fall short, row 2's tied margins 4 exceed
    got = ref.duality(logits, labels, alpha=0.0, delta=0.5)
    assert got == pytest.approx((0.0 + (0.5 + 0.5 + 5e-7) + 2 * 2.5) / 3)


def test_stationarity_without_multipliers_is_the_target_norm():
    rng = np.random.default_rng(4)
    layers = random_net(rng, (2, 4, 3), False)
    x = rng.standard_normal((5, 2))
    labels = np.array([0, 1, 2, 0, 1])
    got = ref.stationarity(layers, [0.5, 0.5], 0.0, 9, x, labels,
                           np.zeros((5, 3)))
    target = 0.5 * ref.flatten(layers) / 9
    assert got == pytest.approx(math.sqrt(target @ target + 1e-12))
