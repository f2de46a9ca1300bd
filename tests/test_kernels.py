"""Unit tests for the numpy kernels."""

import numpy as np
import pytest

from kktgen import kernels


def reference_adam(values, grads, m, v, t, lr, beta1, beta2, eps):
    m_new = beta1 * m + (1 - beta1) * grads
    v_new = beta2 * v + (1 - beta2) * grads ** 2
    m_hat = m_new / (1 - beta1 ** t)
    v_hat = v_new / (1 - beta2 ** t)
    return values - lr * m_hat / (np.sqrt(v_hat) + eps), m_new, v_new


def test_adam_update_matches_reference():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(64)
    m = np.zeros(64)
    v = np.zeros(64)
    want = values.copy()
    wm, wv = m.copy(), v.copy()
    for t in range(1, 6):
        grads = rng.standard_normal(64)
        kernels.adam_update(values, grads, m, v, t, 1e-2)
        want, wm, wv = reference_adam(want, grads, wm, wv, t, 1e-2, 0.9,
                                      0.999, 1e-8)
    assert np.allclose(values, want, rtol=1e-12, atol=1e-15)
    assert np.allclose(m, wm) and np.allclose(v, wv)


def test_ssim_uniform_identity_and_symmetry():
    rng = np.random.default_rng(1)
    a = rng.random((12, 12))
    b = rng.random((12, 12))
    c1, c2 = 1e-4, 9e-4
    assert kernels.ssim_uniform(a, a, 8, c1, c2) == pytest.approx(1.0)
    assert kernels.ssim_uniform(a, b, 8, c1, c2) == pytest.approx(
        kernels.ssim_uniform(b, a, 8, c1, c2))
    assert kernels.ssim_uniform(a, b, 8, c1, c2) < 1.0


def test_ssim_uniform_validation():
    with pytest.raises(ValueError, match="equal-shape"):
        kernels.ssim_uniform(np.zeros((4, 4)), np.zeros((5, 5)), 2, 1e-4,
                             9e-4)
    with pytest.raises(ValueError, match="equal-shape"):
        kernels.ssim_uniform(np.zeros((4, 4)), np.zeros((2, 3, 4, 4)), 2,
                             1e-4, 9e-4)
    with pytest.raises(ValueError, match="window"):
        kernels.ssim_uniform(np.zeros((4, 4)), np.zeros((4, 4)), 8, 1e-4,
                             9e-4)


def loop_ssim(a, b, window, c1, c2):
    """Mean SSIM of two images, one window at a time: the reference."""
    h, w = a.shape
    scores = []
    for r in range(h - window + 1):
        for c in range(w - window + 1):
            pa = a[r:r + window, c:c + window]
            pb = b[r:r + window, c:c + window]
            mu_a = pa.mean()
            mu_b = pb.mean()
            var_a = (pa * pa).mean() - mu_a * mu_a
            var_b = (pb * pb).mean() - mu_b * mu_b
            cov = (pa * pb).mean() - mu_a * mu_b
            scores.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                          / ((mu_a * mu_a + mu_b * mu_b + c1)
                             * (var_a + var_b + c2)))
    return float(np.mean(np.array(scores)))


@pytest.mark.parametrize("shape,window", [((8, 8), 8), ((8, 8), 3),
                                          ((12, 9), 4), ((5, 5), 1)])
def test_ssim_uniform_matches_window_loop(shape, window):
    """Vectorized windows, one image or a stack, against the loop."""
    rng = np.random.default_rng(sum(shape) + window)
    a = rng.random(shape)
    stack = rng.random((6, *shape))
    stack[2] = a
    c1, c2 = 1e-4, 9e-4
    got = kernels.ssim_uniform(a, stack, window, c1, c2)
    want = np.array([loop_ssim(a, b, window, c1, c2) for b in stack])
    assert got.shape == (6,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    one = kernels.ssim_uniform(a, stack[0], window, c1, c2)
    assert isinstance(one, float) and one == got[0]
