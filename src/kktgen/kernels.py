"""Hot elementwise kernels with numba acceleration.

Each kernel has a pure-numpy implementation and, when numba is importable,
an ``@njit`` twin.  Set ``KKTGEN_DISABLE_NUMBA=1`` before import to force
the numpy path (the benchmark in ``benchmarks/bench_kernels.py`` compares
the two).  Both paths agree to floating-point rounding.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("KKTGEN_DISABLE_NUMBA", "0") not in ("1", "true")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # numba is the optional "numba" extra
        USE_NUMBA = False

__all__ = ["USE_NUMBA", "adam_update", "tv_batch", "ssim_uniform"]


def _adam_update_np(values, grads, m, v, t, lr, beta1, beta2, eps):
    m[:] = beta1 * m + (1.0 - beta1) * grads
    v[:] = beta2 * v + (1.0 - beta2) * grads * grads
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    values -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _tv_batch_np(images):
    dr = np.abs(images[:, 1:, :] - images[:, :-1, :]).sum(axis=(1, 2))
    dc = np.abs(images[:, :, 1:] - images[:, :, :-1]).sum(axis=(1, 2))
    return float(np.mean(dr + dc))


def _ssim_uniform_np(a, b, window, c1, c2):
    h, w = a.shape
    n = window * window
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
    del n
    return float(np.mean(np.array(scores)))


if USE_NUMBA:

    @njit(cache=True)
    def _adam_update_nb(values, grads, m, v, t, lr, beta1, beta2, eps):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i in range(values.size):
            m[i] = beta1 * m[i] + (1.0 - beta1) * grads[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * grads[i] * grads[i]
            values[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)

    @njit(cache=True)
    def _tv_batch_nb(images):
        total = 0.0
        nimg, h, w = images.shape
        for k in range(nimg):
            for r in range(h):
                for c in range(w):
                    if r + 1 < h:
                        total += abs(images[k, r + 1, c] - images[k, r, c])
                    if c + 1 < w:
                        total += abs(images[k, r, c + 1] - images[k, r, c])
        return total / nimg

    @njit(cache=True)
    def _ssim_uniform_nb(a, b, window, c1, c2):
        h, w = a.shape
        total = 0.0
        count = 0
        for r in range(h - window + 1):
            for c in range(w - window + 1):
                mu_a = 0.0
                mu_b = 0.0
                sq_a = 0.0
                sq_b = 0.0
                cross = 0.0
                for i in range(window):
                    for j in range(window):
                        va = a[r + i, c + j]
                        vb = b[r + i, c + j]
                        mu_a += va
                        mu_b += vb
                        sq_a += va * va
                        sq_b += vb * vb
                        cross += va * vb
                n = window * window
                mu_a /= n
                mu_b /= n
                var_a = sq_a / n - mu_a * mu_a
                var_b = sq_b / n - mu_b * mu_b
                cov = cross / n - mu_a * mu_b
                total += (((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                          / ((mu_a * mu_a + mu_b * mu_b + c1)
                             * (var_a + var_b + c2)))
                count += 1
        return total / count


def adam_update(values, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                eps=1e-8):
    """One in-place Adam step with bias correction; t is 1-based."""
    if USE_NUMBA:
        _adam_update_nb(values, grads, m, v, float(t), lr, beta1, beta2,
                        eps)
    else:
        _adam_update_np(values, grads, m, v, float(t), lr, beta1, beta2,
                        eps)


def tv_batch(images):
    """Mean anisotropic total variation over a (batch, h, w) stack."""
    images = np.ascontiguousarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError("tv_batch expects a (batch, h, w) array")
    if USE_NUMBA:
        return float(_tv_batch_nb(images))
    return _tv_batch_np(images)


def ssim_uniform(a, b, window, c1, c2):
    """Mean SSIM over all valid uniform windows of two 2-d images."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("ssim_uniform expects two equal-shape 2-d images")
    if window > min(a.shape):
        raise ValueError("window larger than the image")
    if USE_NUMBA:
        return float(_ssim_uniform_nb(a, b, window, c1, c2))
    return _ssim_uniform_np(a, b, window, c1, c2)
