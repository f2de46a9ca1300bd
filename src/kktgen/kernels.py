"""Elementwise and windowed numpy kernels: the Adam update and uniform SSIM."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["adam_update", "ssim_uniform"]


def adam_update(values, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                eps=1e-8):
    """One in-place Adam step with bias correction; t is 1-based.

    ``m``, ``v`` and ``values`` are updated in their own storage, with the
    operations of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``
    and ``values -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that order,
    so the result is bit-identical to the out-of-place expressions.
    """
    t = float(t)
    m *= beta1
    step = np.multiply(grads, 1.0 - beta1)
    m += step
    np.multiply(grads, 1.0 - beta2, out=step)
    step *= grads
    v *= beta2
    v += step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    np.divide(v, bc2, out=step)
    np.sqrt(step, out=step)
    step += eps
    update = np.divide(m, bc1)
    update *= lr
    update /= step
    values -= update


def ssim_uniform(a, b, window, c1, c2):
    """Mean SSIM over all valid uniform windows of image ``a`` against ``b``.

    ``b`` is one 2-d image of ``a``'s shape, giving a float, or a stack
    ``(k, h, w)`` of them, giving k scores.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim not in (2, 3) or b.shape[-2:] != a.shape:
        raise ValueError("ssim_uniform expects a 2-d image and an "
                         "equal-shape image or stack of images")
    if window > min(a.shape):
        raise ValueError("window larger than the image")

    def window_mean(img):
        return sliding_window_view(img, (window, window),
                                   axis=(-2, -1)).mean(axis=(-2, -1))

    mu_a = window_mean(a)
    mu_b = window_mean(b)
    var_a = window_mean(a * a) - mu_a * mu_a
    var_b = window_mean(b * b) - mu_b * mu_b
    cov = window_mean(a * b) - mu_a * mu_b
    scores = (((2 * mu_a * mu_b + c1) * (2 * cov + c2))
              / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
    mean = scores.mean(axis=(-2, -1))
    return float(mean) if b.ndim == 2 else mean
