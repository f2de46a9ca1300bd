"""Graph-form references that only the tests use.

Each builds an autodiff graph for a quantity the package computes in
numpy, so a test can check the numpy form and its gradients against
``autodiff.grad``; ``tv_value_grad`` is the strided numpy form that
``kernels.TotalVariation`` replaced, which it must match bit for bit.
"""

import numpy as np

import kktgen.autodiff as ad


def tv_loss(x, height, width):
    """Mean anisotropic total variation of a batch of flat images.

    Graph form, the reference for ``kernels.TotalVariation``.
    """
    x_t = x if isinstance(x, ad.Tensor) else ad.tensor(np.atleast_2d(x))
    m, d = x_t.value.shape
    if d != height * width:
        raise ValueError(f"flat dimension {d} != {height}x{width}")
    imgs = ad.reshape(x_t, (m, height, width))
    down = ad.absval(ad.sub(ad.slice_axis(imgs, 1, 1, height),
                            ad.slice_axis(imgs, 1, 0, height - 1)))
    right = ad.absval(ad.sub(ad.slice_axis(imgs, 2, 1, width),
                             ad.slice_axis(imgs, 2, 0, width - 1)))
    return ad.mul(ad.add(ad.tsum(down), ad.tsum(right)),
                  ad.constant(1.0 / m))


def tv_value_grad(x, height, width):
    """Mean anisotropic total variation of a batch of flat images and
    its x gradient (|.|' = 0 at ties), on strided image views."""
    m, d = x.shape
    imgs = x.reshape(m, height, width)
    down = imgs[:, 1:, :] - imgs[:, :-1, :]
    right = imgs[:, :, 1:] - imgs[:, :, :-1]
    value = (np.sum(np.abs(down)) + np.sum(np.abs(right))) * (1.0 / m)
    sign_down, sign_right = np.sign(down), np.sign(right)
    grad = np.zeros_like(imgs)
    grad[:, 1:, :] += sign_down
    grad[:, :-1, :] -= sign_down
    grad[:, :, 1:] += sign_right
    grad[:, :, :-1] -= sign_right
    return float(value), grad.reshape(m, d) * (1.0 / m)


def finite_difference_check(fn, point, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a leaf tensor to a scalar tensor.  The analytic gradient is
    obtained with ``autodiff.grad``; each coordinate is then perturbed by
    ``±step`` for the central difference.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = ad.tensor(np.asarray(point, dtype=np.float64))
    analytic = ad.grad(fn(x), [x])[0].value
    numeric = np.zeros_like(x.value)
    flat = x.value.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(fn(ad.tensor(x.value)).value)
        flat[i] = orig - step
        lo = float(fn(ad.tensor(x.value)).value)
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * step)
    denom = np.abs(analytic) + 1e-12
    return float(np.max(np.abs(analytic - numeric) / denom))
