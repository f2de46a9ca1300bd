"""Scaling structure of quasi-homogeneous classifiers.

A network is quasi-homogeneous when scaling each parameter group j by
e^{alpha * lambda_j} scales every output by e^{alpha}.  The per-group
exponents are estimated from the derivative identity

    sum_j lambda_j * (zeta_j . grad_j Phi_c(x)) = Phi_c(x)

evaluated at random inputs, with second-order rows at the first two,
solved as a nonnegative least-squares problem, and validated by direct
rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import nnls
from .models import BoundMlp, mlp_apply_np

MASK_REL_TOL = 1e-6
RIDGE = 1e-12
# the random inputs of a profile estimate
PROBE_COUNT = 32
# the check of a profile by direct rescaling, wherever one is checked: the
# alpha grid and the largest relative deviation a profile may show on it
VERIFY_ALPHAS = (-1.0, -0.5, 0.1, 0.5, 1.0)
VERIFY_DEVIATION_LIMIT = 1e-5


class VerificationError(ValueError):
    """A premise of the method failed its check: a profile does not
    rescale its classifier, or a classifier does not separate its data."""


@dataclass
class QuasiHomogeneousProfile:
    """Per-group scaling exponents and derived quantities."""

    lambdas: dict[str, float]  # group name -> lambda_j >= 0
    residual: float = 0.0

    def __post_init__(self):
        if not self.lambdas:
            raise ValueError("profile needs at least one group")
        if not all(0.0 <= v < np.inf for v in self.lambdas.values()):
            raise ValueError("lambdas must be finite and nonnegative")

    @property
    def lambda_max(self):
        return max(self.lambdas.values())

    @property
    def tilde_mask(self):
        """Groups whose lambda attains lambda_max (within relative tol)."""
        lmax = self.lambda_max
        return {name for name, v in self.lambdas.items()
                if v >= lmax * (1.0 - MASK_REL_TOL)}


def check_groups(params, lambdas):
    """A ValueError unless ``lambdas`` has one entry per group of
    ``params``."""
    if set(params.groups) != set(lambdas):
        raise ValueError(
            f"profile groups {sorted(lambdas)} do not match parameter "
            f"groups {sorted(params.groups)}"
        )


def scale_params(params, profile, alpha):
    """psi_alpha: scale group j by e^{alpha * lambda_j}."""
    check_groups(params, profile.lambdas)
    out = params.copy()
    for name, lam in profile.lambdas.items():
        out.group(name)[:] *= np.exp(alpha * lam)
    return out


def default_probe_samples(spec, k, seed):
    """Standard-normal probe inputs in the classifier's input space."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, spec.mlp().in_dim))


def build_derivative_equations(spec, params, samples):
    """Assemble the linear system in the per-group lambdas: returns
    ``(matrix, rhs, group_names)``, matrix (n_rows, n_groups).

    First-order rows encode the derivative identity per (sample, output).
    One probe coordinate per group adds rows of the lifted second-order
    identity

        sum_j lambda_j (zeta_j . grad2_{j,p} Phi) + lambda_{g(p)} grad_p Phi
            = grad_p Phi,

    which stays linear in lambda, after each first-order row of the first
    two samples.  Gradients come from one batched forward and one
    batched backprop per output, second derivatives from Hessian-vector
    products on a binding of the first two samples.  Rows with a
    non-finite entry are left out, and with a first-order row its
    second-order rows.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("at least one probe sample is required")
    names = [name for name, _ in spec.mlp().group_shapes()]
    offsets = [params.groups[name][0] for name in names]
    # one probe coordinate per group: the largest-magnitude entry
    probes = [offset + int(np.argmax(np.abs(params.group(name))))
              for name, offset in zip(names, offsets)]
    n_samples, n_out, n_groups = (samples.shape[0], spec.mlp().out_dim,
                                  len(names))
    n_second = min(2, n_samples)
    # [k, c, 0] is the first-order row of sample k and output c, and
    # [k, c, 1 + j] the second-order row of group j's probe coordinate
    rows = np.zeros((n_samples, n_out, 1 + n_groups, n_groups))
    rhs = np.zeros((n_samples, n_out, 1 + n_groups))
    # each sample on the batch axis gives its own row gradient
    first = BoundMlp(spec, params, batch=(n_samples,))
    rhs[:, :, 0] = first.forward(samples[:, None, :])[:, 0]
    net = BoundMlp(spec, params, batch=(n_second,))
    net.forward(samples[:n_second, None, :])
    for c in range(n_out):
        dout = np.zeros((n_samples, n_out))
        dout[:, c] = 1.0
        grads = first.param_grad(first.backprop(dout[:, None, :]))
        rhs[:n_second, c, 1:] = grads[:n_second, probes]
        np.multiply(grads, params.values, out=grads)
        rows[:, c, 0] = np.add.reduceat(grads, offsets, axis=1)
        deltas = net.backprop(dout[:n_second, None, :])
        for j, p in enumerate(probes):
            net.tangent.fill(0.0)
            net.tangent[p] = 1.0
            hv = np.multiply(net.hvp(deltas), params.values)
            rows[:n_second, c, 1 + j] = np.add.reduceat(hv, offsets, axis=1)
            rows[:n_second, c, 1 + j, j] += rhs[:n_second, c, 1 + j]
    keep = np.all(np.isfinite(rows), axis=-1) & np.isfinite(rhs)
    keep[n_second:, :, 1:] = False
    keep &= keep[:, :, :1]
    return rows[keep], rhs[keep], names


def solve_lambda(a, b, group_names):
    """Nonnegative least-squares solve of the derivative-equation system
    ``a lambda = b`` (:func:`build_derivative_equations`).

    A tiny ridge term makes the solution unique when the system is
    rank-deficient, selecting the minimum-Euclidean-norm point of the
    nonnegative solution set.
    """
    if a.size == 0 or not np.any(a):
        raise ValueError("derivative-equation system is empty or all zero")
    scale = np.max(np.abs(a))
    ridge = np.sqrt(RIDGE) * scale
    a_aug = np.vstack([a, ridge * np.eye(a.shape[1])])
    b_aug = np.concatenate([b, np.zeros(a.shape[1])])
    lam, _ = nnls(a_aug, b_aug)
    residual = float(np.linalg.norm(a @ lam - b)
                     / (np.linalg.norm(b) + 1e-12))
    return QuasiHomogeneousProfile(
        lambdas=dict(zip(group_names, lam)),
        residual=residual,
    )


def scaling_deviations(spec, params, profile, alphas, samples):
    """Relative deviation of Phi(x; psi_alpha(zeta)) from e^alpha Phi.

    Each output is divided by its own |e^alpha Phi| + 1e-9; returns the
    (alpha, sample) array of the largest over the outputs.  A profile
    whose rescaling overflows gives a deviation of inf or nan, which
    fails every check of it, so the overflow raises no numpy warning.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if len(alphas) == 0 or samples.shape[0] == 0:
        raise ValueError("alpha grid and samples must be nonempty")
    base = mlp_apply_np(spec, params, samples)
    devs = np.empty((len(alphas), samples.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, alpha in zip(devs, alphas):
            scaled = scale_params(params, profile, alpha)
            got = mlp_apply_np(spec, scaled, samples)
            want = np.exp(alpha) * base
            row[:] = (np.abs(got - want)
                      / (np.abs(want) + 1e-9)).max(axis=1)
    return devs


def verify_lambda(spec, params, profile, alphas, samples):
    """Max relative deviation of Phi(x; psi_alpha(zeta)) from e^alpha Phi
    (:func:`scaling_deviations`)."""
    return float(scaling_deviations(spec, params, profile, alphas,
                                    samples).max())


def lambda_bar(profile, alpha):
    """Per-group weights of tilde-Lambda * e^{alpha (2 Lambda - I)}."""
    mask = profile.tilde_mask
    lmax = profile.lambda_max
    return {name: (lmax * np.exp(alpha * (2.0 * lam - 1.0))
                   if name in mask else 0.0)
            for name, lam in profile.lambdas.items()}


def estimate_profile(spec, params, seed=0):
    """Probe ``PROBE_COUNT`` inputs, assemble, solve."""
    samples = default_probe_samples(spec, k=PROBE_COUNT, seed=seed)
    return solve_lambda(*build_derivative_equations(spec, params,
                                                    samples)), samples
