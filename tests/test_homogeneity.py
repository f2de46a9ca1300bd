"""Unit tests for quasi-homogeneity profiles and scaling utilities."""

import numpy as np
import pytest

import kktgen.homogeneity as hg
import kktgen.models as km
from kktgen.homogeneity import QuasiHomogeneousProfile
from kktgen.models import MlpSpec


def estimate(spec, params, k=16, max_order=2, seed=0):
    profile, _ = hg.estimate_profile(spec, params, k=k, max_order=max_order,
                                     seed=seed)
    return profile


def test_profile_validation():
    with pytest.raises(ValueError, match="at least one"):
        QuasiHomogeneousProfile({})
    with pytest.raises(ValueError, match="nonnegative"):
        QuasiHomogeneousProfile({"a": -0.1})


def test_profile_mask_and_json():
    p = QuasiHomogeneousProfile({"a": 0.5, "b": 0.5 * (1 - 1e-8), "c": 0.25})
    assert p.lambda_max == 0.5
    assert p.tilde_mask == {"a", "b"}
    back = QuasiHomogeneousProfile.from_json(p.to_json())
    assert back.lambdas == p.lambdas


def test_bias_free_two_layer_lambdas_are_half():
    spec = MlpSpec((2, 8, 3), False)
    params = km.init_kaiming(spec, seed=0)
    profile = estimate(spec, params)
    for lam in profile.lambdas.values():
        assert abs(lam - 0.5) < 1e-7
    assert profile.residual < 1e-10


def test_bias_free_three_layer_lambdas_are_third():
    spec = MlpSpec((2, 16, 16, 3), False)
    params = km.init_kaiming(spec, seed=0)
    profile = estimate(spec, params)
    for lam in profile.lambdas.values():
        assert abs(lam - 1.0 / 3.0) < 1e-7


def test_biased_two_layer_lambdas():
    """Phi = W1 relu(W0 x + b0) + b1 admits a line of valid profiles
    (any split lambda0 + lambda1 = 1 with the layer-0 bias tied to its
    weight and the output bias at 1); the ridge-NNLS solve picks the
    minimum-norm member lambda0 = 1/3, lambda1 = 2/3."""
    spec = MlpSpec((2, 8, 1), True)
    params = km.init_kaiming(spec, seed=3)
    # kaiming leaves biases zero; give them nonzero values so the probe
    # coordinates are informative
    rng = np.random.default_rng(4)
    params.group("layer0.bias")[:] = rng.standard_normal(8)
    params.group("layer1.bias")[:] = rng.standard_normal(1)
    profile = estimate(spec, params, k=32)
    assert abs(profile.lambdas["layer0.weight"] - 1 / 3) < 1e-6
    assert abs(profile.lambdas["layer0.bias"] - 1 / 3) < 1e-6
    assert abs(profile.lambdas["layer1.weight"] - 2 / 3) < 1e-6
    assert abs(profile.lambdas["layer1.bias"] - 1.0) < 1e-6
    # the picked member really rescales the network
    x = rng.standard_normal((6, 2))
    dev = hg.verify_lambda(spec, params, profile,
                           alphas=(-1.0, 0.5, 1.0), samples=x)
    assert dev < 1e-7


def test_scale_params_matches_direct_rescaling():
    spec = MlpSpec((2, 8, 3), False)
    params = km.init_kaiming(spec, seed=1)
    profile = estimate(spec, params)
    x = np.random.default_rng(2).standard_normal((8, 2))
    dev = hg.verify_lambda(spec, params, profile,
                           alphas=(-1.0, -0.5, 0.1, 0.5, 1.0), samples=x)
    assert dev < 1e-7


def test_verify_lambda_flags_wrong_profile():
    spec = MlpSpec((2, 8, 3), False)
    params = km.init_kaiming(spec, seed=1)
    wrong = QuasiHomogeneousProfile({name: 1.0 for name in params.groups})
    x = np.random.default_rng(2).standard_normal((8, 2))
    assert hg.verify_lambda(spec, params, wrong, alphas=(1.0,),
                            samples=x) > 0.1


def test_verify_lambda_input_checks():
    spec = MlpSpec((2, 3), False)
    params = km.init_kaiming(spec, seed=0)
    profile = QuasiHomogeneousProfile({"layer0.weight": 1.0})
    with pytest.raises(ValueError, match="nonempty"):
        hg.verify_lambda(spec, params, profile, alphas=(), samples=np.ones((1, 2)))


def test_scale_params_group_mismatch():
    spec = MlpSpec((2, 3), False)
    params = km.init_kaiming(spec, seed=0)
    profile = QuasiHomogeneousProfile({"other": 1.0})
    with pytest.raises(ValueError, match="do not match"):
        hg.scale_params(params, profile, 0.5)


def test_lambda_bar_weights():
    p = QuasiHomogeneousProfile({"a": 0.5, "b": 0.5, "c": 0.25})
    w0 = hg.lambda_bar(p, alpha=0.0)
    assert w0 == {"a": 0.5, "b": 0.5, "c": 0.0}
    w1 = hg.lambda_bar(p, alpha=2.0)
    assert w1["a"] == pytest.approx(0.5 * np.exp(2.0 * (2 * 0.5 - 1.0)))
    assert w1["c"] == 0.0


def test_solve_lambda_rank_deficient_min_norm():
    """Duplicate-column system resolves to the symmetric split."""
    system = hg.DerivativeEquationSystem(
        matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
        rhs=np.array([1.0, 2.0]),
        group_names=["a", "b"],
    )
    profile = hg.solve_lambda(system)
    assert profile.lambdas["a"] == pytest.approx(0.5, abs=1e-5)
    assert profile.lambdas["b"] == pytest.approx(0.5, abs=1e-5)


def test_solve_lambda_empty_system():
    system = hg.DerivativeEquationSystem(
        matrix=np.zeros((2, 2)), rhs=np.zeros(2), group_names=["a", "b"])
    with pytest.raises(ValueError, match="empty or all zero"):
        hg.solve_lambda(system)


def test_build_equations_validation():
    spec = MlpSpec((2, 3), False)
    params = km.init_kaiming(spec, seed=0)
    with pytest.raises(ValueError, match="at least one probe"):
        hg.build_derivative_equations(spec, params, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="max_order"):
        hg.build_derivative_equations(spec, params, np.ones((1, 2)),
                                      max_order=3)


def test_probe_samples_deterministic():
    spec = MlpSpec((2, 3), False)
    a = hg.default_probe_samples(spec, k=4, seed=9)
    b = hg.default_probe_samples(spec, k=4, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (4, 2)
