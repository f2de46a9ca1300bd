"""Unit tests for quasi-homogeneity profiles and scaling utilities.

The derivative-equation rows come from the numpy MLP core; the autodiff
graph builder below is the reference they are checked against.
"""

import numpy as np
import pytest

import kktgen.autodiff as ad
import kktgen.homogeneity as hg
import kktgen.models as km
from kktgen.homogeneity import QuasiHomogeneousProfile
from kktgen.models import MlpSpec, make_leaves, mlp_apply

ROW_RTOL = 1e-12


def graph_derivative_equations(spec, params, samples):
    """The rows of :func:`hg.build_derivative_equations`, one graph
    backprop per (sample, output) and one double backprop per
    second-order row."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    names = [name for name, _ in spec.mlp().group_shapes()]
    n_out = spec.mlp().widths[-1]
    rows, rhs = [], []

    # one probe coordinate per group: the largest-magnitude entry
    probes = {}
    for name in names:
        g = params.group(name)
        probes[name] = int(np.argmax(np.abs(g)))

    for k, x in enumerate(samples):
        leaves = make_leaves(spec, params)
        x_leaf = ad.tensor(x)
        logits = mlp_apply(spec, leaves, x_leaf)
        for c in range(n_out):
            target = ad.tsum(ad.slice_axis(logits, 0, c, c + 1))
            cots = ad.grad(target, [leaves[n] for n in names])
            coeff = np.array([float(np.sum(leaves[n].value * ct.value))
                              for n, ct in zip(names, cots)])
            b = float(target.value)
            if not (np.all(np.isfinite(coeff)) and np.isfinite(b)):
                continue
            rows.append(coeff)
            rhs.append(b)
            if k < 2:
                for p_name in names:
                    p_idx = probes[p_name]
                    flat_cot = ad.reshape(cots[names.index(p_name)],
                                          (leaves[p_name].value.size,))
                    s = ad.tsum(ad.slice_axis(flat_cot, 0, p_idx, p_idx + 1))
                    second = ad.grad(s, [leaves[n] for n in names],
                                     allow_unused=True)
                    coeff2 = np.array(
                        [float(np.sum(leaves[n].value * sc.value))
                         for n, sc in zip(names, second)])
                    s_val = float(s.value)
                    coeff2[names.index(p_name)] += s_val
                    if not (np.all(np.isfinite(coeff2))
                            and np.isfinite(s_val)):
                        continue
                    rows.append(coeff2)
                    rhs.append(s_val)

    return np.array(rows), np.array(rhs), names


def estimate(spec, params):
    profile, _ = hg.estimate_profile(spec, params)
    return profile


def test_profile_validation():
    with pytest.raises(ValueError, match="at least one"):
        QuasiHomogeneousProfile({})
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            QuasiHomogeneousProfile({"a": 0.5, "b": bad})


def test_profile_mask_and_json():
    p = QuasiHomogeneousProfile({"a": 0.5, "b": 0.5 * (1 - 1e-8), "c": 0.25})
    assert p.lambda_max == 0.5
    assert p.tilde_mask == {"a", "b"}
    back = km.from_json(QuasiHomogeneousProfile, km.to_json(p))
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
    profile = estimate(spec, params)
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
    profile = hg.solve_lambda(np.array([[1.0, 1.0], [2.0, 2.0]]),
                              np.array([1.0, 2.0]), ["a", "b"])
    assert profile.lambdas["a"] == pytest.approx(0.5, abs=1e-5)
    assert profile.lambdas["b"] == pytest.approx(0.5, abs=1e-5)


def test_solve_lambda_empty_system():
    with pytest.raises(ValueError, match="empty or all zero"):
        hg.solve_lambda(np.zeros((2, 2)), np.zeros(2), ["a", "b"])


def test_build_equations_validation():
    spec = MlpSpec((2, 3), False)
    params = km.init_kaiming(spec, seed=0)
    with pytest.raises(ValueError, match="at least one probe"):
        hg.build_derivative_equations(spec, params, np.zeros((0, 2)))


def test_probe_samples_deterministic():
    spec = MlpSpec((2, 3), False)
    a = hg.default_probe_samples(spec, k=4, seed=9)
    b = hg.default_probe_samples(spec, k=4, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (4, 2)


BIASES = ("none", "zero", "nonzero")


def random_classifier(seed, n_layers, biases):
    """A random spec and its Kaiming parameters; ``biases`` is "none"
    (bias-free), "zero" (Kaiming's exactly-zero biases) or "nonzero"."""
    rng = np.random.default_rng(seed)
    widths = (int(rng.integers(2, 6)),
              *rng.integers(4, 10, size=n_layers - 1),
              int(rng.integers(1, 5)))
    spec = MlpSpec(widths, biases != "none")
    params = km.init_kaiming(spec, seed)
    if biases == "nonzero":
        params.values[:] += 0.1 * rng.standard_normal(len(params))
    return spec, params


def assert_rows_match(got, want):
    """``got`` and ``want`` are (matrix, rhs, group_names) systems."""
    (got_a, got_b, got_names), (want_a, want_b, want_names) = got, want
    assert got_names == want_names
    assert got_a.shape == want_a.shape
    assert got_b.shape == want_b.shape
    scale = np.abs(want_a).max(axis=1)
    assert np.all(np.abs(got_a - want_a).max(axis=1) <= ROW_RTOL * scale)
    assert np.all(np.abs(got_b - want_b) <= ROW_RTOL * np.abs(want_b))


@pytest.mark.parametrize("draw", [1, 2])
@pytest.mark.parametrize("k", [1, 32])
@pytest.mark.parametrize("biases", BIASES)
@pytest.mark.parametrize("n_layers", [2, 3, 4])
def test_rows_match_graph_reference(n_layers, biases, k, draw):
    """On two draws of ``k`` probes each."""
    spec, params = random_classifier(
        10 * n_layers + BIASES.index(biases), n_layers, biases)
    samples = hg.default_probe_samples(spec, k=k,
                                       seed=10 * draw + n_layers)
    got = hg.build_derivative_equations(spec, params, samples)
    want = graph_derivative_equations(spec, params, samples)
    assert_rows_match(got, want)


def test_rows_with_a_non_finite_entry_are_left_out_as_in_the_graph():
    """Outputs at probes 0 and 2 overflow: their first-order rows go, and
    with probe 0's its second-order rows; probe 1 keeps all of its own."""
    spec = MlpSpec((2, 6, 6, 3), True)
    params = km.init_kaiming(spec, 0)
    params.values[:] += 0.1 * np.random.default_rng(0).standard_normal(
        len(params))
    for name in params.groups:
        if name.endswith(".weight"):
            params.group(name)[:] *= 1e102
    samples = hg.default_probe_samples(spec, k=4, seed=0)
    samples[::2] *= 1e6
    with np.errstate(over="ignore", invalid="ignore"):
        got = hg.build_derivative_equations(spec, params, samples)
        want = graph_derivative_equations(spec, params, samples)
    # of 4 * 3 first-order and 2 * 3 * 6 second-order rows
    assert got[0].shape == (24, 6)
    assert_rows_match(got, want)


def graph_hvp(spec, params, x, dout, v):
    """H v of S = sum(dout * Phi(x)) by double backprop through the graph."""
    leaves = make_leaves(spec, params)
    names = [name for name, _ in spec.mlp().group_shapes()]
    wrt = [leaves[n] for n in names]
    logits = mlp_apply(spec, leaves, ad.tensor(x))
    cots = ad.grad(ad.tsum(ad.mul(logits, ad.constant(dout))), wrt)
    inner = None
    for name, cot in zip(names, cots):
        offset, length = params.groups[name]
        term = ad.tsum(ad.mul(ad.reshape(cot, (length,)),
                              ad.constant(v[offset:offset + length])))
        inner = term if inner is None else ad.add(inner, term)
    hv = ad.grad(inner, wrt, allow_unused=True)
    return np.concatenate([h.value.reshape(-1) for h in hv])


@pytest.mark.parametrize("biases", BIASES)
@pytest.mark.parametrize("n_layers", [2, 3, 4])
def test_hvp_matches_graph_double_backprop(n_layers, biases):
    """Summed over the rows of an unbatched binding, and one per row of a
    batched one."""
    spec, params = random_classifier(
        10 * n_layers + BIASES.index(biases), n_layers, biases)
    rng = np.random.default_rng(n_layers)
    x = rng.standard_normal((5, spec.in_dim))
    dout = rng.standard_normal((5, spec.out_dim))
    v = rng.standard_normal(len(params))

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= ROW_RTOL * np.max(np.abs(want))

    net = km.BoundMlp(spec, params)
    net.forward(x)
    net.tangent[:] = v
    assert_close(net.hvp(net.backprop(dout)),
                 graph_hvp(spec, params, x, dout, v))
    net = km.BoundMlp(spec, params, batch=(5,))
    net.forward(x[:, None, :])
    net.tangent[:] = v
    got = net.hvp(net.backprop(dout[:, None, :]))
    for r in range(5):
        assert_close(got[r], graph_hvp(spec, params, x[r:r + 1],
                                       dout[r:r + 1], v))
