"""The numpy MLP core in classifier training and the KKT oracle.

Cross-entropy GD, margin refinement and the residual oracle all run on
``models.mlp_forward`` / ``mlp_backprop`` / ``mlp_param_grad``.  Each is
checked here against the autodiff graph (``mlp_apply`` differentiated by
``autodiff.grad``) on random specs: bias and bias-free, 2-4 layers.
"""

import numpy as np
import pytest
import scipy.optimize
import scipy.special

import kktgen.autodiff as ad
import kktgen.kkt as kk
import kktgen.training as tr
from kktgen.homogeneity import QuasiHomogeneousProfile, lambda_bar
from kktgen.models import (MlpSpec, init_kaiming, make_leaves, mlp_apply,
                           mlp_apply_np, spec_group_shapes)

GRAD_RTOL = 1e-12
ORACLE_TOL = 1e-10

SPECS = [
    # seed, layers, bias
    (0, 2, False),
    (1, 2, True),
    (2, 3, False),
    (3, 3, True),
    (4, 4, False),
    (5, 4, True),
]


def random_problem(seed, n_layers, bias, n=15):
    """A random classifier and n points it separates, labeled by it."""
    rng = np.random.default_rng(seed)
    classes = int(rng.integers(2, 5))
    widths = (int(rng.integers(2, 6)),
              *rng.integers(4, 10, size=n_layers - 1), classes)
    spec = MlpSpec(widths, bias)
    params = init_kaiming(spec, seed)
    if bias:
        params.values[:] += 0.1 * rng.standard_normal(len(params))
    x = rng.standard_normal((20 * n, widths[0]))
    x[::4] *= 3.0  # unequal margins
    top2 = np.sort(mlp_apply_np(spec, params, x), axis=1)[:, -2:]
    x = x[top2[:, 1] - top2[:, 0] > 1e-3][:n]
    labels = np.argmax(mlp_apply_np(spec, params, x), axis=1)
    return spec, params, x, labels


def graph_gradient(spec, params, x, build):
    """Flat parameter gradient of the graph scalar ``build(leaves, logits)``
    with logits = Phi(x)."""
    leaves = make_leaves(spec, params)
    names = [name for name, _ in spec_group_shapes(spec)]
    root = build(leaves, mlp_apply(spec, leaves, ad.tensor(x)))
    grads = ad.grad(root, [leaves[n] for n in names])
    return np.concatenate([g.value.reshape(-1) for g in grads])


def assert_rel(got, want, tol, what):
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= tol, f"{what}: relative error {err:.3g}"


@pytest.mark.parametrize("seed,n_layers,bias", SPECS)
def test_cross_entropy_gradient_matches_graph(seed, n_layers, bias):
    spec, params, x, labels = random_problem(seed, n_layers, bias)
    labels = np.random.default_rng(seed).integers(0, spec.out_dim,
                                                  size=labels.size)
    loss, grad = tr._ce_loss_and_grad(spec, params, x, labels)
    logits = mlp_apply_np(spec, params, x)
    rows = np.arange(labels.size)
    want_loss = np.sum(scipy.special.logsumexp(logits, axis=1)
                       - logits[rows, labels])
    assert loss == pytest.approx(want_loss, rel=1e-13)
    # d CE / d logits = softmax - onehot, pulled back through the graph
    cot = scipy.special.softmax(logits, axis=1)
    cot[rows, labels] -= 1.0

    def build(leaves, graph_logits):
        return ad.tsum(ad.mul(ad.constant(cot), graph_logits))

    assert_rel(grad, graph_gradient(spec, params, x, build), GRAD_RTOL,
               "cross-entropy gradient")


@pytest.mark.parametrize("seed,n_layers",
                         [(s, n) for s, n, bias in SPECS if not bias])
@pytest.mark.parametrize("temperature", [3.0, 400.0])
def test_refinement_gradient_matches_graph(seed, n_layers, temperature):
    """The ascent direction is the gradient of the softmin surrogate.

    With tau held fixed, d/dzeta of -(1/tau) log sum exp(-tau mhat) is
    sum W grad mhat with W = softmax(-tau mhat) over the rival pairs, and
    mhat = (Phi_y - Phi_c) / ||zeta||^L is built in the graph.
    """
    spec, params, x, labels = random_problem(seed, n_layers, False)
    rows = np.arange(labels.size)
    rival = np.ones((labels.size, spec.out_dim), dtype=bool)
    rival[rows, labels] = False
    got = tr._margin_ascent_grad(spec, params, x, labels, rival,
                                 temperature)

    logits = mlp_apply_np(spec, params, x)
    mhat = ((logits[rows, labels][:, None] - logits)
            / np.linalg.norm(params.values) ** spec.n_layers)
    tau = temperature / mhat[rival].min()
    weights = np.zeros_like(mhat)
    weights[rival] = scipy.special.softmax(-tau * mhat[rival])
    onehot = np.eye(spec.out_dim)[labels]

    def build(leaves, graph_logits):
        phi_y = ad.tsum(ad.mul(graph_logits, ad.constant(onehot)), axis=1,
                        keepdims=True)
        s = ad.tsum(ad.mul(ad.constant(weights),
                           ad.sub(phi_y, graph_logits)))
        sq = None
        for leaf in leaves.values():
            term = ad.tsum(ad.square(leaf))
            sq = term if sq is None else ad.add(sq, term)
        rho = ad.sqrt(sq)
        scale = rho
        for _ in range(spec.n_layers - 1):
            scale = ad.mul(scale, rho)
        return ad.div(s, scale)

    assert_rel(got, graph_gradient(spec, params, x, build), GRAD_RTOL,
               "refinement gradient")


def per_pair_oracle(spec, zeta, profile, x, labels, alpha):
    """The oracle as one autodiff graph per (sample, class): the reference."""
    names = [name for name, _ in spec_group_shapes(spec)]

    def logit_gradient(xi, c):
        leaves = make_leaves(spec, zeta)
        logits = mlp_apply(spec, leaves, ad.tensor(xi))
        cots = ad.grad(ad.tsum(ad.slice_axis(logits, 0, c, c + 1)),
                       [leaves[n] for n in names])
        return np.concatenate([g.value.reshape(-1) for g in cots])

    lbar = lambda_bar(profile, alpha)
    target = np.concatenate([lbar[n] * zeta.group(n) for n in zeta.groups])
    logits = mlp_apply_np(spec, zeta, x)
    pairs, columns = [], []
    for i, (xi, y) in enumerate(zip(x, labels)):
        gy = logit_gradient(xi, int(y))
        for c in sorted(kk.second_place_set(logits[i], int(y))):
            pairs.append((i, c))
            columns.append(gy - logit_gradient(xi, c))
    g = np.array(columns).T
    mu, _ = scipy.optimize.nnls(g, target)
    residual = (np.linalg.norm(target - g @ mu)
                / (np.linalg.norm(target) + kk.NORM_EPS))
    return residual, dict(zip(pairs, mu))


@pytest.mark.parametrize("seed,n_layers,bias", SPECS)
def test_oracle_matches_per_pair_graph(seed, n_layers, bias):
    spec, params, x, labels = random_problem(seed, n_layers, bias)
    rng = np.random.default_rng(seed + 50)
    profile = QuasiHomogeneousProfile(
        {n: (1.0 / n_layers if n.endswith("weight")
             else float(rng.uniform(0.2, 0.9))) for n in params.groups})
    residual, mu = kk.kkt_residual_oracle(spec, params, profile, x, labels,
                                          alpha=0.3)
    want_residual, want_mu = per_pair_oracle(spec, params, profile, x,
                                             labels, 0.3)
    assert list(mu) == list(want_mu)
    assert abs(residual - want_residual) <= ORACLE_TOL * want_residual
    got = np.array(list(mu.values()))
    want = np.array(list(want_mu.values()))
    assert np.max(np.abs(got - want)) <= ORACLE_TOL * max(1.0,
                                                          np.max(want))
