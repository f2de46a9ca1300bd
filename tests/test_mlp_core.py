"""The numpy MLP core in classifier training and the KKT oracle.

Cross-entropy GD, margin refinement and the residual oracle all run on
``models.BoundMlp``.  Each is checked here against the autodiff graph
(``mlp_apply`` differentiated by ``autodiff.grad``) on random specs: bias
and bias-free, 2-4 layers.  The refinement loop is also checked bit for
bit against an out-of-place loop in its own arithmetic order, and
against the loop before its rival-pair form to 1e-10 of the largest
parameter displacement.
"""

import numpy as np
import pytest
import scipy.optimize
import scipy.special

import kktgen.autodiff as ad
import kktgen.kernels as kernels
import kktgen.kkt as kk
import kktgen.models as km
import kktgen.training as tr
from kktgen.config import RunConfig
from kktgen.datasets import LabeledDataset
from kktgen.homogeneity import QuasiHomogeneousProfile, lambda_bar
from kktgen.models import (BoundMlp, MlpSpec, init_kaiming, make_leaves,
                           mlp_apply, mlp_apply_np)
from test_kernels import out_of_place_adam
from test_kkt import second_place_set

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
    names = [name for name, _ in spec.mlp().group_shapes()]
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
    loss, grad = tr._ce_loss_and_grad(BoundMlp(spec, params), x, labels)
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
def test_refinement_gradient_matches_graph(seed, n_layers, temperature,
                                           monkeypatch):
    """The ascent direction is the gradient of the softmin surrogate.

    With tau held fixed, d/dzeta of -(1/tau) log sum exp(-tau mhat) is
    sum W grad mhat with W = softmax(-tau mhat) over the rival pairs, and
    mhat = (Phi_y - Phi_c) / ||zeta||^L is built in the graph.
    """
    spec, params, x, labels = random_problem(seed, n_layers, False)
    rows = np.arange(labels.size)
    rival = np.ones((labels.size, spec.out_dim), dtype=bool)
    rival[rows, labels] = False
    got = first_ascent_direction(monkeypatch, spec, params, x, labels,
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


def first_ascent_direction(monkeypatch, spec, params, x, labels,
                           temperature):
    """The direction ``refine_margins`` ascends at ``params``: minus the
    gradient it hands Adam in its first iteration, caught before any step."""
    seen = []
    monkeypatch.setattr(kernels, "adam_update",
                        lambda values, grads, *rest: seen.append(-grads))
    monkeypatch.setattr(tr, "REFINE_TEMPERATURES", (temperature,))
    monkeypatch.setattr(tr, "REFINE_FINAL_LRS", ())
    tr.refine_margins(
        LabeledDataset(x, labels, num_classes=spec.out_dim), spec,
        params.copy(), tr.ClassifierTrainConfig(refine_iters=1))
    assert len(seen) == 1
    return seen[0]


def forward_and_backprop(spec, params, x):
    """A fresh forward in matmul form; returns (logits, pullback), where
    pullback(dlogits) is the flat parameter gradient of sum dlogits Phi."""
    deg = spec.n_layers
    weights = [params.group(f"layer{l}.weight").reshape(spec.widths[l],
                                                        spec.widths[l + 1])
               for l in range(deg)]
    acts = [x]
    logits = x
    for l, w in enumerate(weights):
        logits = logits @ w
        if l < deg - 1:
            logits = np.maximum(logits, 0.0)
            acts.append(logits)

    def pullback(dlogits):
        parts = [None] * deg
        delta = dlogits
        for l in reversed(range(deg)):
            parts[l] = (acts[l].T @ delta).reshape(-1)
            cot = delta @ weights[l].T
            if l > 0:
                delta = cot * (acts[l] > 0.0)
        return np.concatenate(parts)

    return logits, pullback


def previous_ascent_grad(spec, params, x, labels, rival, temperature):
    """The ascent direction in the arithmetic of the loop before the
    rival-pair form: the (n, C) margins over ||zeta||^L with the
    own-class entries masked, tau from their minimum, the normalized
    weights, and the cotangent and norm term divided by ||zeta||^L."""
    deg = spec.n_layers
    rows = np.arange(len(labels))
    rho = np.linalg.norm(params.values)
    logits, pullback = forward_and_backprop(spec, params, x)
    mm = logits[rows, labels][:, None] - logits
    mhat = mm / rho ** deg
    q_hat = np.where(rival, mhat, np.inf).min()
    tau = temperature / max(q_hat, 1e-9)
    z = np.where(rival, -tau * mhat, -np.inf)
    w = np.exp(z - z.max())
    w[~rival] = 0.0
    w /= w.sum()
    dlogits = -w
    dlogits[rows, labels] += w.sum(axis=1)
    return (pullback(dlogits) / rho ** deg
            - deg * (w * mm)[rival].sum() * params.values
            / rho ** (deg + 2))


def reference_descent_grad(spec, params, x, labels, rival, temperature):
    """The gradient ``refine_margins`` hands Adam, out of place, in the
    loop's arithmetic order: the rival margins m as one row-order vector,
    w = exp(c (m_min - m)) with c = temperature / max(m_min,
    1e-9 ||zeta||^L), (sum w m, sum w) as one product, and the logit
    cotangent pre-scaled by 1 / (sum w ||zeta||^L)."""
    deg = spec.n_layers
    n, num_classes = rival.shape
    rows = np.arange(n)
    rho = float(np.linalg.norm(params.values))
    logits, pullback = forward_and_backprop(spec, params, x)
    m = (logits[rows, labels][:, None] - logits)[rival]
    m_min = float(m.min())
    c = temperature / max(m_min, 1e-9 * rho ** deg)
    w = np.exp((m_min - m) * c)
    margin_sum, w_sum = np.stack([m, np.ones_like(m)]).dot(w).tolist()
    cot_rival = w * (1.0 / (w_sum * rho ** deg))
    dlogits = np.zeros((n, num_classes))
    dlogits[rival] = cot_rival
    dlogits[rows, labels] = cot_rival.reshape(n, num_classes - 1).dot(
        np.full(num_classes - 1, -1.0))
    return (pullback(dlogits)
            + deg * margin_sum / (w_sum * rho ** (deg + 2)) * params.values)


def reference_refine(dataset, spec, params, config,
                     descent_grad=reference_descent_grad):
    """The refinement loop on ``descent_grad`` and out-of-place Adam
    steps: the bit-level reference."""
    n = dataset.size
    rival = np.ones((n, spec.widths[-1]), dtype=bool)
    rival[np.arange(n), dataset.labels] = False

    def ascend(temperature, lr, moments):
        for _ in range(config.refine_iters):
            moments[2] += 1
            out_of_place_adam(
                params.values,
                descent_grad(spec, params, dataset.x, dataset.labels, rival,
                             temperature),
                moments[0], moments[1], moments[2], lr)

    annealing = [np.zeros(len(params)), np.zeros(len(params)), 0]
    for temperature in tr.REFINE_TEMPERATURES:
        ascend(temperature, tr.REFINE_LR, annealing)
    for lr in tr.REFINE_FINAL_LRS:
        ascend(tr.REFINE_TEMPERATURES[-1], lr,
               [np.zeros(len(params)), np.zeros(len(params)), 0])
    return params


REFINE_CASES = [
    # seed, layers, iterations per stage; 4, 4, 4, 2, 2, 3 and 3 classes
    (0, 2, 3), (2, 3, 5), (4, 4, 4), (11, 2, 7), (14, 3, 2), (6, 4, 6),
    (1, 3, 9)]
# the rival-pair loop reorders the arithmetic of the loop before it;
# relative to the largest parameter displacement
PREVIOUS_LOOP_RTOL = 1e-10


@pytest.mark.parametrize("seed,n_layers,iters", REFINE_CASES)
def test_refine_margins_matches_reference_loop_bit_for_bit(seed, n_layers,
                                                           iters):
    spec, params, x, labels = random_problem(seed, n_layers, False)
    data = LabeledDataset(x, labels, num_classes=spec.out_dim)
    config = tr.ClassifierTrainConfig(refine_iters=iters)
    got = tr.refine_margins(data, spec, params.copy(), config)
    want = reference_refine(data, spec, params.copy(), config)
    assert np.array_equal(got.values, want.values)
    assert not np.array_equal(got.values, params.values)


@pytest.mark.parametrize("seed,n_layers,iters", REFINE_CASES)
def test_refine_margins_matches_previous_loop(seed, n_layers, iters):
    spec, params, x, labels = random_problem(seed, n_layers, False)
    data = LabeledDataset(x, labels, num_classes=spec.out_dim)
    config = tr.ClassifierTrainConfig(refine_iters=iters)
    got = tr.refine_margins(data, spec, params.copy(), config)
    want = reference_refine(data, spec, params.copy(), config,
                            lambda *args: -previous_ascent_grad(*args))
    assert_rel(got.values - params.values, want.values - params.values,
               PREVIOUS_LOOP_RTOL, "refined parameters")


@pytest.mark.parametrize("seed,n_layers", [(0, 2), (2, 3), (4, 4)])
def test_refine_margins_floor_on_a_nonpositive_minimum_margin(seed,
                                                              n_layers):
    """With one label flipped the minimum margin is negative, so the
    softmin scale takes its 1e-9 ||zeta||^L floor."""
    spec, params, x, labels = random_problem(seed, n_layers, False)
    labels = labels.copy()
    labels[0] = (labels[0] + 1) % spec.out_dim
    logits = mlp_apply_np(spec, params, x)
    assert logits[0, labels[0]] - logits[0].max() < 0.0
    data = LabeledDataset(x, labels, num_classes=spec.out_dim)
    config = tr.ClassifierTrainConfig(refine_iters=3)
    got = tr.refine_margins(data, spec, params.copy(), config)
    want = reference_refine(data, spec, params.copy(), config)
    assert np.isfinite(got.values).all()
    assert np.array_equal(got.values, want.values)
    assert not np.array_equal(got.values, params.values)


def per_pair_oracle(spec, zeta, profile, x, labels, alpha):
    """The oracle as one autodiff graph per (sample, class): the reference."""
    names = [name for name, _ in spec.mlp().group_shapes()]

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
        for c in sorted(second_place_set(logits[i], int(y))):
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


# ---------------------------------------------------------------------------
# the buffers a binding reuses


def bound_passes(net, x, dout, v):
    """Every pass of one binding at x, copied out of its buffers."""
    out = net.forward(x).copy()
    deltas = net.backprop(dout)
    grad = net.param_grad(deltas).copy()
    cot = net.input_cotangent(deltas).copy()
    net.tangent[:] = v
    jvp = net.jvp().copy()
    return out, grad, cot, jvp, net.hvp(deltas).copy()


@pytest.mark.parametrize("seed,n_layers,bias", SPECS)
def test_binding_fed_two_row_counts_matches_fresh_bindings(seed, n_layers,
                                                           bias):
    spec, params, x, _ = random_problem(seed, n_layers, bias)
    rng = np.random.default_rng(seed)
    inputs = [x[:5], x[5:14]]
    douts = [rng.standard_normal((len(a), spec.out_dim)) for a in inputs]
    v = rng.standard_normal(len(params))
    net = BoundMlp(spec, params)
    for k in (0, 1, 0, 1):
        got = bound_passes(net, inputs[k], douts[k], v)
        want = bound_passes(BoundMlp(spec, params), inputs[k], douts[k], v)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def reference_hvp(net, x, dout, v):
    """(hvp, deltas) out of place, in the arithmetic of the core before
    its buffers were bound: boolean ReLU masks, and each hidden input
    tangent as acts @ v_w + a_dot @ w."""
    ws = net.weights_of(net.params.values)
    vs = net.weights_of(v)
    bs = [None if b is None else net.params.values[b] for _, _, b in
          net.layout]
    vbs = [None if b is None else v[b] for _, _, b in net.layout]
    acts = [x]
    h = x
    for l, (w, b) in enumerate(zip(ws, bs)):
        h = h @ w
        if b is not None:
            h = h + b
        if l < len(ws) - 1:
            h = np.maximum(h, 0.0)
            acts.append(h)

    def backprop(delta, inject):
        deltas = [None] * len(acts)
        deltas[-1] = delta
        for l in range(len(acts) - 1, 0, -1):
            cot = delta @ ws[l].T
            if inject is not None:
                cot = cot + inject[l]
            delta = deltas[l - 1] = cot * (acts[l] > 0.0)
        return deltas

    deltas = backprop(dout, None)
    a_dots = [None]
    for l in range(1, len(acts)):
        dz = acts[l - 1] @ vs[l - 1]
        if l > 1:
            dz = dz + a_dots[-1] @ ws[l - 1]
        if vbs[l - 1] is not None:
            dz = dz + vbs[l - 1]
        a_dots.append(dz * (acts[l] > 0.0))
    inject = [None] + [d @ v_w.T for d, v_w in zip(deltas[1:], vs[1:])]
    tangent_deltas = backprop(np.zeros_like(dout), inject)
    parts = []
    for l, (a, d, b) in enumerate(zip(acts, tangent_deltas, bs)):
        gw = a.T @ d
        if l > 0:
            gw = gw + a_dots[l].T @ deltas[l]
        parts.append(gw.reshape(-1))
        if b is not None:
            parts.append(d.sum(axis=0))
    return np.concatenate(parts), deltas


@pytest.mark.parametrize("seed,n_layers,bias", SPECS)
def test_hvp_keeps_the_deltas_it_is_given(seed, n_layers, bias):
    spec, params, x, _ = random_problem(seed, n_layers, bias)
    rng = np.random.default_rng(seed + 7)
    dout = rng.standard_normal((len(x), spec.out_dim))
    v = rng.standard_normal(len(params))
    net = BoundMlp(spec, params)
    net.forward(x)
    deltas = net.backprop(dout)
    kept = [d.copy() for d in deltas]
    net.tangent[:] = v
    got = net.hvp(deltas)
    want, want_deltas = reference_hvp(net, x, dout, v)
    for d, k, w in zip(deltas, kept, want_deltas):
        assert d.tobytes() == k.tobytes() == w.tobytes()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed,n_layers,bias", SPECS)
def test_kkt_loss_grads_twice_on_the_same_binding(seed, n_layers, bias):
    """The second call overwrites the buffers the first one returned (its
    x and mu gradients), so the first results are copied before it; a
    fresh binding gives the same bytes."""
    spec, params, x, labels = random_problem(seed, n_layers, bias)
    rng = np.random.default_rng(seed + 3)
    target = kk.stationarity_target(
        params, {name: 0.5 for name in params.groups}, 2 * len(x))
    mu_pre = rng.standard_normal((len(x), spec.out_dim))

    def bind():
        return kk.KktTerms(BoundMlp(spec, params), target, len(x), 0.3, 0.5,
                           3.0)

    def losses(kkt):
        return [np.array(r) for r in kkt(x, labels, mu_pre)]

    kkt = bind()
    first = losses(kkt)
    for want in (losses(kkt), losses(bind())):
        for got, w in zip(first, want):
            assert got.tobytes() == w.tobytes()
    assert all(a is b for a, b in zip(kkt(x, labels, mu_pre)[2:],
                                      kkt(x, labels, mu_pre)[2:]))


def test_mlp_apply_np_returns_a_new_array_per_call():
    spec, params, x, _ = random_problem(0, 3, True)
    first = mlp_apply_np(spec, params, x)
    second = mlp_apply_np(spec, params, x)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)


def forward_spec(which):
    """The default generator's or classifier's MLP spec, or the
    patterns-tv classifier's."""
    cfg = RunConfig.from_text("" if which != "patterns" else
                              "[classifier]\nwidths = 64,32,32,2\n")
    return (cfg.generator_spec(3, 2, 1) if which == "generator"
            else cfg.classifier_spec()).mlp()


@pytest.mark.parametrize("which", ["generator", "classifier", "patterns"])
def test_blocked_forward_gives_the_one_shot_bytes(which):
    """``mlp_apply_np`` forwards in blocks; each row has the bytes of one
    ``BoundMlp.forward`` over all rows padded with zero rows to a
    multiple of ``FORWARD_ROW_MULTIPLE``, at the edges of a block and
    past it.  A last block of one row (step + 1 rows) must not take
    numpy's matrix-vector product."""
    spec = forward_spec(which)
    params = init_kaiming(spec, 0)
    step = km._forward_block_rows(spec)
    assert step % km.FORWARD_ROW_MULTIPLE == 0
    assert step * 8 * sum(spec.widths[1:]) <= km.BLOCK_BYTES
    rng = np.random.default_rng(step)
    for rows in (0, 1, step - 1, step, step + 1, 3 * step + 37):
        x = rng.standard_normal((rows, spec.in_dim))
        pad = np.zeros((-rows % km.FORWARD_ROW_MULTIPLE, spec.in_dim))
        want = BoundMlp(spec, params).forward(np.vstack([x, pad]))[:rows]
        got = mlp_apply_np(spec, params, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["generator", "classifier", "patterns"])
@pytest.mark.parametrize("n", [18, 4003])
def test_forward_rows_do_not_depend_on_the_rows_after_them(which, n):
    """A forward on n rows gives the bytes of the first n rows of a
    forward on n + k rows, whether or not the rows end in a partial
    OpenBLAS tile (n = 18 and 4003 do) or in another block."""
    spec = forward_spec(which)
    params = init_kaiming(spec, 0)
    x = np.random.default_rng(n).standard_normal((n + 5000, spec.in_dim))
    want = mlp_apply_np(spec, params, x[:n]).tobytes()
    for k in (1, 2, 46, 5000):
        assert mlp_apply_np(spec, params, x[:n + k])[:n].tobytes() == want
