"""The closed-form generator step against the autodiff graph, and the
step loop against the loop it replaced.

The graph below is built only from the reference oracle functions
(``mlp_apply``, ``stationarity_loss_graph``, ``duality_loss``, ``tv_loss``)
and differentiated with ``autodiff.grad``; the numpy step must reproduce
its loss and its theta and eta gradients.  ``reference_train``
keeps the step loop as it was before its per-run set-up was hoisted out,
with a fresh ``np.random.default_rng([seed, stream, step])`` per draw,
the strided numpy TV (``graph_reference.tv_value_grad``) and gradient
sums from 0.0, and ``train_generator`` must match it bit for bit.
"""

import numpy as np
import pytest

import kktgen.autodiff as ad
import kktgen.checkpoint as ck
import kktgen.kkt as kk
import kktgen.training as tr
from kktgen.cli import main
from kktgen.config import RunConfig
from kktgen.homogeneity import QuasiHomogeneousProfile, lambda_bar
from kktgen.kernels import TotalVariation
from kktgen.kkt import duality_loss, stationarity_loss_graph
from kktgen.models import (BoundMlp, GeneratorSpec, MlpSpec, MultiplierSpec,
                           condition, init_kaiming, make_leaves, mlp_apply,
                           mlp_apply_np)
from graph_reference import tv_loss, tv_value_grad
from test_kkt import duality_terms
from test_training import small_bundle

PARITY_RTOL = 1e-10
BATCH = 24


def graph_step(bundle, gen_spec, mult_spec, state, t, labels, eps, config):
    """Loss of classifier t and its gradients through the autodiff graph."""
    gen_leaves = make_leaves(gen_spec, state.gen_params)
    mult_leaves = make_leaves(mult_spec, state.mult_params)
    alpha = float(state.alphas[t])
    cond = [ad.one_hot(labels, gen_spec.num_classes)]
    if gen_spec.conditions_on_classifier:
        cond.append(ad.one_hot(np.full(labels.size, t),
                               gen_spec.num_classifiers))
    x = mlp_apply(gen_spec.mlp(), gen_leaves,
                  ad.concat([ad.constant(eps)] + cond, axis=1))
    mu = ad.relu(mlp_apply(mult_spec.mlp(), mult_leaves,
                           ad.concat([x] + cond, axis=1)))
    l_stat, logits = stationarity_loss_graph(
        bundle.spec, make_leaves(bundle.spec, bundle.params),
        lambda_bar(bundle.profile, alpha), bundle.virtual_n,
        x, labels, mu)
    l_dual = duality_loss(logits, labels, alpha, float(state.deltas[t]))
    total = ad.add(l_stat, ad.mul(l_dual, ad.constant(config.beta)))
    if config.tv_weight > 0:
        total = ad.add(total, ad.mul(tv_loss(x, *config.tv_shape),
                                     ad.constant(config.tv_weight)))
    gen_names = list(state.gen_params.groups)
    mult_names = list(state.mult_params.groups)
    wrt = ([gen_leaves[n] for n in gen_names]
           + [mult_leaves[n] for n in mult_names])
    grads = ad.grad(total, wrt, allow_unused=True)
    flat = [g.value.reshape(-1) for g in grads]
    return (float(total.value), np.concatenate(flat[:len(gen_names)]),
            np.concatenate(flat[len(gen_names):]))


def random_setup(seed, n_layers, bias, t_count, tv):
    """Random classifier(s), generator and multiplier with an active band."""
    rng = np.random.default_rng(seed)
    classes = int(rng.integers(2, 5))
    dim = 6 if tv else int(rng.integers(2, 5))
    widths = (dim, *rng.integers(4, 9, size=n_layers - 1), classes)
    spec = MlpSpec(widths, bias)
    gen_spec = GeneratorSpec(3, classes, (int(rng.integers(5, 9)),), dim,
                             num_classifiers=t_count)
    mult_spec = MultiplierSpec(dim, classes, (int(rng.integers(5, 9)), 6),
                               num_classifiers=t_count)
    bundles = []
    for k in range(t_count):
        params = init_kaiming(spec, seed * 10 + k)
        if bias:
            params.values[:] += 0.1 * rng.standard_normal(len(params))
        lambdas = {n: (1.0 if n.endswith("weight") else
                       float(rng.uniform(0.2, 0.9)))
                   for n in params.groups}
        bundles.append(tr.ClassifierBundle(
            spec, params, QuasiHomogeneousProfile(lambdas), 18))
    gen_params = init_kaiming(gen_spec.mlp(), seed + 100)
    gen_params.values[:] += 0.05 * rng.standard_normal(len(gen_params))
    mult_params = init_kaiming(mult_spec.mlp(), seed + 200)
    mult_params.values[:] += 0.05 * rng.standard_normal(len(mult_params))
    labels = rng.integers(0, classes, size=BATCH)
    eps = rng.standard_normal((BATCH, 3))
    alphas, deltas = [], []
    for k, bundle in enumerate(bundles):
        cond = condition(eps, labels, k, gen_spec)
        logits = mlp_apply_np(spec, bundle.params,
                              mlp_apply_np(gen_spec, gen_params, cond))
        margins = np.abs(logits[np.arange(BATCH), labels][:, None]
                         - logits)
        mid = float(np.median(margins[margins > 0]))
        alphas.append(-np.log(mid))
        deltas.append(0.5 * mid)
    state = tr.GeneratorTrainState(gen_params, mult_params,
                                   np.array(alphas), np.array(deltas))
    config = tr.GeneratorTrainConfig(
        beta=1.7, tv_weight=0.3 if tv else 0.0,
        tv_shape=(2, 3) if tv else ())
    return bundles, gen_spec, mult_spec, state, labels, eps, config


def assert_close(got, want, what):
    scale = max(np.max(np.abs(want)), 1e-300)
    err = np.max(np.abs(np.asarray(got) - want)) / scale
    assert err <= PARITY_RTOL, f"{what}: relative error {err:.3g}"


CASES = [
    # seed, classifier layers, bias, T, full_sum, tv
    (0, 2, False, 1, False, False),
    (1, 3, True, 1, False, False),
    (2, 4, False, 1, False, True),
    (3, 2, True, 2, False, False),
    (4, 3, False, 2, True, False),
    (5, 4, True, 2, True, True),
]


@pytest.mark.parametrize("seed,n_layers,bias,t_count,full_sum,tv", CASES)
def test_closed_form_step_matches_graph(seed, n_layers, bias, t_count,
                                        full_sum, tv):
    bundles, gen_spec, mult_spec, state, labels, eps, config = \
        random_setup(seed, n_layers, bias, t_count, tv)
    active = range(t_count) if full_sum else [t_count - 1]
    want = [0.0, 0.0, 0.0]
    got = [0.0, 0.0, 0.0]
    for t in active:
        total, g_theta, g_eta = graph_step(
            bundles[t], gen_spec, mult_spec, state, t, labels, eps, config)
        target = kk.stationarity_target(
            bundles[t].params,
            lambda_bar(bundles[t].profile, float(state.alphas[t])),
            bundles[t].virtual_n)
        gen = BoundMlp(gen_spec, state.gen_params)
        mult = BoundMlp(mult_spec, state.mult_params)
        kkt = kk.KktTerms(BoundMlp(bundles[t].spec, bundles[t].params),
                          target, BATCH, float(state.alphas[t]),
                          float(state.deltas[t]), config.beta)
        x = gen.forward(condition(eps, labels, t, gen_spec))
        step = tr._classifier_step(
            kkt, gen, mult, x, t, labels, config,
            np.empty((BATCH, mult.mlp.in_dim)),
            TotalVariation(BATCH, *config.tv_shape) if tv else None)
        want = [want[0] + total, want[1] + g_theta, want[2] + g_eta]
        got = [got[0] + step[0], got[1] + step[4], got[2] + step[5]]
    assert_close(got[0], want[0], "loss")
    assert_close(got[1], want[1], "theta gradient")
    assert_close(got[2], want[2], "eta gradient")


def test_tv_and_duality_gradients_at_ties_match_graph():
    """|.| and the band edges have derivative 0 at exact ties."""
    x = np.array([[0.0, 1.0, 1.0, 0.0, 2.0, 2.0],
                  [1.0, 1.0, 1.0, 1.0, 0.0, 3.0]])
    value, grad = TotalVariation(2, 2, 3)(x)
    x_t = ad.tensor(x)
    ref = tv_loss(x_t, 2, 3)
    assert value == ref.item()
    assert np.array_equal(grad, ad.grad(ref, [x_t])[0].value)

    # alpha = 0: margins 1.0 and 1.5 sit exactly on the band [1, 1.5]
    logits = np.array([[2.0, 1.0, 0.0], [0.0, 1.5, 0.0], [3.0, 0.0, 0.5]])
    labels = np.array([0, 1, 0])
    l_dual, dlogits = duality_terms(logits, labels, 0.0, 0.5)
    logits_t = ad.tensor(logits)
    ref = duality_loss(logits_t, labels, 0.0, 0.5)
    (g_logits,) = ad.grad(ref, [logits_t])
    assert l_dual == ref.item()
    assert np.array_equal(dlogits, g_logits.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("corrupt", ["gen_nan", "mult_inf", "x_overflow"])
def test_non_finite_state_aborts_training(corrupt):
    bundle, _ = small_bundle()
    gen_spec = GeneratorSpec(3, 2, (8,), 2)
    mult_spec = MultiplierSpec(2, 2, (8,))
    state = tr.train_generator([bundle], gen_spec, mult_spec,
                               tr.GeneratorTrainConfig(steps=2,
                                                       batch_size=8))
    if corrupt == "gen_nan":
        state.gen_params.values[3] = np.nan
    elif corrupt == "mult_inf":
        state.mult_params.values[0] = np.inf
    else:
        state.gen_params.values[:] *= 1e200
    with pytest.raises(tr.TrainingAborted) as err:
        tr.train_generator([bundle], gen_spec, mult_spec,
                           tr.GeneratorTrainConfig(steps=4, batch_size=8),
                           state=state)
    assert err.value.step == 2
    assert "non-finite" in str(err.value)


def test_non_finite_resume_exits_numeric(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    body = ("[experiment]\nname = demo\n"
            f"output_dir = {tmp_path / 'runs'}\n"
            "[classifier]\nwidths = 2,8,3\nrefine_iters = 0\n"
            "[generator]\nhidden = 8\n[multiplier]\nhidden = 8\n"
            "[generator_training]\nbatch_size = 8\nsteps = {steps}\n")
    cfg.write_text(body.format(steps=3))
    out = tmp_path / "runs" / "demo"
    clf = out / "classifier.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    gen = out / "generator.ckpt"
    # loaded with the run's config, so the re-saved checkpoint keeps the
    # optimizer state a resume needs
    run_config = RunConfig.from_file(cfg).generator_train_config()
    gen_spec, mult_spec, state, meta = ck.load_generator(gen, run_config)
    state.gen_params.values[0] = np.nan
    ck.save_generator(gen, gen_spec, mult_spec, state,
                      config_hash=meta["config_hash"])
    cfg.write_text(body.format(steps=6))
    capsys.readouterr()
    assert main(["train-generator", str(cfg), str(clf), "--resume"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "non-finite" in err[0]


# ---------------------------------------------------------------------------
# the lean step loop against the loop it replaced, bit for bit


def class_sum(a):
    """Row sums of an (M, C) array that add the classes in class order,
    from 0.0: numpy's row sum below 8 classes, which from 8 on adds them
    pairwise, and the order of :class:`kkt.KktTerms` at any C."""
    total = np.zeros(a.shape[0])
    for column in a.T:
        total = total + column
    return total


@pytest.mark.parametrize("m", [1, 2, 64])
def test_class_sum_is_numpys_row_sum_below_eight_classes(m):
    """So the reference loop, whose cases have at most 3 classes, sums
    as it did with numpy's row sums."""
    rng = np.random.default_rng(m)
    for num_classes in range(2, 8):
        a = rng.standard_normal((m, num_classes)) * 10.0 ** rng.integers(
            -8, 8, size=(m, num_classes))
        a.flat[::3] = -0.0
        assert class_sum(a).tobytes() == a.sum(axis=1).tobytes()


def reference_duality_grads(logits, labels, alpha, delta):
    m = labels.size
    rows = np.arange(m)
    threshold = np.exp(-alpha)
    z = logits[rows, labels][:, None] - logits - threshold
    rivals = logits.copy()
    rivals[rows, labels] = -np.inf
    best = rivals.max(axis=1, keepdims=True)
    mask = (rivals >= best - kk.DEFAULT_TIE_TOL).astype(np.float64)
    per_pair = mask * (np.maximum(z - delta, 0.0) - np.minimum(z, 0.0))
    l_dual = float(np.sum(per_pair) * (1.0 / m))
    dz = mask * ((z - delta > 0.0) * 1.0 - (z < 0.0)) * (1.0 / m)
    dlogits = -dz
    dlogits[rows, labels] += class_sum(dz)
    return l_dual, dlogits


def reference_jvp(zeta, acts, tangent):
    dz = None
    for l, (a, w_dot, (_, _, b)) in enumerate(
            zip(acts, zeta.weights_of(tangent), zeta.layout)):
        if l == 0:
            dz = a @ w_dot
        else:
            dz = (dz * (a > 0.0)) @ zeta.weights[l] + a @ w_dot
        if b is not None:
            dz = dz + tangent[b]
    return dz


def reference_kkt_loss_grads(zeta, lbar_weights, virtual_n, x, labels, mu,
                             alpha, delta, beta):
    m = labels.size
    rows = np.arange(m)
    logits = zeta.forward(x)
    not_y = np.ones_like(mu)
    not_y[rows, labels] = 0.0
    mu_rivals = mu * not_y
    coeff = -mu_rivals
    coeff[rows, labels] = class_sum(mu_rivals)
    deltas = zeta.backprop(coeff)
    params = zeta.params
    target = np.concatenate([params.group(name)
                             * (lbar_weights[name] / virtual_n)
                             for name in params.groups])
    r = target - zeta.param_grad(deltas) * (1.0 / m)
    l_stat = float(np.sqrt(r @ r + kk.NORM_EPS))
    tangent = r * (-1.0 / (m * l_stat))
    dcoeff = reference_jvp(zeta, zeta.acts, tangent)
    dmu = (dcoeff[rows, labels][:, None] - dcoeff) * not_y
    l_dual, dlogits = reference_duality_grads(logits, labels, alpha, delta)
    inject = [d @ v.T for d, v in zip(deltas, zeta.weights_of(tangent))]
    dx = zeta.input_cotangent(zeta.backprop(dlogits * beta, inject), inject)
    return l_stat, l_dual, dx, dmu


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.tobytes() == w.tobytes()
        assert np.array_equal(np.signbit(g), np.signbit(w))


def kernel_against_reference(spec, params, x, labels, mu_pre, alpha, delta,
                             beta=1.7):
    """The :class:`kkt.KktTerms` outputs and the reference's, with the
    multiplier ReLU and its mask applied as the step applies them."""
    lbar = {name: 0.4 for name in params.groups}
    kkt = kk.KktTerms(BoundMlp(spec, params),
                      kk.stationarity_target(params, lbar, 30), len(x),
                      alpha, delta, beta)
    got = [np.array(v) for v in kkt(x, labels, mu_pre)]
    l_stat, l_dual, dx, dmu = reference_kkt_loss_grads(
        BoundMlp(spec, params), lbar, 30, x, labels,
        np.maximum(mu_pre, 0.0), alpha, delta, beta)
    return got, [l_stat, l_dual, dx, dmu * (mu_pre > 0.0)]


def multipliers(rng, m, num_classes):
    """Pre-activation multipliers with exact zeros of both signs."""
    mu_pre = rng.standard_normal((m, num_classes))
    mu_pre.flat[::5] = 0.0
    mu_pre.flat[1::7] = -0.0
    return mu_pre


KERNEL_CLASSES = [2, 3, 5, 8]


@pytest.mark.parametrize("case", ["random", "tied-rivals", "one-class",
                                  "one-row"])
@pytest.mark.parametrize("num_classes", KERNEL_CLASSES)
def test_kkt_terms_match_the_reference_bit_for_bit(num_classes, case):
    """Every output of the kernel has the reference's bytes, signed zeros
    included: rival logits that tie exactly (the last two classes share
    their weights), a batch of one class, a batch of one row, and
    multipliers with exact zeros."""
    rng = np.random.default_rng(num_classes)
    spec = MlpSpec((3, 7, num_classes), True)
    params = init_kaiming(spec, num_classes)
    params.values[:] += 0.1 * rng.standard_normal(len(params))
    m = 1 if case == "one-row" else 24
    x = rng.standard_normal((m, 3))
    labels = rng.integers(0, num_classes, size=m)
    if case == "one-class":
        labels[:] = num_classes - 1
    if case == "tied-rivals":
        for group in ("layer1.weight", "layer1.bias"):
            values = params.group(group).reshape(-1, num_classes)
            values[:, -1] = values[:, -2]
    logits = mlp_apply_np(spec, params, x)
    if case == "tied-rivals":
        assert np.array_equal(logits[:, -1], logits[:, -2])
    margins = logits[np.arange(m), labels][:, None] - logits
    mid = float(np.median(np.abs(margins))) + 0.1
    got, want = kernel_against_reference(
        spec, params, x, labels, multipliers(rng, m, num_classes),
        -np.log(mid), 0.5 * mid)
    assert_same_bits(got, want)


@pytest.mark.parametrize("num_classes", KERNEL_CLASSES)
def test_kkt_terms_at_the_band_edges_match_the_reference(num_classes):
    """Second-place margins below, inside, above and exactly on both
    edges of the band [1, 1.5] (alpha = 0), some of them tied: the
    classifier is the identity, so the logits are the inputs."""
    spec = MlpSpec((num_classes, num_classes), False)
    params = init_kaiming(spec, 0)
    params.group("layer0.weight")[:] = np.eye(num_classes).ravel()
    x = np.full((6, num_classes), -5.0)
    x[:, 0] = 2.0
    # the best rival logit of each row: margins 0.5, 1, 1.25, 1.5, 3 and
    # a tie at 1
    x[:, 1] = [1.5, 1.0, 0.75, 0.5, -1.0, 1.0]
    x[5, -1] = 1.0
    labels = np.zeros(6, dtype=np.int64)
    rng = np.random.default_rng(num_classes)
    got, want = kernel_against_reference(
        spec, params, x, labels, multipliers(rng, 6, num_classes), 0.0, 0.5)
    assert_same_bits(got, want)
    assert got[1] == (0.5 + 1.5) / 6  # the rows below and above the band


class RecordedKktTerms(kk.KktTerms):
    """:class:`kkt.KktTerms` that records every binding."""

    bound = []

    def __init__(self, *args):
        super().__init__(*args)
        self.bound.append(self)


def test_kernels_of_a_full_sum_run_keep_separate_buffers(monkeypatch):
    """A T = 2 full-sum run binds one kernel per classifier, and no array
    of one shares memory with an array of the other, so one's outputs
    survive a call of the other."""
    bundles, gen_spec, mult_spec, config = loop_setup("T2-full-sum")
    monkeypatch.setattr(tr, "KktTerms", RecordedKktTerms)
    monkeypatch.setattr(RecordedKktTerms, "bound", [])
    tr.train_generator(bundles, gen_spec, mult_spec, config)
    first, second = RecordedKktTerms.bound

    def arrays(kkt):
        return [a for a in vars(kkt).values() if isinstance(a, np.ndarray)]

    assert not any(np.shares_memory(a, b) for a in arrays(first)
                   for b in arrays(second))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((config.batch_size, gen_spec.out_dim))
    labels = rng.integers(0, gen_spec.num_classes, size=config.batch_size)
    mu_pre = rng.standard_normal((config.batch_size, gen_spec.num_classes))
    out = first(x, labels, mu_pre)
    kept = [np.array(v) for v in out]
    second(x, labels, mu_pre)
    assert_same_bits(out, kept)


def test_kkt_terms_allocate_no_array_data_after_the_first_call(traced):
    """After its first call a kernel's call allocates no numpy array
    data: none is left allocated (tracemalloc's numpy domain), and the
    traced peak of the call stays below one float per row, which any
    temporary of the batch's shape exceeds.  The batch is large enough
    that Python's own allocations in the call stay below that."""
    rng = np.random.default_rng(1)
    spec = MlpSpec((3, 7, 5, 3), False)
    params = init_kaiming(spec, 1)
    m = 4096
    x = rng.standard_normal((m, 3))
    labels = rng.integers(0, 3, size=m)
    mu_pre = rng.standard_normal((m, 3))
    kkt = kk.KktTerms(BoundMlp(spec, params),
                      np.zeros(len(params)), m, 0.2, 0.5, 3.0)
    kkt(x, labels, mu_pre)
    peak, left = traced(lambda: kkt(x, labels, mu_pre))
    assert not left
    assert peak < 8 * m


def reference_classifier_step(classifier, zeta, gen, mult, state, t, labels,
                              eps, config):
    x = gen.forward(condition(eps, labels, t, gen.spec))
    mu_pre = mult.forward(condition(x, labels, t, mult.spec))
    alpha = float(state.alphas[t])
    l_stat, l_dual, dx, dmu = reference_kkt_loss_grads(
        zeta, lambda_bar(classifier.profile, alpha), classifier.virtual_n,
        x, labels, np.maximum(mu_pre, 0.0), alpha, float(state.deltas[t]),
        config.beta)
    total = l_stat + l_dual * config.beta
    l_tv = 0.0
    if config.tv_weight > 0:
        l_tv, dtv = tv_value_grad(x, *config.tv_shape)
        total = total + l_tv * config.tv_weight
        dx = dx + dtv * config.tv_weight
    mult_deltas = mult.backprop(dmu * (mu_pre > 0.0))
    dcond = mult.input_cotangent(mult_deltas)
    gen_deltas = gen.backprop(dx + dcond[:, :x.shape[1]])
    return (total, l_stat, l_dual, l_tv, gen.param_grad(gen_deltas),
            mult.param_grad(mult_deltas))


def reference_train(classifiers, gen_spec, mult_spec, config, state):
    """The step loop before the per-run set-up was hoisted out of it:
    ``rng.choice`` labels, a fresh conditional input per call and
    ``lambda_bar`` every step."""
    t_count = len(classifiers)
    offset = int(np.random.default_rng([config.seed, 7, 0])
                 .integers(t_count))
    probs = config.label_probs(gen_spec.num_classes)
    zetas = [BoundMlp(cb.spec, cb.params) for cb in classifiers]
    gen = BoundMlp(gen_spec, state.gen_params)
    mult = BoundMlp(mult_spec, state.mult_params)
    while state.step < config.steps:
        step = state.step
        rng = np.random.default_rng([config.seed, 0, step])
        active = (list(range(t_count)) if config.full_sum
                  else [(offset + step) % t_count])
        total = 0.0
        g_theta = g_eta = 0.0
        parts = {"stat": 0.0, "dual": 0.0, "tv": 0.0}
        for t in active:
            labels = rng.choice(gen_spec.num_classes,
                                size=config.batch_size, p=probs)
            eps = rng.standard_normal((config.batch_size,
                                       gen_spec.noise_dim))
            loss_t, l_stat, l_dual, l_tv, g_th, g_et = \
                reference_classifier_step(classifiers[t], zetas[t], gen,
                                          mult, state, t, labels, eps,
                                          config)
            total = total + loss_t
            g_theta = g_theta + g_th
            g_eta = g_eta + g_et
            parts["stat"] += l_stat
            parts["dual"] += l_dual
            parts["tv"] += l_tv
        state.optimizers["theta"].step(state.gen_params.values, g_theta)
        state.optimizers["eta"].step(state.mult_params.values, g_eta)
        state.history.append((step, active[0] if len(active) == 1 else -1,
                              parts["stat"], parts["dual"], parts["tv"],
                              float(total)))
        state.step += 1
    return state


def homogeneous_bundle(widths, bias, seed, virtual_n=12):
    """A random classifier with its exact scaling profile: weights scale
    with 1/L, the bias of layer l with (l + 1)/L."""
    spec = MlpSpec(widths, bias)
    params = init_kaiming(spec, seed)
    params.values[:] += 0.05 * np.random.default_rng(seed).standard_normal(
        len(params))
    depth = spec.n_layers
    lambdas = {name: (1.0 / depth if name.endswith("weight")
                      else (int(name[5:name.index(".")]) + 1) / depth)
               for name in params.groups}
    return tr.ClassifierBundle(spec, params,
                               QuasiHomogeneousProfile(lambdas), virtual_n)


def loop_setup(case):
    """(bundles, gen_spec, mult_spec, config) of a named loop case."""
    base = dict(batch_size=12, steps=24, seed=3)
    dim, classes, t_count, bias = 2, 3, 1, False
    if case == "T1":
        pass
    elif case in ("T2-round-robin", "T2-full-sum"):
        t_count, bias = 2, True
        base["full_sum"] = case == "T2-full-sum"
    elif case == "tv":
        dim, classes = 4, 2
        base.update(tv_weight=0.05, tv_shape=(2, 2))
    elif case == "T3-full-sum-tv":
        dim, classes, t_count = 4, 2, 3
        base.update(full_sum=True, tv_weight=0.05, tv_shape=(2, 2))
    elif case == "labels-with-a-zero":
        base["label_distribution"] = (0.5, 0.0, 0.5)
    bundles = [homogeneous_bundle((dim, 8, 6, classes), bias, 11 + k)
               for k in range(t_count)]
    gen_spec = GeneratorSpec(3, classes, (10, 8), dim,
                             num_classifiers=t_count)
    mult_spec = MultiplierSpec(dim, classes, (9,), num_classifiers=t_count)
    return bundles, gen_spec, mult_spec, tr.GeneratorTrainConfig(**base)


def fresh_state(bundles, gen_spec, mult_spec, config):
    return tr.train_generator(bundles, gen_spec, mult_spec,
                              tr.GeneratorTrainConfig(
                                  **{**config.__dict__, "steps": 0}))


def bits(value):
    return np.float64(value).tobytes()


def assert_same_run(got, want):
    assert [[bits(v) for v in row] for row in got.history] \
        == [[bits(v) for v in row] for row in want.history]
    assert np.array_equal(got.gen_params.values, want.gen_params.values)
    assert np.array_equal(got.mult_params.values, want.mult_params.values)
    assert got.alphas.tobytes() == want.alphas.tobytes()
    for name in ("theta", "eta"):
        a, b = got.optimizers[name], want.optimizers[name]
        assert a.t == b.t, name
        assert a.m.tobytes() == b.m.tobytes(), name
        assert a.v.tobytes() == b.v.tobytes(), name


# the full_sum cases run each classifier after the first in a forked child
LOOP_CASES = ["T1", "T2-round-robin", "T2-full-sum", "tv",
              "labels-with-a-zero", "T3-full-sum-tv"]


@pytest.mark.parametrize("case", LOOP_CASES)
def test_train_generator_matches_reference_loop_bit_for_bit(case):
    bundles, gen_spec, mult_spec, config = loop_setup(case)
    want = reference_train(bundles, gen_spec, mult_spec, config,
                           fresh_state(bundles, gen_spec, mult_spec, config))
    got = tr.train_generator(bundles, gen_spec, mult_spec, config,
                             state=fresh_state(bundles, gen_spec, mult_spec,
                                               config))
    assert got.step == want.step == config.steps
    assert_same_run(got, want)


def resumed_run(tmp_path, bundles, gen_spec, mult_spec, config):
    """9 steps, a checkpoint, and a resume to ``config.steps``."""
    part = tr.train_generator(bundles, gen_spec, mult_spec,
                              tr.GeneratorTrainConfig(
                                  **{**config.__dict__, "steps": 9}))
    path = tmp_path / "part.ckpt"
    ck.save_generator(path, gen_spec, mult_spec, part)
    _, _, loaded, _ = ck.load_generator(path, config=config)
    return tr.train_generator(bundles, gen_spec, mult_spec, config,
                              state=loaded)


@pytest.mark.parametrize("case", ["T2-round-robin", "T2-full-sum", "tv"])
def test_resume_through_checkpoint_rebuilds_the_step_state(tmp_path, case):
    """k steps, a checkpoint, and a resume equal one uninterrupted run."""
    bundles, gen_spec, mult_spec, config = loop_setup(case)
    straight = tr.train_generator(bundles, gen_spec, mult_spec, config)
    assert_same_run(resumed_run(tmp_path, bundles, gen_spec, mult_spec,
                                config), straight)


def test_alpha_is_the_duality_band_alpha_on_every_step(tmp_path):
    """No step moves alpha: each alpha_t of a T = 2 full-sum run after
    every step, and of its resume through a checkpoint, is the
    classifier's :func:`training.duality_band` alpha, bit for bit."""
    bundles, gen_spec, mult_spec, config = loop_setup("T2-full-sum")
    band = [bits(tr.duality_band(cb, config, t)[0])
            for t, cb in enumerate(bundles)]
    seen = []
    tr.train_generator(bundles, gen_spec, mult_spec, config,
                       callback=lambda s: seen.append(
                           [bits(a) for a in s.alphas]))
    assert seen == [band] * config.steps
    resumed = resumed_run(tmp_path, bundles, gen_spec, mult_spec, config)
    assert [bits(a) for a in resumed.alphas] == band


def test_a_stopped_full_sum_run_leaves_its_values_in_the_state():
    """A full_sum run that its callback stops after step 5 leaves the
    values of those 5 steps in the state's own arrays, as a 5-step run
    does, though the children computed classifier 1's terms in shared
    memory."""
    bundles, gen_spec, mult_spec, config = loop_setup("T2-full-sum")
    state = fresh_state(bundles, gen_spec, mult_spec, config)
    theta, eta = state.gen_params.values, state.mult_params.values

    def stop(s):
        if s.step == 5:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        tr.train_generator(bundles, gen_spec, mult_spec, config,
                           state=state, callback=stop)
    assert state.gen_params.values is theta
    assert state.mult_params.values is eta
    assert_same_run(state, tr.train_generator(
        bundles, gen_spec, mult_spec,
        tr.GeneratorTrainConfig(**{**config.__dict__, "steps": 5})))
