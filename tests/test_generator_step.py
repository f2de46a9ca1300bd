"""The closed-form generator step against the autodiff graph.

The graph below is built only from the reference oracle functions
(``mlp_apply``, ``stationarity_loss_graph``, ``duality_loss``, ``tv_loss``)
and differentiated with ``autodiff.grad``; the numpy step must reproduce
its loss and its theta, eta and alpha gradients.
"""

import numpy as np
import pytest

import kktgen.autodiff as ad
import kktgen.checkpoint as ck
import kktgen.kkt as kk
import kktgen.training as tr
from kktgen.cli import main
from kktgen.homogeneity import QuasiHomogeneousProfile, lambda_bar
from kktgen.kkt import duality_loss, stationarity_loss_graph
from kktgen.models import (BoundMlp, GeneratorSpec, MlpSpec, MultiplierSpec,
                           condition, init_kaiming, make_leaves, mlp_apply,
                           mlp_apply_np)
from test_training import small_bundle

PARITY_RTOL = 1e-10
BATCH = 24


def graph_step(bundle, gen_spec, mult_spec, state, t, labels, eps, config):
    """Loss of classifier t and its gradients through the autodiff graph."""
    gen_leaves = make_leaves(gen_spec, state.gen_params)
    mult_leaves = make_leaves(mult_spec, state.mult_params)
    alpha = ad.tensor(state.alphas[t])
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
        lambda_bar(bundle.profile, float(alpha.value)), bundle.virtual_n,
        x, labels, mu)
    l_dual = duality_loss(logits, labels, alpha, float(state.deltas[t]))
    total = ad.add(l_stat, ad.mul(l_dual, ad.constant(config.beta)))
    if config.tv_weight > 0:
        total = ad.add(total, ad.mul(tr.tv_loss(x, *config.tv_shape),
                                     ad.constant(config.tv_weight)))
    gen_names = list(state.gen_params.groups)
    mult_names = list(state.mult_params.groups)
    wrt = ([gen_leaves[n] for n in gen_names]
           + [mult_leaves[n] for n in mult_names] + [alpha])
    grads = ad.grad(total, wrt, allow_unused=True)
    flat = [g.value.reshape(-1) for g in grads]
    return (float(total.value), np.concatenate(flat[:len(gen_names)]),
            np.concatenate(flat[len(gen_names):-1]), float(flat[-1][0]))


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
        total, g_theta, g_eta, g_alpha = graph_step(
            bundles[t], gen_spec, mult_spec, state, t, labels, eps, config)
        step = tr._classifier_step(
            bundles[t], BoundMlp(bundles[t].spec, bundles[t].params),
            BoundMlp(gen_spec, state.gen_params),
            BoundMlp(mult_spec, state.mult_params), state, t, labels, eps,
            config)
        want = [want[0] + total, want[1] + g_theta, want[2] + g_eta]
        got = [got[0] + step[0], got[1] + step[4], got[2] + step[5]]
        assert g_alpha != 0.0
        assert_close(step[6], g_alpha, f"alpha_{t} gradient")
    assert_close(got[0], want[0], "loss")
    assert_close(got[1], want[1], "theta gradient")
    assert_close(got[2], want[2], "eta gradient")


def test_tv_and_duality_gradients_at_ties_match_graph():
    """|.| and the band edges have derivative 0 at exact ties."""
    x = np.array([[0.0, 1.0, 1.0, 0.0, 2.0, 2.0],
                  [1.0, 1.0, 1.0, 1.0, 0.0, 3.0]])
    value, grad = tr._tv_value_grad(x, 2, 3)
    x_t = ad.tensor(x)
    ref = tr.tv_loss(x_t, 2, 3)
    assert value == ref.item()
    assert np.array_equal(grad, ad.grad(ref, [x_t])[0].value)

    # alpha = 0: margins 1.0 and 1.5 sit exactly on the band [1, 1.5]
    logits = np.array([[2.0, 1.0, 0.0], [0.0, 1.5, 0.0], [3.0, 0.0, 0.5]])
    labels = np.array([0, 1, 0])
    l_dual, dlogits, dalpha = kk._duality_grads(logits, labels, 0.0, 0.5,
                                                kk.DEFAULT_TIE_TOL)
    logits_t, alpha_t = ad.tensor(logits), ad.tensor(0.0)
    ref = duality_loss(logits_t, labels, alpha_t, 0.5)
    g_logits, g_alpha = ad.grad(ref, [logits_t, alpha_t])
    assert l_dual == ref.item()
    assert np.array_equal(dlogits, g_logits.value)
    assert dalpha == g_alpha.item()


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
            "[classifier]\nwidths = 2,8,3\nrefine_margins = false\n"
            "[generator]\nhidden = 8\n[multiplier]\nhidden = 8\n"
            "[generator_training]\nbatch_size = 8\nsteps = {steps}\n")
    cfg.write_text(body.format(steps=3))
    out = tmp_path / "runs" / "demo"
    clf = out / "classifier.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    gen = out / "generator.ckpt"
    gen_spec, mult_spec, state, meta = ck.load_generator(gen)
    state.gen_params.values[0] = np.nan
    ck.save_generator(gen, gen_spec, mult_spec, state,
                      config_hash=meta["config_hash"])
    cfg.write_text(body.format(steps=6))
    capsys.readouterr()
    assert main(["train-generator", str(cfg), str(clf), "--resume"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "non-finite" in err[0]
