"""End-to-end acceptance suite for the default 2-d benchmark.

Trains the full pipeline at the shipped defaults (one classifier run, a
seed triple of 20k-step generator runs, and the two-classifier variant)
and checks the headline properties: profile recovery on a reference
architecture, gradient identities, double backprop against finite
differences, convergence into the max-margin regime, the KKT-residual
oracle against label-permuted controls, coverage of the training points
by generated samples, shard-conditional generation, exact duality-loss
values, and bit-exact rerun determinism.  Expect a few minutes of
runtime on one core; everything is seeded and reproducible.
"""

import functools
import time

import numpy as np
import pytest

import kktgen.autodiff as ad
from kktgen.config import RunConfig
from kktgen.datasets import circle_dataset, coverage_report, split_dataset
from kktgen.homogeneity import estimate_profile, scale_params, verify_lambda
from kktgen.kkt import duality_loss, kkt_residual_oracle, margins_np
from kktgen.models import (MlpSpec, init_kaiming, make_leaves, mlp_apply,
                           mlp_apply_np)
from kktgen.training import (ClassifierBundle, _Child, sample,
                             train_classifier, train_classifiers,
                             train_generator)
from graph_reference import finite_difference_check

CFG = RunConfig.from_text("")

# The pinned generator seeds, the samples drawn per class to score a run,
# and what is added to a run's seed to give its sampling seed.
SEEDS = (0, 10, 14)
SAMPLES_PER_CLASS = 200
SAMPLE_SEED_OFFSET = 100

# Coverage thresholds: fraction of samples near data, worst per-point
# coverage distance, and classification agreement with the conditioning
# label.  A seeded run passes when all three hold; the triple passes when
# the majority of its runs pass.
FRAC_RADIUS = 0.25
FRAC_MIN = 0.85
COVER_RADIUS = 0.35
AGREE_MIN = 0.90


# ---------------------------------------------------------------------------
# shared fixtures (module-scoped: the expensive runs happen once)


@pytest.fixture(scope="module")
def circle():
    return circle_dataset()


@pytest.fixture(scope="module")
def classifier(circle):
    """Default-config classifier: params, GD loss trajectory, profile."""
    spec = CFG.classifier_spec()
    params, trajectory = train_classifier(circle, spec,
                                          CFG.classifier_train_config())
    profile, _ = estimate_profile(spec, params)
    return spec, params, trajectory, profile


def run_metrics(gen_spec, state, dataset, spec, params, seed):
    """Sample 200/class at the evaluation seed and score coverage."""
    per, offset = SAMPLES_PER_CLASS, SAMPLE_SEED_OFFSET
    xs, ys = [], []
    for y in range(dataset.num_classes):
        x, _ = sample(gen_spec, state.gen_params, y, per, seed=offset + seed)
        xs.append(x)
        ys.append(np.full(per, y))
    samples = np.vstack(xs)
    labels = np.concatenate(ys)
    report = coverage_report(samples, labels, dataset, spec=spec,
                             zeta=params)
    near = np.linalg.norm(samples[:, None, :] - dataset.x[None],
                          axis=2).min(axis=1)
    return {
        "frac": float((near <= FRAC_RADIUS).mean()),
        "cover": float(report.per_point_min_distance.max()),
        "agree": report.label_agreement,
    }


def passes(metrics):
    return (metrics["frac"] >= FRAC_MIN
            and metrics["cover"] <= COVER_RADIUS
            and metrics["agree"] >= AGREE_MIN)


def forked_runs(run):
    """``{seed: run(seed) for seed in SEEDS}``, each call in a forked
    child of its own (:class:`training._Child`), all running at once."""
    children = []
    try:
        for seed in SEEDS:
            children.append(_Child(functools.partial(run, seed),
                                   f"the seed {seed} run"))
            children[-1].start()
        return {seed: child.result() for seed, child in zip(SEEDS, children)}
    finally:
        for child in children:
            child.close()


@pytest.fixture(scope="module")
def generator_runs(circle, classifier):
    """The pinned seed triple of default 20k-step generator runs, one
    forked child per seed: seed -> (generator parameters, loss history,
    coverage metrics)."""
    spec, params, _, profile = classifier
    bundle = ClassifierBundle(spec, params, profile, circle.size)
    gen_spec = CFG.generator_spec(circle.num_classes, circle.dim, 1)
    mult_spec = CFG.multiplier_spec(circle.num_classes, circle.dim, 1)

    def run(seed):
        state = train_generator([bundle], gen_spec, mult_spec,
                                CFG.generator_train_config(seed=seed))
        return state.gen_params, state.history, run_metrics(
            gen_spec, state, circle, spec, params, seed)

    return gen_spec, mult_spec, forked_runs(run)


# ---------------------------------------------------------------------------
# profile estimation on the reference architecture


def reference_net():
    """Linear(2,10) -> ReLU -> Linear(10,1), biases on, random weights."""
    spec = MlpSpec((2, 10, 1), bias=True)
    return spec, init_kaiming(spec, seed=7)


def test_profile_estimation_reference_architecture():
    start = time.monotonic()
    spec, params = reference_net()
    profile, _ = estimate_profile(spec, params)
    rng = np.random.default_rng(11)
    deviation = verify_lambda(spec, params, profile,
                              [-1.0, -0.5, 0.1, 0.5, 1.0],
                              rng.standard_normal((16, 2)))
    assert deviation < 1e-5
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# groupwise gradient identity under parameter scaling


def test_groupwise_gradient_scaling_identity():
    spec, params = reference_net()
    profile, _ = estimate_profile(spec, params)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(2)
    names = [name for name, _ in spec.mlp().group_shapes()]

    def logit0_gradient(p):
        """Flat gradient of logit 0 at x in the parameters, by autodiff."""
        leaves = make_leaves(spec, p)
        logits = mlp_apply(spec, leaves, ad.tensor(x))
        cots = ad.grad(ad.tsum(ad.slice_axis(logits, 0, 0, 1)),
                       [leaves[n] for n in names])
        return np.concatenate([c.value.reshape(-1) for c in cots])

    base = logit0_gradient(params)
    for alpha in (-1.0, -0.5, 0.1, 0.5, 1.0):
        scaled = logit0_gradient(scale_params(params, profile, alpha))
        offset = 0
        for name, shape in spec.mlp().group_shapes():
            n = int(np.prod(shape))
            lam = profile.lambdas[name]
            want = np.exp(alpha * (1.0 - lam)) * base[offset:offset + n]
            got = scaled[offset:offset + n]
            err = np.abs(got - want) / (np.abs(want) + 1e-9)
            assert err.max() < 1e-6
            offset += n


# ---------------------------------------------------------------------------
# double backprop vs central finite differences


def test_double_backprop_matches_finite_differences():
    start = time.monotonic()
    spec = MlpSpec((2, 8, 8, 3), bias=True)
    params = init_kaiming(spec, seed=3)
    names = [name for name, _ in spec.mlp().group_shapes()]
    rng = np.random.default_rng(17)
    v = {name: rng.standard_normal(shape)
         for name, shape in spec.mlp().group_shapes()}

    def vjp_scalar(x_leaf):
        """v . grad_zeta Phi_0(x; zeta), differentiable in x."""
        leaves = make_leaves(spec, params)
        logits = mlp_apply(spec, leaves, x_leaf)
        target = ad.tsum(ad.slice_axis(logits, logits.value.ndim - 1, 0, 1))
        cots = ad.grad(target, [leaves[n] for n in names])
        s = None
        for name, cot in zip(names, cots):
            term = ad.tsum(ad.mul(cot, ad.constant(v[name])))
            s = term if s is None else ad.add(s, term)
        return s

    def kink_distance(x):
        """Smallest |preactivation| over the hidden ReLU layers at x."""
        act, dist = np.asarray(x, dtype=np.float64), np.inf
        for layer in range(spec.n_layers):
            w = params.group(f"layer{layer}.weight").reshape(
                spec.widths[layer], spec.widths[layer + 1])
            z = act @ w + params.group(f"layer{layer}.bias")
            if layer < spec.n_layers - 1:
                dist = min(dist, float(np.abs(z).min()))
                act = np.maximum(z, 0.0)
        return dist

    checked = 0
    while checked < 20:
        x = rng.standard_normal(2)
        if kink_distance(x) < 1e-3:  # FD step must not cross a ReLU kink
            continue
        err = finite_difference_check(vjp_scalar, x, step=1e-5)
        assert err < 1e-4
        checked += 1
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# classifier reaches the max-margin regime


def test_classifier_converges_with_full_accuracy(circle, classifier):
    spec, params, trajectory, _ = classifier
    assert trajectory[-1] < np.log(2.0) / circle.size
    logits = mlp_apply_np(spec, params, circle.x)
    assert np.array_equal(np.argmax(logits, axis=1), circle.labels)


# ---------------------------------------------------------------------------
# KKT-residual oracle vs label-permuted controls


def test_kkt_oracle_beats_permuted_controls(circle, classifier):
    spec, params, _, profile = classifier
    margins = margins_np(spec, params, circle.x, circle.labels)
    rival = np.ones_like(margins, dtype=bool)
    rival[np.arange(circle.size), circle.labels] = False
    q = margins[rival].min()
    alpha = float(-np.log(q))

    residual, mu = kkt_residual_oracle(spec, params, profile, circle.x,
                                       circle.labels, alpha)
    controls = []
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(circle.labels)
        control, _ = kkt_residual_oracle(spec, params, profile, circle.x,
                                         perm, alpha)
        controls.append(control)
    assert residual <= 0.3 * np.median(controls)

    # complementary slackness: multipliers vanish off the minimum margin
    mu_max = max(mu.values())
    slack = [value for (i, c), value in mu.items()
             if margins[i, c] > 1.05 * q]
    assert all(value < 1e-6 * mu_max for value in slack)


# ---------------------------------------------------------------------------
# generated samples cover the training points


def test_generation_covers_circle(circle, generator_runs):
    _, _, runs = generator_runs
    outcomes = [passes(metrics) for _, _, metrics in runs.values()]
    assert len(outcomes) == 3
    # median of the seeded runs passes = the majority of the triple does
    assert sum(outcomes) >= 2, \
        {seed: metrics for seed, (_, _, metrics) in runs.items()}


# ---------------------------------------------------------------------------
# two-classifier extension with shard-conditional sampling


@pytest.fixture(scope="module")
def sharded_runs(circle):
    halves = split_dataset(circle)
    spec = CFG.classifier_spec()
    bundles = []
    # the second half trains in a forked child, as in train-classifier
    trained = list(train_classifiers(halves, spec,
                                     CFG.classifier_train_config()))
    for half, (params, _) in zip(halves, trained):
        profile, _ = estimate_profile(spec, params)
        bundles.append(ClassifierBundle(spec, params, profile, half.size))
    gen_spec = CFG.generator_spec(circle.num_classes, circle.dim,
                                  num_classifiers=2)
    mult_spec = CFG.multiplier_spec(circle.num_classes, circle.dim,
                                    num_classifiers=2)
    # one forked child per seed, which sends back the generator's
    # parameters
    return halves, gen_spec, forked_runs(lambda seed: train_generator(
        bundles, gen_spec, mult_spec,
        CFG.generator_train_config(seed=seed)).gen_params)


def test_sharded_generation(circle, sharded_runs):
    halves, gen_spec, runs = sharded_runs
    per, offset = SAMPLES_PER_CLASS, SAMPLE_SEED_OFFSET
    outcomes, details = [], {}
    for seed, gen_params in runs.items():
        # free classifier index: all 18 points covered within 0.35
        xs = [sample(gen_spec, gen_params, y, per, seed=offset + seed)[0]
              for y in range(circle.num_classes)]
        free = np.vstack(xs)
        cover = max(float(np.linalg.norm(free - point, axis=1).min())
                    for point in circle.x)
        # fixed index: samples strictly nearer their own half's points
        fracs = []
        for t, own in enumerate(halves):
            other = halves[1 - t]
            xs = [sample(gen_spec, gen_params, y, per, seed=offset + seed,
                         t=t)[0]
                  for y in range(circle.num_classes)]
            fixed = np.vstack(xs)
            d_own = np.linalg.norm(fixed[:, None, :] - own.x[None],
                                   axis=2).min(axis=1)
            d_other = np.linalg.norm(fixed[:, None, :] - other.x[None],
                                     axis=2).min(axis=1)
            fracs.append(float((d_own < d_other).mean()))
        details[seed] = (cover, fracs)
        outcomes.append(cover <= COVER_RADIUS
                        and all(f >= 0.85 for f in fracs))
    assert sum(outcomes) >= 2, details


# ---------------------------------------------------------------------------
# exact duality-loss values


def test_duality_loss_pointwise_values():
    alpha, delta = 0.0, 0.1
    threshold = np.exp(-alpha)
    for margin, want in ((threshold - 0.1, 0.1),
                        (threshold + delta / 2.0, 0.0),
                        (threshold + delta + 0.2, 0.2)):
        logits = np.array([[margin, 0.0]])  # margin of class 0 over class 1
        loss = duality_loss(logits, np.array([0]), alpha, delta)
        assert abs(float(loss.value) - want) < 1e-12


# ---------------------------------------------------------------------------
# bit-identical loss histories on rerun


def test_classifier_rerun_is_bit_identical(circle, classifier):
    spec, params, trajectory, _ = classifier
    again, trajectory2 = train_classifier(circle, spec,
                                          CFG.classifier_train_config())
    assert trajectory2 == trajectory
    assert np.array_equal(again.values, params.values)


def test_generator_rerun_is_bit_identical(circle, classifier,
                                          generator_runs):
    """The run of a forked child, again in this process."""
    spec, params, _, profile = classifier
    gen_spec, mult_spec, runs = generator_runs
    seed = SEEDS[0]
    gen_params, history, _ = runs[seed]
    bundle = ClassifierBundle(spec, params, profile, circle.size)
    again = train_generator([bundle], gen_spec, mult_spec,
                            CFG.generator_train_config(seed=seed))
    assert again.history == history
    assert np.array_equal(again.gen_params.values, gen_params.values)
