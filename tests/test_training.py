"""Unit tests for classifier and generator training loops."""

import os
import signal

import numpy as np
import pytest

import kktgen.training as tr
from kktgen.config import RunConfig
from kktgen.datasets import (LabeledDataset, circle_dataset,
                             pattern_dataset, split_dataset)
from kktgen.homogeneity import QuasiHomogeneousProfile, estimate_profile
from kktgen.kernels import TotalVariation
from kktgen.models import (GeneratorSpec, MlpSpec, MultiplierSpec,
                           init_kaiming, mlp_apply_np)
from kktgen.training import (ClassifierBundle, ClassifierTrainConfig,
                             ConvergenceError, GeneratorTrainConfig)
from graph_reference import tv_loss, tv_value_grad


def tiny_dataset():
    """Four linearly separable 2-d points in two classes."""
    x = np.array([[1.0, 0.2], [0.8, -0.1], [-1.0, 0.1], [-0.9, -0.2]])
    return LabeledDataset(x, np.array([0, 0, 1, 1]), num_classes=2)


def small_bundle(seed=0):
    """A quickly trained bias-free classifier with its profile."""
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(seed=seed, refine_iters=0)
    params, _ = tr.train_classifier(data, spec, config)
    profile, _ = estimate_profile(spec, params)
    return ClassifierBundle(spec, params, profile, data.size), data


def test_classifier_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        ClassifierTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="extra epochs"):
        ClassifierTrainConfig(extra_epochs=-1)


def test_train_classifier_converges_and_separates():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(refine_iters=0)
    params, trajectory = tr.train_classifier(data, spec, config)
    assert trajectory[-1] < np.log(2.0) / data.size
    pred = np.argmax(mlp_apply_np(spec, params, data.x), axis=1)
    assert np.array_equal(pred, data.labels)
    assert all(a >= b - 1e-12 for a, b in zip(trajectory, trajectory[1:]))


def test_train_classifier_deterministic():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(refine_iters=0)
    p1, t1 = tr.train_classifier(data, spec, config)
    p2, t2 = tr.train_classifier(data, spec, config)
    assert np.array_equal(p1.values, p2.values)
    assert t1 == t2
    p3, _ = tr.train_classifier(data, spec,
                                ClassifierTrainConfig(seed=1,
                                                      refine_iters=0))
    assert not np.array_equal(p1.values, p3.values)


def test_train_classifier_convergence_error_carries_trajectory():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(max_epochs=3, refine_iters=0)
    with pytest.raises(ConvergenceError) as err:
        tr.train_classifier(data, spec, config)
    assert len(err.value.trajectory) == 3


def test_train_classifier_stops_at_zero_gradient():
    """Diverging GD kills every ReLU; the fixed point ends training."""
    data = pattern_dataset()
    spec = MlpSpec((64, 32, 32, 2), False)
    with pytest.raises(ConvergenceError, match="exactly zero") as err:
        tr.train_classifier(data, spec,
                            ClassifierTrainConfig(learning_rate=0.1))
    trajectory = err.value.trajectory
    assert len(trajectory) <= 10
    assert trajectory[-1] == pytest.approx(data.size * np.log(2.0))


def test_train_classifier_stops_on_a_loss_plateau():
    """A bias-free (2,8,3) net on arc shard 0 sits near 3 log 3 and
    would run all 200 000 epochs; at its rate of fall it cannot reach
    the threshold, which the plateau stop sees at a window's end."""
    shard, _ = split_dataset(circle_dataset())
    with pytest.raises(ConvergenceError, match="loss plateau") as err:
        tr.train_classifier(shard, MlpSpec((2, 8, 3), False),
                            ClassifierTrainConfig())
    trajectory = err.value.trajectory
    assert len(trajectory) <= 5000
    assert (len(trajectory) - 1) % tr.PLATEAU_WINDOW == 0


def stall():
    raise ConvergenceError("stalled", [2.0, 1.5])


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("failing,how,error", [
    (0, stall, ConvergenceError), (1, stall, ConvergenceError),
    (1, kill_self, ChildProcessError)],
    ids=["parent-stalls", "child-stalls", "child-is-killed"])
def test_train_classifiers_raises_a_failure_at_its_turn(monkeypatch,
                                                        failing, how,
                                                        error):
    """On a split, the second shard trains in a forked child.  A failure
    of either shard is raised at that shard's turn, the child's
    ConvergenceError with its trajectory; the first shard's result comes
    before the second's failure, nothing comes after one, and no child
    is left."""
    config = RunConfig.from_text("[dataset]\nsplit = arc\n"
                                 "[classifier]\nrefine_iters = 0\n")
    datasets = config.dataset()
    train = tr.train_classifier

    def failing_on_one(dataset, spec, train_config):
        if dataset is datasets[failing]:
            how()
        return train(dataset, spec, train_config)

    # a forked child inherits the patch
    monkeypatch.setattr(tr, "train_classifier", failing_on_one)
    results = tr.train_classifiers(datasets, config.classifier_spec(),
                                   config.classifier_train_config())
    if failing:
        params, trajectory = next(results)
        assert params.values.size and trajectory[-1] < trajectory[0]
    with pytest.raises(error) as info:
        next(results)
    if how is stall:
        assert str(info.value) == "stalled"
        assert info.value.trajectory == [2.0, 1.5]
    with pytest.raises(StopIteration):
        next(results)


def abort():
    raise tr.TrainingAborted("non-finite loss at step 3", 3, None)


def test_child_raises_training_aborted_as_in_process():
    """A forked call that raises TrainingAborted raises it here, with
    its message and step."""
    child = tr._Child(abort, "test process")
    try:
        child.start()
        with pytest.raises(tr.TrainingAborted) as info:
            child.result()
    finally:
        child.close()
    assert str(info.value) == "non-finite loss at step 3"
    assert info.value.step == 3 and info.value.state is None


def test_child_whose_reply_has_no_reader_ends_quietly(capfd):
    """A child whose parent closed the reply pipe before the call
    returned ends by itself, with nothing on standard error."""
    gate_read, gate_write = os.pipe()
    child = tr._Child(lambda: os.read(gate_read, 1), "test process")
    os.close(gate_read)
    child.start()
    child.replies.close()
    os.write(gate_write, b"g")
    os.close(gate_write)
    assert os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1]) == 1
    child.pid = None
    child.close()
    assert capfd.readouterr().err == ""


def test_extra_epochs_keep_shrinking_loss():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    base, t_base = tr.train_classifier(
        data, spec, ClassifierTrainConfig(refine_iters=0))
    more, t_more = tr.train_classifier(
        data, spec, ClassifierTrainConfig(extra_epochs=200,
                                          refine_iters=0))
    assert len(t_more) == len(t_base) + 200
    assert t_more[-1] < t_base[-1]


def test_refine_margins_requires_bias_free():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), True)
    params = init_kaiming(spec, seed=0)
    with pytest.raises(ValueError, match="bias-free"):
        tr.refine_margins(data, spec, params,
                          ClassifierTrainConfig())


def test_refine_margins_improves_normalized_min_margin(monkeypatch):
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(refine_iters=0)
    params, _ = tr.train_classifier(data, spec, config)

    def norm_min_margin(p):
        logits = mlp_apply_np(spec, p, data.x)
        mm = logits[np.arange(data.size), data.labels][:, None] - logits
        rival = np.ones_like(mm, dtype=bool)
        rival[np.arange(data.size), data.labels] = False
        return mm[rival].min() / np.linalg.norm(p.values) ** spec.n_layers

    before = norm_min_margin(params)
    monkeypatch.setattr(tr, "REFINE_TEMPERATURES", (3.0, 10.0))
    monkeypatch.setattr(tr, "REFINE_FINAL_LRS", (1e-4,))
    tr.refine_margins(data, spec, params,
                      ClassifierTrainConfig(refine_iters=300))
    assert norm_min_margin(params) > before


def test_generator_config_validation():
    with pytest.raises(ValueError, match="batch size"):
        GeneratorTrainConfig(batch_size=0)
    for band in ((0.9, 0.5), (), (0.5,), (0.2, 0.5, 1.0)):
        with pytest.raises(ValueError, match="margin band"):
            GeneratorTrainConfig(margin_band=band)
    for shape in ((), (8,), (8, 0), (2, 4, 8)):
        with pytest.raises(ValueError, match="tv weight"):
            GeneratorTrainConfig(tv_weight=0.01, tv_shape=shape)
    GeneratorTrainConfig(tv_shape=(8,))  # unused without a tv weight


def test_label_probs():
    cfg = GeneratorTrainConfig()
    assert np.allclose(cfg.label_probs(4), 0.25)
    cfg = GeneratorTrainConfig(label_distribution=(0.5, 0.5))
    assert np.allclose(cfg.label_probs(2), 0.5)
    with pytest.raises(ValueError, match="probability vector"):
        cfg.label_probs(3)


def test_probe_peak_margin_positive_and_deterministic():
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig()
    peak = tr.probe_peak_margin(bundle, cfg, 0)
    assert peak > 0
    assert peak == tr.probe_peak_margin(bundle, cfg, 0)


def test_duality_band_policies():
    bundle, _ = small_bundle()
    banded = GeneratorTrainConfig(margin_band=(0.5, 1.0))
    alpha, delta = tr.duality_band(bundle, banded, 0)
    peak = tr.probe_peak_margin(bundle, banded, 0)
    assert np.exp(-alpha) == pytest.approx(0.5 * peak)
    assert delta == pytest.approx(0.5 * peak)


def run_short(config, bundle, n_steps=None, state=None):
    gen_spec = GeneratorSpec(3, bundle.spec.out_dim, (8,),
                             bundle.spec.in_dim)
    mult_spec = MultiplierSpec(bundle.spec.in_dim, bundle.spec.out_dim,
                               (8,))
    if n_steps is not None:
        config = GeneratorTrainConfig(
            **{**config.__dict__, "steps": n_steps})
    return tr.train_generator([bundle], gen_spec, mult_spec, config,
                              state=state)


def test_train_generator_runs_and_records_history():
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig(steps=30, batch_size=8)
    state = run_short(cfg, bundle)
    assert state.step == 30
    assert len(state.history) == 30
    row = dict(zip(tr.HISTORY_KEYS, state.history[-1], strict=True))
    assert (row["step"], row["t"]) == (29, 0)
    assert np.isfinite(row["total"])


def test_train_generator_deterministic():
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig(steps=25, batch_size=8)
    a = run_short(cfg, bundle)
    b = run_short(cfg, bundle)
    assert np.array_equal(a.gen_params.values, b.gen_params.values)
    assert np.array_equal(a.mult_params.values, b.mult_params.values)
    assert a.history == b.history


def test_train_generator_resume_matches_straight_run():
    """50 steps equals 30 steps + resume for 20 more, bit for bit."""
    bundle, _ = small_bundle()
    cfg50 = GeneratorTrainConfig(steps=50, batch_size=8)
    straight = run_short(cfg50, bundle)
    cfg30 = GeneratorTrainConfig(steps=30, batch_size=8)
    part = run_short(cfg30, bundle)
    resumed = run_short(cfg50, bundle, state=part)
    assert np.array_equal(straight.gen_params.values,
                          resumed.gen_params.values)
    assert np.array_equal(straight.mult_params.values,
                          resumed.mult_params.values)
    assert straight.history == resumed.history


# 2**32 + 3 and 2**63 - 1 are two uint32 words of SeedSequence entropy
SEEDS = [0, 14, 2**32 + 3, 2**63 - 1]


def assert_draws_as_default_rng(rng, seed, stream, step):
    """``rng`` draws random(64), then standard_normal((64, 4)), as
    ``np.random.default_rng([seed, stream, step])`` does."""
    want = np.random.default_rng([seed, stream, step])
    assert rng.random(64).tobytes() == want.random(64).tobytes()
    assert (rng.standard_normal((64, 4)).tobytes()
            == want.standard_normal((64, 4)).tobytes())


@pytest.mark.parametrize("stream", [0, 7, 9])
@pytest.mark.parametrize("seed", SEEDS)
def test_step_rng_draws_as_default_rng(seed, stream):
    """Through the first block boundary; from a resumed start off the
    block boundaries, through the end of its block; and up to and past
    step 2**32, where a block ends early."""
    block = tr.SEED_BLOCK
    resume = 3 * block + 5
    runs = [range(block + 2), range(resume, resume + block + 2),
            range(2**32 - 2, 2**32 + 2)]
    for steps in runs:
        rng = tr._StepRng(seed, stream)
        for step in steps:
            assert_draws_as_default_rng(rng(step), seed, stream, step)


@pytest.mark.parametrize("stream", [0, 7, 9])
@pytest.mark.parametrize("seed", SEEDS)
def test_seed_table_past_step_2_32(seed, stream):
    """The table builder on steps of two uint32 words (and of three):
    each row is SeedSequence's generate_state(4, uint64) of the step; and
    its refusal of steps that differ in more than the low word."""
    for start in (2**32, 2**33 + 7, 2**64 + 1):
        table = tr._seed_words(seed, stream, start, start + 3)
        for step, row in enumerate(table, start):
            want = np.random.SeedSequence([seed, stream, step])
            assert row.tobytes() == want.generate_state(4, np.uint64) \
                .tobytes()
    with pytest.raises(ValueError, match="cross a multiple of 2"):
        tr._seed_words(seed, stream, 2**32 - 1, 2**32 + 1)


def test_train_generator_loop_calls_no_default_rng(monkeypatch):
    """A 50-step run calls np.random.default_rng exactly as a 0-step run
    does (the profile check's probe samples and the Kaiming inits), and
    never with [seed, stream, step] entropy: the steps and the one-off
    streams 7 and 9 draw from the seed table."""
    bundle, _ = small_bundle()
    calls = []
    real = np.random.default_rng

    def recording(seed=None):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    run_short(GeneratorTrainConfig(steps=0, batch_size=8), bundle)
    startup = list(calls)
    calls.clear()
    state = run_short(GeneratorTrainConfig(steps=50, batch_size=8), bundle)
    assert state.step == 50
    assert calls == startup
    assert all(isinstance(seed, int) for seed in calls)


def test_train_generator_loss_decreases():
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig(steps=400, batch_size=16)
    state = run_short(cfg, bundle)
    total = tr.HISTORY_KEYS.index("total")
    first = np.mean([r[total] for r in state.history[:25]])
    last = np.mean([r[total] for r in state.history[-25:]])
    assert last < first


def test_train_generator_frozen_alpha_by_default():
    """alpha is the duality band's after a run and after its resume."""
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig(steps=20, batch_size=8)
    band = np.array([tr.duality_band(bundle, cfg, 0)[0]]).tobytes()
    state = run_short(cfg, bundle, n_steps=10)
    assert state.alphas.tobytes() == band
    state = run_short(cfg, bundle, state=state)
    assert state.step == 20
    assert state.alphas.tobytes() == band


def unverifiable_bundle():
    """A bundle whose profile fails verification."""
    bundle, _ = small_bundle()
    return ClassifierBundle(
        bundle.spec, bundle.params,
        QuasiHomogeneousProfile({n: 1.0 for n in bundle.params.groups}),
        bundle.virtual_n)


def test_train_generator_rejects_bad_profile():
    with pytest.raises(ValueError, match="profile fails verification"):
        run_short(GeneratorTrainConfig(steps=1), unverifiable_bundle())


def test_train_generator_checks_the_label_distribution_first():
    """A label distribution of another length than the classes is
    refused before any profile is verified."""
    with pytest.raises(ValueError, match="length-2 probability vector, "
                                         "not 3 entries"):
        run_short(GeneratorTrainConfig(label_distribution=(0.2, 0.3, 0.5)),
                  unverifiable_bundle())


def test_train_generator_spec_count_mismatch():
    bundle, _ = small_bundle()
    gen_spec = GeneratorSpec(3, 2, (8,), 2, num_classifiers=2)
    mult_spec = MultiplierSpec(2, 2, (8,))
    with pytest.raises(ValueError, match="classifier count"):
        tr.train_generator([bundle], gen_spec, mult_spec,
                           GeneratorTrainConfig(steps=1))


@pytest.mark.parametrize("mult_spec,message", [
    (MultiplierSpec(3, 2, (8,)), "in_dim 3, the generator spec out_dim 2"),
    (MultiplierSpec(2, 3, (8,)),
     "num_classes 3, the generator spec num_classes 2"),
    (MultiplierSpec(2, 2, (8,), num_classifiers=2),
     "num_classifiers 2, the generator spec num_classifiers 1"),
], ids=["in_dim", "num_classes", "num_classifiers"])
def test_train_generator_checks_the_multiplier_spec_first(mult_spec,
                                                          message):
    """A multiplier spec that does not fit the generator is refused
    before any profile is verified."""
    gen_spec = GeneratorSpec(3, 2, (8,), 2)
    with pytest.raises(ValueError, match=f"multiplier spec has {message}"):
        tr.train_generator([unverifiable_bundle()], gen_spec, mult_spec,
                           GeneratorTrainConfig(steps=1))


def test_multi_classifier_round_robin_and_full_sum():
    b0, _ = small_bundle(seed=0)
    b1, _ = small_bundle(seed=1)
    gen_spec = GeneratorSpec(3, 2, (8,), 2, num_classifiers=2)
    mult_spec = MultiplierSpec(2, 2, (8,), num_classifiers=2)
    cfg = GeneratorTrainConfig(steps=8, batch_size=8)
    state = tr.train_generator([b0, b1], gen_spec, mult_spec, cfg)
    t = tr.HISTORY_KEYS.index("t")
    ts = [r[t] for r in state.history]
    assert sorted(set(ts)) == [0, 1]
    assert all(a != b for a, b in zip(ts, ts[1:]))  # strict alternation
    full = GeneratorTrainConfig(steps=4, batch_size=8, full_sum=True)
    state2 = tr.train_generator([b0, b1], gen_spec, mult_spec, full)
    assert all(r[t] == -1 for r in state2.history)


def test_tv_loss_value_and_validation():
    x = np.array([[0.0, 1.0, 1.0, 0.0]])  # 2x2 checkerboard
    loss = tv_loss(x, 2, 2)
    assert loss.item() == pytest.approx(4.0)
    with pytest.raises(ValueError, match="flat dimension"):
        tv_loss(x, 3, 3)


def test_tv_loss_known_value():
    checker = np.array([[0.0, 1.0, 1.0, 0.0]])  # 2x2 checkerboard
    # row diffs: |1-0| + |0-1| = 2; col diffs: |1-0| + |0-1| = 2
    cases = [(checker, 2, 2, 4.0),
             # a batch mean: with a flat image the checkerboard's 4 halves
             (np.vstack([checker, np.ones((1, 4))]), 2, 2, 2.0),
             (np.zeros((3, 16)), 4, 4, 0.0)]
    for x, h, w, want in cases:
        assert tv_loss(x, h, w).item() == want
        assert TotalVariation(len(x), h, w)(x)[0] == want
        assert tv_value_grad(x, h, w)[0] == want


def test_tv_loss_shape_check():
    """The graph reference checks the shape at each call, train_generator
    once, against the generator's 2 outputs, before any profile is
    verified."""
    for x, h, w in [(np.zeros((2, 16)), 4, 3), (np.zeros((2, 12)), 4, 4)]:
        with pytest.raises(ValueError, match="flat dimension"):
            tv_loss(x, h, w)
    bundle = unverifiable_bundle()
    for h, w in [(1, 1), (1, 3), (4, 4)]:
        config = GeneratorTrainConfig(tv_weight=0.01, tv_shape=(h, w))
        with pytest.raises(ValueError, match=f"tv shape {h}x{w} does not "
                                             f"hold the generator's 2 "
                                             f"outputs"):
            run_short(config, bundle)


def test_sample_shapes_and_determinism():
    gen_spec = GeneratorSpec(3, 2, (8,), 2)
    theta = init_kaiming(gen_spec.mlp(), seed=0)
    x1, t1 = tr.sample(gen_spec, theta, y=0, n=10, seed=5)
    x2, _ = tr.sample(gen_spec, theta, y=0, n=10, seed=5)
    assert x1.shape == (10, 2)
    assert np.array_equal(x1, x2)
    assert np.array_equal(t1, np.zeros(10))
    x3, _ = tr.sample(gen_spec, theta, y=1, n=10, seed=5)
    assert not np.array_equal(x1, x3)
    empty, _ = tr.sample(gen_spec, theta, y=0, n=0)
    assert empty.shape == (0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        tr.sample(gen_spec, theta, y=0, n=-1)
    for y in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            tr.sample(gen_spec, theta, y=y, n=3)


def test_sample_multi_classifier_draws_every_index():
    gen_spec = GeneratorSpec(3, 2, (8,), 2, num_classifiers=2)
    theta = init_kaiming(gen_spec.mlp(), seed=0)
    x, ts = tr.sample(gen_spec, theta, y=0, n=20)
    assert set(ts) == {0, 1}
    x_fixed, ts_fixed = tr.sample(gen_spec, theta, y=0, n=5, t=1)
    assert np.array_equal(ts_fixed, np.ones(5))
    for t in (-1, 2):
        with pytest.raises(ValueError, match="classifier index"):
            tr.sample(gen_spec, theta, y=0, n=5, t=t)
