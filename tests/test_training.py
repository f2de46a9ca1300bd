"""Unit tests for classifier and generator training loops."""

import numpy as np
import pytest

import kktgen.training as tr
from kktgen.datasets import LabeledDataset, circle_dataset, pattern_dataset
from kktgen.homogeneity import estimate_profile
from kktgen.models import (GeneratorSpec, MlpSpec, MultiplierSpec,
                           init_kaiming, mlp_apply_np)
from kktgen.training import (ClassifierBundle, ClassifierTrainConfig,
                             ConvergenceError, GeneratorTrainConfig)


def tiny_dataset():
    """Four linearly separable 2-d points in two classes."""
    x = np.array([[1.0, 0.2], [0.8, -0.1], [-1.0, 0.1], [-0.9, -0.2]])
    return LabeledDataset(x, np.array([0, 0, 1, 1]), num_classes=2)


def small_bundle(seed=0):
    """A quickly trained bias-free classifier with its profile."""
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(seed=seed, refine_margins=False)
    params, _ = tr.train_classifier(data, spec, config)
    profile, _ = estimate_profile(spec, params, k=8, max_order=2)
    return ClassifierBundle(spec, params, profile, data.size), data


def test_classifier_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        ClassifierTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="extra epochs"):
        ClassifierTrainConfig(extra_epochs=-1)


def test_train_classifier_converges_and_separates():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(refine_margins=False)
    params, trajectory = tr.train_classifier(data, spec, config)
    assert trajectory[-1] < np.log(2.0) / data.size
    assert tr.classifier_accuracy(spec, params, data.x, data.labels) == 1.0
    assert all(a >= b - 1e-12 for a, b in zip(trajectory, trajectory[1:]))


def test_train_classifier_deterministic():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(refine_margins=False)
    p1, t1 = tr.train_classifier(data, spec, config)
    p2, t2 = tr.train_classifier(data, spec, config)
    assert np.array_equal(p1.values, p2.values)
    assert t1 == t2
    p3, _ = tr.train_classifier(data, spec,
                                ClassifierTrainConfig(seed=1,
                                                      refine_margins=False))
    assert not np.array_equal(p1.values, p3.values)


def test_train_classifier_convergence_error_carries_trajectory():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(max_epochs=3, refine_margins=False)
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


def test_extra_epochs_keep_shrinking_loss():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    base, t_base = tr.train_classifier(
        data, spec, ClassifierTrainConfig(refine_margins=False))
    more, t_more = tr.train_classifier(
        data, spec, ClassifierTrainConfig(extra_epochs=200,
                                          refine_margins=False))
    assert len(t_more) == len(t_base) + 200
    assert t_more[-1] < t_base[-1]


def test_refine_margins_requires_bias_free():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), True)
    params = init_kaiming(spec, seed=0)
    with pytest.raises(ValueError, match="bias-free"):
        tr.refine_margins(data, spec, params,
                          ClassifierTrainConfig())


def test_refine_margins_improves_normalized_min_margin():
    data = tiny_dataset()
    spec = MlpSpec((2, 8, 2), False)
    config = ClassifierTrainConfig(refine_margins=False)
    params, _ = tr.train_classifier(data, spec, config)

    def norm_min_margin(p):
        logits = mlp_apply_np(spec, p, data.x)
        mm = logits[np.arange(data.size), data.labels][:, None] - logits
        rival = np.ones_like(mm, dtype=bool)
        rival[np.arange(data.size), data.labels] = False
        return mm[rival].min() / np.linalg.norm(p.values) ** spec.n_layers

    before = norm_min_margin(params)
    short = ClassifierTrainConfig(refine_margins=True,
                                  refine_temperatures=(3.0, 10.0),
                                  refine_iters=300,
                                  refine_final_lrs=(1e-4,))
    tr.refine_margins(data, spec, params, short)
    assert norm_min_margin(params) > before


def test_generator_config_validation():
    with pytest.raises(ValueError, match="batch size"):
        GeneratorTrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="delta"):
        GeneratorTrainConfig(delta=0.0)
    with pytest.raises(ValueError, match="margin band"):
        GeneratorTrainConfig(margin_band=(0.9, 0.5))
    with pytest.raises(ValueError, match="init output scale"):
        GeneratorTrainConfig(init_output_scale=0.0)
    cfg = GeneratorTrainConfig(lr_alpha=(1e-2, 0.0))
    assert cfg.alpha_lr(0) == 1e-2 and cfg.alpha_lr(1) == 0.0


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
    gen_spec = GeneratorSpec(3, 2, (8,), 2)
    banded = GeneratorTrainConfig(margin_band=(0.5, 1.0))
    alpha, delta = tr.duality_band(bundle, gen_spec, banded, 0)
    peak = tr.probe_peak_margin(bundle, banded, 0)
    assert np.exp(-alpha) == pytest.approx(0.5 * peak)
    assert delta == pytest.approx(0.5 * peak)
    legacy = GeneratorTrainConfig(margin_band=(), delta=0.07)
    alpha2, delta2 = tr.duality_band(bundle, gen_spec, legacy, 0)
    assert delta2 == 0.07
    assert np.isfinite(alpha2)


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
    row = state.history[-1]
    assert set(row) >= {"step", "t", "l_stat", "l_dual", "total",
                        "alpha_0"}
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


def test_train_generator_loss_decreases():
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig(steps=400, batch_size=16)
    state = run_short(cfg, bundle)
    first = np.mean([r["total"] for r in state.history[:25]])
    last = np.mean([r["total"] for r in state.history[-25:]])
    assert last < first


def test_train_generator_frozen_alpha_by_default():
    bundle, _ = small_bundle()
    cfg = GeneratorTrainConfig(steps=20, batch_size=8)
    state = run_short(cfg, bundle)
    assert state.history[0]["alpha_0"] == state.history[-1]["alpha_0"]


def test_train_generator_rejects_bad_profile():
    bundle, _ = small_bundle()
    from kktgen.homogeneity import QuasiHomogeneousProfile
    bad = ClassifierBundle(
        bundle.spec, bundle.params,
        QuasiHomogeneousProfile({n: 1.0 for n in bundle.params.groups}),
        bundle.virtual_n)
    with pytest.raises(ValueError, match="profile fails verification"):
        run_short(GeneratorTrainConfig(steps=1), bad)


def test_train_generator_spec_count_mismatch():
    bundle, _ = small_bundle()
    gen_spec = GeneratorSpec(3, 2, (8,), 2, num_classifiers=2)
    mult_spec = MultiplierSpec(2, 2, (8,))
    with pytest.raises(ValueError, match="classifier count"):
        tr.train_generator([bundle], gen_spec, mult_spec,
                           GeneratorTrainConfig(steps=1))


def test_multi_classifier_round_robin_and_full_sum():
    b0, _ = small_bundle(seed=0)
    b1, _ = small_bundle(seed=1)
    gen_spec = GeneratorSpec(3, 2, (8,), 2, num_classifiers=2)
    mult_spec = MultiplierSpec(2, 2, (8,), num_classifiers=2)
    cfg = GeneratorTrainConfig(steps=8, batch_size=8)
    state = tr.train_generator([b0, b1], gen_spec, mult_spec, cfg)
    ts = [r["t"] for r in state.history]
    assert sorted(set(ts)) == [0, 1]
    assert all(a != b for a, b in zip(ts, ts[1:]))  # strict alternation
    full = GeneratorTrainConfig(steps=4, batch_size=8, full_sum=True)
    state2 = tr.train_generator([b0, b1], gen_spec, mult_spec, full)
    assert all(r["t"] == -1 for r in state2.history)


def test_tv_loss_value_and_validation():
    x = np.array([[0.0, 1.0, 1.0, 0.0]])  # 2x2 checkerboard
    loss = tr.tv_loss(x, 2, 2)
    assert loss.item() == pytest.approx(4.0)
    with pytest.raises(ValueError, match="flat dimension"):
        tr.tv_loss(x, 3, 3)


def test_tv_loss_known_value():
    checker = np.array([[0.0, 1.0, 1.0, 0.0]])  # 2x2 checkerboard
    # row diffs: |1-0| + |0-1| = 2; col diffs: |1-0| + |0-1| = 2
    cases = [(checker, 2, 2, 4.0),
             # a batch mean: with a flat image the checkerboard's 4 halves
             (np.vstack([checker, np.ones((1, 4))]), 2, 2, 2.0),
             (np.zeros((3, 16)), 4, 4, 0.0)]
    for x, h, w, want in cases:
        assert tr.tv_loss(x, h, w).item() == want
        assert tr._tv_value_grad(x, h, w)[0] == want


def test_tv_loss_shape_check():
    for x, h, w in [(np.zeros((2, 16)), 4, 3), (np.zeros((2, 12)), 4, 4)]:
        with pytest.raises(ValueError, match="flat dimension"):
            tr.tv_loss(x, h, w)
        with pytest.raises(ValueError, match="flat dimension"):
            tr._tv_value_grad(x, h, w)


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


def test_sample_multi_classifier_t_table():
    gen_spec = GeneratorSpec(3, 2, (8,), 2, num_classifiers=2)
    theta = init_kaiming(gen_spec.mlp(), seed=0)
    x, ts = tr.sample(gen_spec, theta, y=0, n=20, t_table={0: {0, 1}})
    assert set(ts) == {0, 1}
    x_fixed, ts_fixed = tr.sample(gen_spec, theta, y=0, n=5, t=1)
    assert np.array_equal(ts_fixed, np.ones(5))
    with pytest.raises(ValueError, match="no classifier index"):
        tr.sample(gen_spec, theta, y=1, n=5, t_table={0: {0}})
