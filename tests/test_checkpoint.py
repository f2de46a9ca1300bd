"""Unit tests for the sectioned checkpoint container."""

import numpy as np
import pytest

import kktgen.checkpoint as ck
import kktgen.training as tr
from kktgen.homogeneity import QuasiHomogeneousProfile
from kktgen.models import (GeneratorSpec, MlpSpec, MultiplierSpec,
                           init_kaiming)
from kktgen.training import Adam, GeneratorTrainConfig, GeneratorTrainState


def test_sections_roundtrip(tmp_path):
    path = tmp_path / "c.ckpt"
    sections = {"a": b"hello", "b": b"", "c": bytes(range(256))}
    ck.write_sections(path, sections)
    assert ck.read_sections(path) == sections


def test_read_sections_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        ck.read_sections(path)
    good = tmp_path / "good.ckpt"
    ck.write_sections(good, {"a": b"0123456789"})
    truncated = tmp_path / "trunc.ckpt"
    # the payload, then the header: version, count, name length, name,
    # payload length
    for cut in (-4, 6, 10, 13, 14, 20):
        truncated.write_bytes(good.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated"):
            ck.read_sections(truncated)
    wrong_version = bytearray(good.read_bytes())
    wrong_version[4] = 99
    bad_v = tmp_path / "v.ckpt"
    bad_v.write_bytes(bytes(wrong_version))
    with pytest.raises(ValueError, match="version"):
        ck.read_sections(bad_v)


@pytest.mark.parametrize("write", ["save", "attach"])
def test_failed_write_keeps_the_old_checkpoint(tmp_path, monkeypatch,
                                               write):
    spec = MlpSpec((2, 8, 3), False)
    path = tmp_path / "clf.ckpt"
    ck.save_classifier(path, spec, init_kaiming(spec, seed=0))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(ck.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        if write == "save":
            ck.save_classifier(path, spec, init_kaiming(spec, seed=1))
        else:
            ck.attach_profile(path, QuasiHomogeneousProfile(
                {"layer0.weight": 0.5, "layer1.weight": 0.5}))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["clf.ckpt"]


def test_classifier_roundtrip(tmp_path):
    spec = MlpSpec((2, 8, 3), False)
    params = init_kaiming(spec, seed=0)
    profile = QuasiHomogeneousProfile(
        {name: 0.5 for name in params.groups}, residual=1e-9)
    path = tmp_path / "clf.ckpt"
    ck.save_classifier(path, spec, params, config_hash="abc",
                       profile=profile, extra={"note": "x"})
    spec2, params2, profile2, meta = ck.load_classifier(path)
    assert spec2 == spec
    assert params2 == params
    assert profile2.lambdas == profile.lambdas
    assert meta["config_hash"] == "abc" and meta["note"] == "x"


def test_classifier_profile_attach(tmp_path):
    spec = MlpSpec((2, 8, 3), False)
    params = init_kaiming(spec, seed=0)
    path = tmp_path / "clf.ckpt"
    ck.save_classifier(path, spec, params)
    _, _, profile, _ = ck.load_classifier(path)
    assert profile is None
    ck.attach_profile(path, QuasiHomogeneousProfile(
        {name: 1.0 / 3.0 for name in params.groups}))
    _, params2, profile2, _ = ck.load_classifier(path)
    assert profile2 is not None
    assert params2 == params  # attaching must not disturb the parameters


def test_classifier_corruption_detected(tmp_path):
    spec = MlpSpec((2, 8, 3), False)
    params = init_kaiming(spec, seed=0)
    path = tmp_path / "clf.ckpt"
    ck.save_classifier(path, spec, params)
    sections = ck.read_sections(path)
    sections["params"] = sections["params"][:10]
    bad = tmp_path / "bad.ckpt"
    ck.write_sections(bad, sections)
    with pytest.raises(ValueError, match="corrupt classifier"):
        ck.load_classifier(bad)
    del sections["params"]
    missing = tmp_path / "missing.ckpt"
    ck.write_sections(missing, sections)
    with pytest.raises(ValueError, match="corrupt classifier"):
        ck.load_classifier(missing)


def test_classifier_kind_check(tmp_path):
    gen_spec = GeneratorSpec(3, 2, (4,), 2)
    mult_spec = MultiplierSpec(2, 2, (4,))
    state = GeneratorTrainState(init_kaiming(gen_spec, 0),
                                init_kaiming(mult_spec, 1),
                                np.array([0.5]), np.array([0.1]))
    path = tmp_path / "gen.ckpt"
    ck.save_generator(path, gen_spec, mult_spec, state)
    with pytest.raises(ValueError, match="corrupt classifier"):
        ck.load_classifier(path)


def make_gen_state(gen_spec, mult_spec, with_opt=True):
    theta = init_kaiming(gen_spec, 0)
    eta = init_kaiming(mult_spec, 1)
    state = GeneratorTrainState(theta, eta, np.array([0.5, 0.7]),
                                np.array([0.1, 0.2]), step=17)
    if with_opt:
        opt = {
            "theta": Adam(len(theta), 1e-4),
            "eta": Adam(len(eta), 1e-3),
            "alpha": [Adam(1, 0.0), Adam(1, 0.0)],
        }
        rng = np.random.default_rng(5)
        for adam in [opt["theta"], opt["eta"], *opt["alpha"]]:
            adam.m[:] = rng.standard_normal(adam.m.size)
            adam.v[:] = rng.random(adam.v.size)
            adam.t = 17
        state.optimizers = opt
    return state


def test_generator_roundtrip_with_optimizers(tmp_path):
    gen_spec = GeneratorSpec(3, 2, (4,), 2, num_classifiers=2)
    mult_spec = MultiplierSpec(2, 2, (4,), num_classifiers=2)
    state = make_gen_state(gen_spec, mult_spec)
    path = tmp_path / "gen.ckpt"
    ck.save_generator(path, gen_spec, mult_spec, state, config_hash="h")
    config = GeneratorTrainConfig(lr_theta=1e-4, lr_eta=1e-3)
    gen2, mult2, state2, meta = ck.load_generator(path, config=config)
    assert gen2 == gen_spec and mult2 == mult_spec
    assert state2.gen_params == state.gen_params
    assert state2.mult_params == state.mult_params
    assert np.array_equal(state2.alphas, state.alphas)
    assert np.array_equal(state2.deltas, state.deltas)
    assert state2.step == 17 and meta["config_hash"] == "h"
    for key in ("theta", "eta"):
        a, b = state.optimizers[key], state2.optimizers[key]
        assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)
        assert a.t == b.t and a.lr == b.lr
    assert state2.optimizers["alpha"][1].t == 17


def test_generator_load_without_config_skips_optimizers(tmp_path):
    gen_spec = GeneratorSpec(3, 2, (4,), 2)
    mult_spec = MultiplierSpec(2, 2, (4,))
    state = make_gen_state(gen_spec, mult_spec, with_opt=False)
    state.alphas = np.array([0.5])
    state.deltas = np.array([0.1])
    path = tmp_path / "gen.ckpt"
    ck.save_generator(path, gen_spec, mult_spec, state)
    _, _, state2, _ = ck.load_generator(path)
    assert state2.optimizers == {}


def test_generator_resume_through_checkpoint_is_bit_exact(tmp_path):
    """Training 20 steps straight equals 12 steps + save/load + 8 more."""
    from kktgen.datasets import LabeledDataset
    from kktgen.homogeneity import estimate_profile

    x = np.array([[1.0, 0.2], [0.8, -0.1], [-1.0, 0.1], [-0.9, -0.2]])
    data = LabeledDataset(x, np.array([0, 0, 1, 1]), num_classes=2)
    spec = MlpSpec((2, 8, 2), False)
    params, _ = tr.train_classifier(
        data, spec, tr.ClassifierTrainConfig(refine_margins=False))
    profile, _ = estimate_profile(spec, params, k=8, max_order=2)
    bundle = tr.ClassifierBundle(spec, params, profile, data.size)
    gen_spec = GeneratorSpec(3, 2, (8,), 2)
    mult_spec = MultiplierSpec(2, 2, (8,))

    cfg20 = GeneratorTrainConfig(steps=20, batch_size=8)
    straight = tr.train_generator([bundle], gen_spec, mult_spec, cfg20)

    cfg12 = GeneratorTrainConfig(steps=12, batch_size=8)
    part = tr.train_generator([bundle], gen_spec, mult_spec, cfg12)
    path = tmp_path / "resume.ckpt"
    ck.save_generator(path, gen_spec, mult_spec, part)
    _, _, loaded, _ = ck.load_generator(path, config=cfg20)
    resumed = tr.train_generator([bundle], gen_spec, mult_spec, cfg20,
                                 state=loaded)
    assert np.array_equal(straight.gen_params.values,
                          resumed.gen_params.values)
    assert np.array_equal(straight.mult_params.values,
                          resumed.mult_params.values)
    assert straight.history[-1] == resumed.history[-1]
