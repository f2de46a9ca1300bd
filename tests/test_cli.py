"""End-to-end tests of the command-line interface (in-process)."""

import functools
import itertools
import json
import operator
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import kktgen
import kktgen.autodiff as ad
import kktgen.checkpoint as ck
import kktgen.homogeneity as hg
import kktgen.kkt as kk
import kktgen.training as tr
from kktgen import cli, kernels
from kktgen.cli import build_parser, main
from kktgen.config import RunConfig
from kktgen.datasets import circle_dataset
from kktgen.models import GeneratorSpec, MlpSpec, MultiplierSpec, init_kaiming

FAST_CLASSIFIER = """
[classifier]
widths = 2,8,3
refine_iters = 0

[generator]
hidden = 16,16

[multiplier]
hidden = 16,16

[generator_training]
steps = {steps}
batch_size = 16
"""


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nname = demo\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   + FAST_CLASSIFIER.format(steps=30))
    return tmp_path, cfg


def run_dir(tmp_path):
    return tmp_path / "runs" / "demo"


def test_import_loads_no_scipy():
    """Every command runs on numpy alone: scipy serves only the tests."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(kktgen.__file__))))
    code = ("import sys, kktgen, kktgen.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_value", [None, "3"])
def test_cli_defaults_to_one_blas_thread(user_value):
    """Importing the command line sets each BLAS thread count the user
    did not set to 1, before numpy loads; a count the user set stays."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(
        kktgen.__file__)))
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = ("import os, sys, kktgen; assert 'numpy' not in sys.modules; "
            "import kktgen.cli; print(*(os.environ[v] for v in "
            f"{BLAS_THREADS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == [user_value or "1", "1", "1"]


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[classifier]\ntypo = 1\n")
    assert main(["train-classifier", str(cfg)]) == 2
    assert "typo" in capsys.readouterr().err


def test_deleted_key_is_usage_error(tmp_path, capsys):
    """``generator_training.lr_alpha`` is gone: alpha is fixed by the
    duality band."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[generator_training]\nlr_alpha = -0.01\n")
    assert main(["train-generator", str(cfg), "classifier.ckpt"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: bad config: generator_training.lr_alpha: "
                   "unknown key (line 2)"]


def test_bad_dataset_kind_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[dataset]\nkind = bogus\n")
    assert main(["train-classifier", str(cfg)]) == 2


@pytest.fixture(scope="module")
def profiled_classifier(tmp_path_factory):
    """A fast classifier checkpoint with its scaling profile attached."""
    tmp_path = tmp_path_factory.mktemp("profiled")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nname = demo\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   + FAST_CLASSIFIER.format(steps=30))
    clf = run_dir(tmp_path) / "classifier.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    return clf


# a value the train-config dataclasses reject: (command, section, line)
BAD_TRAIN_VALUES = [
    ("train-classifier", "classifier", "learning_rate = -1"),
    ("train-classifier", "classifier", "learning_rate = nan"),
    ("train-generator", "generator_training", "beta = nan"),
    ("train-generator", "generator_training", "batch_size = 0"),
    ("train-generator", "generator_training",
     "label_distribution = 1.2,-0.1,-0.1"),
    ("train-classifier", "classifier", "seed = -1"),
    ("train-generator", "generator_training", "seed = -1"),
    ("train-generator", "generator_training", "margin_band ="),
    ("train-generator", "generator_training", "margin_band = 0.5"),
    ("train-generator", "generator_training", "tv_weight = 0.01"),
    ("train-classifier", "classifier", "max_epochs = 0"),
    ("train-generator", "generator_training", "tv_weight = -1"),
    ("train-generator", "generator_training", "lr_theta = -0.0001"),
    ("train-generator", "generator_training", "lr_eta = -0.001"),
    ("train-generator", "generator_training", "steps = -1"),
]


@pytest.mark.parametrize("command,section,line", BAD_TRAIN_VALUES)
def test_bad_train_value_is_usage_error(tmp_path, capsys, profiled_classifier,
                                        command, section, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n"
                   "[classifier]\nwidths = 2,8,3\nrefine_iters = 0\n"
                   f"[{section}]\n{line}\n")
    argv = [command, str(cfg)]
    if command == "train-generator":
        argv.append(str(profiled_classifier))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith(f"error: bad config: {section}: ")
    key = line.split("=")[0].strip()
    assert key.replace("_", " ") in err[0]
    assert not list((tmp_path / "runs").rglob("*.ckpt"))


@pytest.fixture(scope="module")
def generators(tmp_path_factory):
    """Untrained generator checkpoints for one and for two classifiers."""
    tmp_path = tmp_path_factory.mktemp("generators")
    paths = {}
    for t_count in (1, 2):
        gen_spec = GeneratorSpec(2, 3, (8,), 2, num_classifiers=t_count)
        mult_spec = MultiplierSpec(2, 3, (8,), num_classifiers=t_count)
        state = tr.GeneratorTrainState(init_kaiming(gen_spec.mlp(), 1),
                                       init_kaiming(mult_spec.mlp(), 2),
                                       np.zeros(t_count), np.ones(t_count))
        paths[t_count] = tmp_path / f"generator_{t_count}.ckpt"
        ck.save_generator(paths[t_count], gen_spec, mult_spec, state)
    return paths


# a command-line value out of range, or a flag the command does not have:
# (command, checkpoint, flag, value); the checkpoint is the profiled
# classifier or the generator for that many classifiers
BAD_ARGUMENTS = [
    ("estimate-lambda", "classifier", "--probes", "0"),
    ("estimate-lambda", "classifier", "--probes", "-3"),
    ("estimate-lambda", "classifier", "--probes", "8"),
    ("estimate-lambda", "classifier", "--max-order", "0"),
    ("estimate-lambda", "classifier", "--max-order", "1"),
    ("estimate-lambda", "classifier", "--max-order", "3"),
    ("estimate-lambda", "classifier", "--seed", "-1"),
    ("train-generator", "classifier", "--seed", "-1"),
    ("sample", 1, "--per-class", "-1"),
    ("sample", 1, "--seed", "-1"),
    ("sample", 1, "--t", "3"),
    ("sample", 1, "--t", "-1"),
    ("sample", 2, "--t", "2"),
    ("sample", 2, "--t", "-1"),
]


@pytest.mark.parametrize("command,checkpoint,flag,value", BAD_ARGUMENTS)
def test_bad_argument_is_usage_error(tmp_path, capsys, profiled_classifier,
                                     generators, command, checkpoint, flag,
                                     value):
    path = (profiled_classifier if checkpoint == "classifier"
            else generators[checkpoint])
    out = tmp_path / "out.csv"
    if command == "train-generator":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[experiment]\noutput_dir = {tmp_path}\n"
                       + FAST_CLASSIFIER.format(steps=3))
        argv = [command, str(cfg), str(path)]
    else:
        argv = [command, str(path), "--out", str(out)]
    capsys.readouterr()
    if flag in ("--probes", "--max-order"):
        # the profile estimate takes no options: argparse refuses them
        with pytest.raises(SystemExit) as exit_:
            main(argv + [flag, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == (f"kktgen: error: unrecognized arguments: "
                           f"{flag} {value}")
    else:
        # train-generator's --seed overrides the config's seed, which the
        # train config checks
        start = ("error: bad config: generator_training: seed "
                 if command == "train-generator" else f"error: {flag} ")
        assert main(argv + [flag, value]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(start)
    assert "Traceback" not in "".join(err)
    assert not out.exists() and not list(tmp_path.rglob("*.ckpt"))


def test_selftest_is_no_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["selftest"])
    assert exit_.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate-lambda", "evaluate"])
def test_nnls_iteration_limit_is_numeric_error(tmp_path, capsys, monkeypatch,
                                               profiled_classifier, command):
    """Both NNLS solves, the profile's and the KKT oracle's, exit 4 when
    the solver runs out of iterations."""
    def capped(a, b):
        raise kernels.NnlsIterationLimit(
            f"nnls: no solution within {3 * a.shape[1]} iterations")

    monkeypatch.setattr(hg, "nnls", capped)
    monkeypatch.setattr(kk, "nnls", capped)
    clf = tmp_path / "classifier.ckpt"
    shutil.copy(profiled_classifier, clf)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n")
    samples = tmp_path / "s.csv"
    samples.write_text("x0,x1,y,t\n1.0,0.0,0,0\n")
    argv = {"estimate-lambda": ["estimate-lambda", str(clf)],
            "evaluate": ["evaluate", str(cfg), str(samples),
                         "--classifier", str(clf)]}
    capsys.readouterr()
    assert main(argv[command]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "nnls" in err[0] and "iterations" in err[0]
    assert clf.read_bytes() == profiled_classifier.read_bytes()


def profiled_checkpoint(path, widths, lambdas=None):
    """A bias-free classifier checkpoint with a scaling profile: the
    estimated one, or ``lambdas`` for every group.  Its meta gives the
    circle's 18 points as the size of its training set."""
    spec = MlpSpec(widths, False)
    params = init_kaiming(spec, 0)
    profile = (hg.estimate_profile(spec, params)[0] if lambdas is None
               else hg.QuasiHomogeneousProfile(
                   dict.fromkeys(params.groups, lambdas)))
    ck.save_classifier(path, spec, params, extra={"dataset_size": 18})
    ck.attach_profile(path, profile)


@pytest.fixture(scope="module")
def failure_inputs(tmp_path_factory):
    """The directory the bad inputs of FAILURES live in."""
    d = tmp_path_factory.mktemp("failures")
    head = f"[experiment]\nname = demo\noutput_dir = {d / 'runs'}\n"
    full_sum = FAST_CLASSIFIER + "full_sum = true\n"
    (d / "run.cfg").write_text(head + full_sum.format(steps=3))
    (d / "run6.cfg").write_text(head + full_sum.format(steps=6))
    (d / "tv.cfg").write_text(head + FAST_CLASSIFIER.format(steps=3)
                              + "tv_weight = 0.01\ntv_shape = 1,1\n")
    (d / "labels.cfg").write_text(head + FAST_CLASSIFIER.format(steps=3)
                                  + "label_distribution = 0.5,0.5\n")
    (d / "stall.cfg").write_text(
        f"[experiment]\nname = stall\noutput_dir = {d / 'runs'}\n"
        "[classifier]\nwidths = 2,8,3\nmax_epochs = 3\nrefine_iters = 0\n")
    (d / "plateau.cfg").write_text(
        f"[experiment]\nname = plateau\noutput_dir = {d / 'runs'}\n"
        "[dataset]\nsplit = arc\n[classifier]\nwidths = 2,8,3\n"
        "refine_iters = 0\n")
    (d / "arc.cfg").write_text(
        f"[experiment]\nname = arc\noutput_dir = {d / 'runs'}\n"
        "[dataset]\nsplit = arc\n[classifier]\nrefine_iters = 0\n")
    (d / "alternating.cfg").write_text(
        f"[experiment]\nname = alternating\noutput_dir = {d / 'runs'}\n"
        "[dataset]\nsplit = alternating\n")
    (d / "odd.csv").write_text("x0,x1,label\n1.0,0.0,0\n0.0,1.0,1\n"
                               "0.0,-1.0,1\n")
    (d / "odd.cfg").write_text(
        f"[experiment]\nname = odd\noutput_dir = {d / 'runs'}\n"
        f"[dataset]\nkind = csv\ncsv_path = {d / 'odd.csv'}\nsplit = arc\n")
    (d / "latin1.cfg").write_bytes(b"[experiment]\nname = caf\xe9\n")
    (d / "s.csv").write_text("x0,x1,y,t\n1.0,0.0,0,0\n")
    (d / "empty.csv").write_text("x0,x1,y,t\n")
    profiled_checkpoint(d / "clf.ckpt", (2, 8, 3))
    profiled_checkpoint(d / "three_inputs.ckpt", (3, 8, 3))
    profiled_checkpoint(d / "two_classes.ckpt", (2, 8, 2))
    profiled_checkpoint(d / "bad_profile.ckpt", (2, 8, 3), lambdas=1.0)
    # three equal last-layer weight columns: every logit ties, so every
    # probed margin is 0
    spec = MlpSpec((2, 8, 3), False)
    params = init_kaiming(spec, 0)
    weights = params.group("layer1.weight").reshape(8, 3)
    weights[:] = weights[:, :1]
    ck.save_classifier(d / "tied.ckpt", spec, params,
                       extra={"dataset_size": 18})
    ck.attach_profile(d / "tied.ckpt", hg.QuasiHomogeneousProfile(
        dict.fromkeys(params.groups, 0.5)))
    spec = MlpSpec((2, 8, 3), False)
    ck.save_classifier(d / "no_profile.ckpt", spec, init_kaiming(spec, 0))
    sections = ck.read_sections(d / "clf.ckpt")
    sections["profile"] = b"{}"
    ck.write_sections(d / "empty_profile.ckpt", sections)
    sections["profile"] = (b'{"lambdas": {"layer0.weight": 0.5}, '
                           b'"residual": 0.0}')
    ck.write_sections(d / "one_group_profile.ckpt", sections)
    sections = ck.read_sections(d / "clf.ckpt")
    sections["meta"] = b'{"kind": "classifier"}'
    ck.write_sections(d / "no_size.ckpt", sections)
    # a run of two classifiers, and its checkpoint cut to one alpha
    clf = str(d / "clf.ckpt")
    assert main(["train-generator", str(d / "run.cfg"), clf, clf,
                 "--name", "two"]) == 0
    sections = ck.read_sections(d / "runs" / "demo" / "two.ckpt")
    for name in ("alphas", "deltas"):
        sections[name] = sections[name][:8]
    ck.write_sections(d / "runs" / "demo" / "cut.ckpt", sections)
    # a shard classifier does not separate the combined arc-split data
    assert main(["train-classifier", str(d / "arc.cfg")]) == 0
    assert main(["estimate-lambda",
                 str(d / "runs" / "arc" / "classifier_1.ckpt")]) == 0
    return d


# a command on a bad input: (id, argv in the directory {d}, exit code, a
# fragment of the one error line, also in {d}, a file the failed command
# leaves)
FAILURES = [
    ("missing-config", "train-classifier {d}/none.cfg", 2,
     "config file not found", None),
    ("config-is-a-directory", "train-classifier {d}", 2, "Is a directory",
     None),
    ("config-not-utf8", "train-classifier {d}/latin1.cfg", 2,
     "latin1.cfg: is not UTF-8 text", None),
    ("missing-samples", "evaluate {d}/run.cfg {d}/none.csv", 2,
     "samples file not found", None),
    ("missing-checkpoint", "sample {d}/none.ckpt", 2, "checkpoint not found",
     None),
    ("split-alternating", "train-classifier {d}/alternating.cfg", 2,
     "dataset.split: unknown split 'alternating'", None),
    ("split-arc-of-a-class-of-odd-size", "train-classifier {d}/odd.cfg", 2,
     "dataset.split: arc split of {d}/odd.csv: class 0 has odd size 1",
     None),
    ("classifier-does-not-converge", "train-classifier {d}/stall.cfg", 4,
     "classifier: ", "runs/stall/classifier_loss.csv"),
    ("classifier-on-a-loss-plateau", "train-classifier {d}/plateau.cfg", 4,
     "classifier_1: loss plateau", "runs/plateau/classifier_1_loss.csv"),
    # the tv shape and the label distribution are checked before the
    # profile, which fails verification (exit 3)
    ("tv-shape-of-other-dimension",
     "train-generator {d}/tv.cfg {d}/bad_profile.ckpt", 2,
     "tv shape 1x1 does not hold the generator's 2 outputs", None),
    ("label-distribution-of-other-length",
     "train-generator {d}/labels.cfg {d}/bad_profile.ckpt", 2,
     "label distribution must be a length-3 probability vector", None),
    ("profile-section-not-a-profile",
     "train-generator {d}/run.cfg {d}/empty_profile.ckpt", 2,
     "empty_profile.ckpt: corrupt classifier checkpoint", None),
    ("profile-of-other-groups", "evaluate {d}/run.cfg {d}/s.csv "
     "--classifier {d}/one_group_profile.ckpt", 2,
     "one_group_profile.ckpt: corrupt classifier checkpoint (profile "
     "groups ['layer0.weight'] do not match parameter groups", None),
    ("profile-fails-verification",
     "train-generator {d}/run.cfg {d}/bad_profile.ckpt", 3,
     "bad_profile.ckpt: profile fails verification", None),
    ("peak-margin-of-zero", "train-generator {d}/run.cfg {d}/tied.ckpt", 2,
     "tied.ckpt: probed peak margin 0 is not finite and positive", None),
    ("classifier-without-dataset-size",
     "train-generator {d}/run.cfg {d}/no_size.ckpt", 2,
     "no_size.ckpt: no training-set size", None),
    ("generator-checkpoint-as-classifier",
     "train-generator {d}/run.cfg {d}/runs/demo/two.ckpt", 2,
     "two.ckpt: not a classifier checkpoint", None),
    ("classifiers-differ-in-classes",
     "train-generator {d}/run.cfg {d}/clf.ckpt {d}/two_classes.ckpt", 2,
     "2 classes", None),
    ("classifiers-differ-in-inputs",
     "train-generator {d}/run.cfg {d}/clf.ckpt {d}/three_inputs.ckpt", 2,
     "{d}/three_inputs.ckpt has 3 inputs", None),
    ("resume-of-a-cut-checkpoint", "train-generator {d}/run6.cfg "
     "{d}/clf.ckpt {d}/clf.ckpt --name cut --resume", 2,
     "1 deltas for 1 alphas", None),
    ("sample-out-in-missing-directory",
     "sample {d}/runs/demo/two.ckpt --out {d}/none/s.csv", 2,
     "No such file", None),
    ("estimate-lambda-out-in-missing-directory",
     "estimate-lambda {d}/no_profile.ckpt --out {d}/none/v.csv", 2,
     "No such file", None),
    ("evaluate-out-in-missing-directory",
     "evaluate {d}/run.cfg {d}/s.csv --out {d}/none/r.csv", 2,
     "No such file", None),
    ("evaluate-classifier-of-other-inputs",
     "evaluate {d}/run.cfg {d}/s.csv --classifier {d}/three_inputs.ckpt", 2,
     "maps 3 inputs", None),
    ("evaluate-classifier-of-fewer-classes",
     "evaluate {d}/run.cfg {d}/s.csv --classifier {d}/two_classes.ckpt", 2,
     "to 2 classes", None),
    ("evaluate-classifier-does-not-separate", "evaluate {d}/arc.cfg "
     "{d}/s.csv --classifier {d}/runs/arc/classifier_1.ckpt", 3,
     "does not separate", None),
    ("plot-grid-of-points",
     "plot {d}/run.cfg {d}/s.csv --mode grid --out {d}/p.svg", 2,
     "square image", None),
    ("plot-grid-of-no-points",
     "plot {d}/run.cfg {d}/empty.csv --mode grid --out {d}/p.svg", 2,
     "square image", None),
]


@pytest.mark.parametrize("argv,code,fragment,leaves", [
    pytest.param(*row[1:], id=row[0]) for row in FAILURES])
def test_failing_command_exits_with_one_error_line(
        failure_inputs, capsys, argv, code, fragment, leaves):
    """Each bad input ends in its exit code and one error line, with no
    traceback and no checkpoint written."""
    d = failure_inputs
    checkpoints = {p: p.read_bytes() for p in d.rglob("*.ckpt")}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(d=d) for a in argv.split()]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert fragment.format(d=d) in err[0] and "Traceback" not in err[0]
    assert {p: p.read_bytes() for p in d.rglob("*.ckpt")} == checkpoints
    assert leaves is None or (d / leaves).exists()
    assert_no_child()


def test_evaluate_with_a_classifier_without_profile_has_no_kkt_row(
        failure_inputs, tmp_path, capsys):
    """``evaluate --classifier`` on a checkpoint without a scaling
    profile leaves the KKT residual row out and exits 0."""
    d = failure_inputs
    report = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["evaluate", str(d / "run.cfg"), str(d / "s.csv"),
                 "--classifier", str(d / "no_profile.ckpt"),
                 "--out", str(report)]) == 0
    assert capsys.readouterr().err == ""
    names = [line.split(",")[0]
             for line in report.read_text().splitlines()[1:]]
    assert names[:2] == ["mean_nn_distance", "label_agreement"]
    assert "kkt_stationarity_residual" not in names


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# a split config's shard classifiers, the second one in a forked child


@pytest.fixture
def arc_config(tmp_path):
    cfg = tmp_path / "arc.cfg"
    cfg.write_text(f"[experiment]\nname = arc\noutput_dir = {tmp_path}\n"
                   "[dataset]\nsplit = arc\n[classifier]\n"
                   "refine_iters = 50\n")
    return cfg, tmp_path / "arc"


SHARD_FILES = ("classifier_1.ckpt", "classifier_1_loss.csv",
               "classifier_2.ckpt", "classifier_2_loss.csv")


def test_forked_shard_training_writes_the_in_process_bytes(arc_config,
                                                            monkeypatch):
    cfg, out = arc_config
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert main(["train-classifier", str(cfg)]) == 0
    assert forks == [1]
    forked = {name: (out / name).read_bytes() for name in SHARD_FILES}
    shutil.rmtree(out)
    monkeypatch.delattr(os, "fork")
    assert main(["train-classifier", str(cfg)]) == 0
    assert {name: (out / name).read_bytes()
            for name in SHARD_FILES} == forked


def fail_on_shard(monkeypatch, suffix, how):
    """``tr.train_classifier`` as it is, but ``how()`` on a dataset whose
    name ends in ``suffix``; a forked child inherits the patch."""
    train = tr.train_classifier

    def patched(dataset, spec, config):
        if dataset.name.endswith(suffix):
            how()
        return train(dataset, spec, config)

    monkeypatch.setattr(tr, "train_classifier", patched)


def stall():
    raise tr.ConvergenceError("stalled", [2.0, 1.5])


def test_child_convergence_error_ends_as_in_order(arc_config, monkeypatch,
                                                  capsys):
    """The first shard's files are written, the second's loss CSV too,
    and the error line names the second classifier: as in order."""
    cfg, out = arc_config
    fail_on_shard(monkeypatch, "_split2", stall)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-classifier", str(cfg)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: classifier_2: stalled"]
    assert sorted(p.name for p in out.iterdir()) == [
        "classifier_1.ckpt", "classifier_1_loss.csv",
        "classifier_2_loss.csv"]
    assert (out / "classifier_2_loss.csv").read_text() == (
        "epoch,cross_entropy\n0,2\n1,1.5\n")
    assert_no_child()


def test_parent_failure_kills_the_running_child(arc_config, monkeypatch,
                                                capsys):
    """A failure of the first shard while the second still trains ends
    the command at once, with the child killed and reaped."""
    cfg, out = arc_config
    fail_on_shard(monkeypatch, "_split1", stall)
    fail_on_shard(monkeypatch, "_split2", lambda: time.sleep(60))
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-classifier", str(cfg)]) == 4
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err.splitlines() == [
        "error: classifier_1: stalled"]
    assert sorted(p.name for p in out.iterdir()) == ["classifier_1_loss.csv"]
    assert_no_child()


def test_interrupt_kills_the_running_child(arc_config, monkeypatch):
    cfg, _ = arc_config

    def interrupt():
        raise KeyboardInterrupt

    fail_on_shard(monkeypatch, "_split1", interrupt)
    fail_on_shard(monkeypatch, "_split2", lambda: time.sleep(60))
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KeyboardInterrupt):
            main(["train-classifier", str(cfg)])
    assert time.monotonic() - start < 30
    assert_no_child()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_fault():
    raise IndexError("a fault")


@pytest.mark.parametrize("how,ending", [
    (kill_self, "was killed by signal 9 (SIGKILL)"),
    (raise_fault, "exited with status 1")])
def test_child_lost_without_a_result_is_one_error_line(
        arc_config, monkeypatch, capfd, how, ending):
    """A child that ends without sending its result is an OSError
    (exit 2) naming the classifier and how the child ended; a fault in
    the child leaves its traceback on standard error before that line."""
    cfg, out = arc_config
    fail_on_shard(monkeypatch, "_split2", how)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-classifier", str(cfg)]) == 2
    err = capfd.readouterr().err.splitlines()
    assert err[-1] == (f"error: classifier_2: training process {ending} "
                       f"before it sent its result")
    assert ("IndexError: a fault" in err) == (how is raise_fault)
    assert sorted(p.name for p in out.iterdir()) == [
        "classifier_1.ckpt", "classifier_1_loss.csv"]
    assert_no_child()


def test_shard_training_loads_no_process_pool(arc_config):
    """The fork needs neither ``multiprocessing`` nor
    ``concurrent.futures``, whose imports would add to the peak RSS."""
    cfg, out = arc_config
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(kktgen.__file__))))
    code = ("import sys, kktgen.cli; "
            f"assert kktgen.cli.main(['train-classifier', {str(cfg)!r}]) "
            "== 0; print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (out / "classifier_2.ckpt").exists()


# ---------------------------------------------------------------------------
# a full_sum generator step, each classifier after the first in a forked
# child


@pytest.fixture(scope="module")
def arc_classifiers(tmp_path_factory):
    """The two profiled shard classifiers of an arc split."""
    d = tmp_path_factory.mktemp("arc-classifiers")
    cfg = d / "arc.cfg"
    cfg.write_text(f"[experiment]\nname = arc\noutput_dir = {d}\n"
                   "[dataset]\nsplit = arc\n[classifier]\n"
                   "refine_iters = 50\n")
    assert main(["train-classifier", str(cfg)]) == 0
    clfs = [str(d / "arc" / f"classifier_{k}.ckpt") for k in (1, 2)]
    for clf in clfs:
        assert main(["estimate-lambda", clf]) == 0
    return clfs


def generator_config(tmp_path, steps=12, full_sum=True):
    """A generator config of ``steps`` steps; the run dir it writes to."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"[experiment]\nname = gen\noutput_dir = {tmp_path}\n"
                   f"[generator_training]\nsteps = {steps}\n"
                   f"full_sum = {str(full_sum).lower()}\nbatch_size = 16\n")
    return str(cfg), tmp_path / "gen"


def counted_forks(monkeypatch):
    """A list that gets one entry per ``os.fork`` from now on."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_forked_full_sum_step_writes_the_in_process_bytes(
        arc_classifiers, tmp_path, monkeypatch):
    cfg, out = generator_config(tmp_path)
    argv = ["train-generator", cfg, *arc_classifiers]
    forks = counted_forks(monkeypatch)
    assert main(argv) == 0
    assert forks == [1]
    files = ("generator.ckpt", "generator_loss.csv")
    forked = {name: (out / name).read_bytes() for name in files}
    shutil.rmtree(out)
    monkeypatch.delattr(os, "fork")
    assert main(argv) == 0
    assert {name: (out / name).read_bytes() for name in files} == forked
    assert_no_child()


def on_call(monkeypatch, name, when, how):
    """``tr.<name>`` as it is, then ``how(args)`` on the third call whose
    arguments ``when(args)`` holds for; a forked child inherits the patch
    and counts its own calls."""
    original = getattr(tr, name)
    calls = []

    def patched(*args):
        out = original(*args)
        if when(args):
            calls.append(1)
            if len(calls) == 3:
                how(args)
        return out

    monkeypatch.setattr(tr, name, patched)


def test_lost_step_child_is_one_error_line(arc_classifiers, tmp_path,
                                           monkeypatch, capsys):
    """A step child that ends is an OSError (exit 2) naming its
    classifier, how the child ended and the step; no checkpoint is
    written."""
    cfg, out = generator_config(tmp_path)
    # _classifier_step(kkt, gen, mult, x, t, ...) of classifier 1, whose
    # third call is step 2's; never this process, should it run there
    this = os.getpid()
    on_call(monkeypatch, "_classifier_step", lambda args: args[4] == 1,
            lambda args: os.getpid() != this and kill_self())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-generator", cfg, *arc_classifiers]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {arc_classifiers[1]}: generator step process was killed "
        f"by signal 9 (SIGKILL) at step 2"]
    assert not (out / "generator.ckpt").exists()
    assert_no_child()


def poison(args):
    """NaN into the generator input ``condition`` wrote, its ``out``."""
    args[4][0, 0] = np.nan


@pytest.mark.parametrize("forked", [True, False])
def test_non_finite_sample_of_a_child_batch_ends_as_in_process(
        arc_classifiers, tmp_path, monkeypatch, capsys, forked):
    """Classifier 1's batch of step 2 generates a NaN: forked or not, the
    run ends with exit 4 at that step."""
    cfg, out = generator_config(tmp_path)
    if not forked:
        monkeypatch.delattr(os, "fork")
    # condition(eps, labels, t, gen_spec, gen_in) of classifier 1
    on_call(monkeypatch, "condition",
            lambda args: args[2] == 1 and isinstance(args[3], GeneratorSpec),
            poison)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-generator", cfg, *arc_classifiers]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite generated sample at step 2"]
    assert not (out / "generator.ckpt").exists()
    assert_no_child()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_raising_callback_leaves_no_step_child(arc_classifiers, tmp_path,
                                               monkeypatch, error):
    cfg, _ = generator_config(tmp_path)

    def callback(state):
        if state.step == 3:
            raise error("stop")

    monkeypatch.setattr(tr, "train_generator", functools.partial(
        tr.train_generator, callback=callback))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            main(["train-generator", cfg, *arc_classifiers])
    assert_no_child()


@pytest.mark.parametrize("steps,full_sum,t_count", [
    (0, True, 2), (12, False, 2), (12, True, 1)],
    ids=["steps-0", "round-robin", "T1"])
def test_generator_runs_that_fork_nothing(arc_classifiers, tmp_path,
                                          monkeypatch, steps, full_sum,
                                          t_count):
    cfg, out = generator_config(tmp_path, steps, full_sum)
    forks = counted_forks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-generator", cfg,
                     *arc_classifiers[:t_count]]) == 0
    assert forks == []
    assert (out / "generator.ckpt").exists()


def test_forked_generator_step_loads_no_process_pool(arc_classifiers,
                                                     tmp_path):
    cfg, out = generator_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(kktgen.__file__))))
    code = ("import os, sys, kktgen.cli; forks = []; fork = os.fork; "
            "os.fork = lambda: forks.append(1) or fork(); "
            "assert kktgen.cli.main(['train-generator', "
            f"{cfg!r}, *{arc_classifiers!r}]) == 0; assert forks == [1]; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (out / "generator.ckpt").exists()


def test_full_pipeline(workdir, capsys):
    tmp_path, cfg = workdir
    out = run_dir(tmp_path)

    # 1. train the classifier
    assert main(["train-classifier", str(cfg)]) == 0
    clf = out / "classifier.ckpt"
    assert clf.exists()
    loss_rows = (out / "classifier_loss.csv").read_text().splitlines()
    final_loss = float(loss_rows[-1].split(",")[1])
    assert final_loss < np.log(2.0) / 18.0

    # deterministic: retraining yields a byte-identical checkpoint
    blob = clf.read_bytes()
    assert main(["train-classifier", str(cfg)]) == 0
    assert clf.read_bytes() == blob

    # 2. generator training refuses to run without a scaling profile
    assert main(["train-generator", str(cfg), str(clf)]) == 2
    assert "estimate-lambda" in capsys.readouterr().err

    # 3. estimate and attach the profile
    assert main(["estimate-lambda", str(clf)]) == 0
    verify = out / "classifier_lambda_verify.csv"
    assert verify.exists()
    devs = [float(ln.split(",")[2])
            for ln in verify.read_text().splitlines()[1:]]
    assert max(devs) < 1e-5
    _, _, profile, _ = ck.load_classifier(clf)
    assert profile is not None

    # 4. train the generator
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    gen = out / "generator.ckpt"
    assert gen.exists()
    gen_loss = (out / "generator_loss.csv").read_text().splitlines()
    assert len(gen_loss) == 31  # header + 30 steps
    steps = [int(ln.split(",")[0]) for ln in gen_loss[1:]]
    assert steps == list(range(30))

    # 5. sample
    samples = out / "samples.csv"
    assert main(["sample", str(gen), "--per-class", "5",
                 "--out", str(samples)]) == 0
    rows = samples.read_text().splitlines()
    assert rows[0] == "x0,x1,y,t"
    assert len(rows) == 1 + 15
    labels = [int(r.split(",")[-2]) for r in rows[1:]]
    assert labels == [0] * 5 + [1] * 5 + [2] * 5

    # 6. evaluate
    assert main(["evaluate", str(cfg), str(samples),
                 "--classifier", str(clf)]) == 0
    report = out / "samples_report.csv"
    metrics = dict(ln.split(",")[:2]
                   for ln in report.read_text().splitlines()[1:])
    assert "mean_nn_distance" in metrics
    assert "kkt_stationarity_residual" in metrics
    assert 0.0 <= float(metrics["label_agreement"]) <= 1.0

    # 7. plot
    plot = out / "plot.svg"
    assert main(["plot", str(cfg), str(samples), "--out",
                 str(plot)]) == 0
    text = plot.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_no_command_builds_an_autodiff_graph(tmp_path, monkeypatch):
    """Every command runs on the numpy core: the autodiff graph serves
    only as the tests' reference."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command constructed an autodiff.Tensor")

    monkeypatch.setattr(ad.Tensor, "__init__", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nname = demo\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   + FAST_CLASSIFIER.format(steps=3).replace(
                       "refine_iters = 0", "refine_iters = 2"))
    out = run_dir(tmp_path)
    clf, gen = out / "classifier.ckpt", out / "generator.ckpt"
    samples = out / "samples.csv"
    for argv in (["train-classifier", cfg], ["estimate-lambda", clf],
                 ["train-generator", cfg, clf],
                 ["sample", gen, "--per-class", "3", "--out", samples],
                 ["evaluate", cfg, samples, "--classifier", clf],
                 ["plot", cfg, samples, "--out", out / "plot.svg"]):
        assert main([str(a) for a in argv]) == 0, argv[0]


def test_evaluate_training_points_have_zero_distance(workdir):
    tmp_path, cfg = workdir
    circle = circle_dataset()
    samples = tmp_path / "exact.csv"
    lines = ["x0,x1,y,t"] + [
        f"{p[0]:.17g},{p[1]:.17g},{y},0"
        for p, y in zip(circle.x, circle.labels)]
    samples.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", str(cfg), str(samples)]) == 0
    report = tmp_path / "exact_report.csv"
    metrics = dict(ln.split(",")[:2]
                   for ln in report.read_text().splitlines()[1:])
    assert float(metrics["mean_nn_distance"]) == 0.0
    assert float(metrics["point0_min_distance"]) == 0.0
    assert float(metrics["label_agreement"]) == 1.0


def test_generator_resume_matches_straight_run(workdir):
    tmp_path, cfg30 = workdir
    out = run_dir(tmp_path)
    cfg50 = tmp_path / "run50.cfg"
    cfg50.write_text("[experiment]\nname = demo\n"
                     f"output_dir = {tmp_path / 'runs'}\n"
                     + FAST_CLASSIFIER.format(steps=50))

    assert main(["train-classifier", str(cfg30)]) == 0
    clf = out / "classifier.ckpt"
    assert main(["estimate-lambda", str(clf)]) == 0

    # 30 steps, then resume the same checkpoint up to 50
    assert main(["train-generator", str(cfg30), str(clf),
                 "--name", "resumed"]) == 0
    assert main(["train-generator", str(cfg50), str(clf),
                 "--name", "resumed", "--resume"]) == 0
    # straight 50-step run for comparison
    assert main(["train-generator", str(cfg50), str(clf),
                 "--name", "straight"]) == 0

    _, _, resumed, meta_r = ck.load_generator(out / "resumed.ckpt")
    _, _, straight, meta_s = ck.load_generator(out / "straight.ckpt")
    assert resumed.step == straight.step == 50
    assert np.array_equal(resumed.gen_params.values,
                          straight.gen_params.values)
    assert np.array_equal(resumed.mult_params.values,
                          straight.mult_params.values)
    assert np.array_equal(resumed.alphas, straight.alphas)


def test_resume_keeps_the_loss_history(tmp_path):
    """A 3-step run resumed to 6 steps writes the loss CSV of a straight
    6-step run, byte for byte."""
    clf = tmp_path / "classifier.ckpt"
    profiled_checkpoint(clf, (2, 8, 3))
    written = {}
    for name, runs in (("resumed", (3, 6)), ("straight", (6,))):
        for steps in runs:
            cfg = tmp_path / f"{name}{steps}.cfg"
            cfg.write_text(f"[experiment]\nname = {name}\n"
                           f"output_dir = {tmp_path / 'runs'}\n"
                           + FAST_CLASSIFIER.format(steps=steps))
            assert main(["train-generator", str(cfg), str(clf),
                         "--resume"]) == 0
        written[name] = (tmp_path / "runs" / name
                         / "generator_loss.csv").read_bytes()
    assert written["resumed"].count(b"\n") == 1 + 6
    assert written["resumed"] == written["straight"]


@pytest.mark.parametrize("t_count", [1, 2])
def test_loss_csv_has_the_history_columns(tmp_path, t_count):
    """The loss CSV is HISTORY_KEYS over one row of 6 fields per step,
    whatever the classifier count, with the step and t as integers."""
    clf = tmp_path / "classifier.ckpt"
    profiled_checkpoint(clf, (2, 8, 3))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n"
                   + FAST_CLASSIFIER.format(steps=4))
    assert main(["train-generator", str(cfg), *[str(clf)] * t_count]) == 0
    header, *rows = (tmp_path / "runs" / "experiment"
                     / "generator_loss.csv").read_text().splitlines()
    assert header.split(",") == list(tr.HISTORY_KEYS)
    assert [len(row.split(",")) for row in rows] == [6] * 4
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3"]
    assert {row.split(",")[1] for row in rows} <= {"0", "1"}


def test_config_seed_applies_unless_the_seed_flag_is_given(workdir):
    tmp_path, cfg = workdir
    out = run_dir(tmp_path)
    assert main(["train-classifier", str(cfg)]) == 0
    clf = out / "classifier.ckpt"
    assert main(["estimate-lambda", str(clf)]) == 0
    cfg5 = tmp_path / "seed5.cfg"
    cfg5.write_text(cfg.read_text() + "seed = 5\n")  # [generator_training]

    def run(name, config, *flags):
        assert main(["train-generator", str(config), str(clf), "--name",
                     name, *flags]) == 0
        meta = ck.load_generator(out / f"{name}.ckpt")[3]
        return (out / f"{name}_loss.csv").read_bytes(), meta["config_hash"]

    from_config = run("a", cfg5)
    from_flag = run("b", cfg, "--seed", "5")
    default = run("c", cfg)
    overridden = run("d", cfg5, "--seed", "0")
    assert from_config == from_flag
    assert default == overridden
    assert from_config[0] != default[0]


@pytest.mark.parametrize("change", ["config", "seed", "classifiers",
                                    "other-classifier"])
def test_resume_refuses_a_checkpoint_of_another_run(workdir, capsys,
                                                    change):
    """Only generator_training.steps may differ between a run and its
    resume; extending it is covered above.  A classifier trained with
    another seed, in the place of the run's, is another run too."""
    tmp_path, cfg = workdir
    out = run_dir(tmp_path)
    assert main(["train-classifier", str(cfg)]) == 0
    clf = out / "classifier.ckpt"
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    before = (out / "generator.ckpt").read_bytes()
    argv = ["train-generator", str(cfg), str(clf), "--resume"]
    if change == "config":
        other = tmp_path / "other.cfg"
        other.write_text(cfg.read_text() + "beta = 2.5\n")
        argv[1] = str(other)
    elif change == "seed":
        argv += ["--seed", "1"]
    elif change == "classifiers":
        argv.insert(3, str(clf))
    else:
        other = tmp_path / "other.cfg"
        other.write_text(cfg.read_text().replace(
            "name = demo", "name = other").replace(
            "[classifier]\n", "[classifier]\nseed = 5\n"))
        assert main(["train-classifier", str(other)]) == 0
        argv[2] = str(tmp_path / "runs" / "other" / "classifier.ckpt")
        assert main(["estimate-lambda", argv[2]]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--resume" in err[0]
    assert (out / "generator.ckpt").read_bytes() == before


def test_generator_checkpoint_with_alpha_optimizers_samples(workdir,
                                                           capsys):
    """A generator checkpoint written while alpha was trainable has an
    ``opt.alpha{t}`` Adam section per classifier, and its config hash
    covers ``generator_training.lr_alpha``.  It still samples, to the same
    bytes, and a resume refuses it as a checkpoint of another run."""
    tmp_path, cfg = workdir
    out = run_dir(tmp_path)
    clf, gen = out / "classifier.ckpt", out / "generator.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    samples = [tmp_path / "now.csv", tmp_path / "older.csv"]
    assert main(["sample", str(gen), "--out", str(samples[0])]) == 0
    sections = ck.read_sections(gen)
    sections["opt.alpha0"] = ck._adam_bytes(kernels.Adam(1, 0.0))
    older_hash = RunConfig.from_file(cfg).replaced(
        "generator_training", seed=0, steps=None, lr_alpha=0.0).hash()
    sections["meta"] = sections["meta"].replace(
        ck.load_generator(gen)[3]["config_hash"].encode(),
        older_hash.encode())
    ck.write_sections(gen, sections)
    assert ck.load_generator(gen)[3]["config_hash"] == older_hash
    assert main(["sample", str(gen), "--out", str(samples[1])]) == 0
    assert samples[0].read_bytes() == samples[1].read_bytes()
    before = gen.read_bytes()
    capsys.readouterr()
    assert main(["train-generator", str(cfg), str(clf), "--resume"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "another configuration" in err[0]
    assert gen.read_bytes() == before


def test_generator_checkpoint_with_alpha_columns_samples(workdir, capsys):
    """A generator checkpoint written while each history row ended in one
    alpha per classifier, and while the config held the acceptance
    suite's three [experiment] keys, still samples, to the same bytes; a
    resume refuses its history."""
    tmp_path, cfg = workdir
    out = run_dir(tmp_path)
    clf, gen = out / "classifier.ckpt", out / "generator.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    samples = [tmp_path / "now.csv", tmp_path / "older.csv"]
    assert main(["sample", str(gen), "--out", str(samples[0])]) == 0
    sections = ck.read_sections(gen)
    _, _, state, meta = ck.load_generator(gen)
    rows = np.frombuffer(sections["history"]).reshape(state.step, 6)
    sections["history"] = np.hstack(
        [rows, np.full((state.step, 1), state.alphas[0])]).tobytes()
    older_hash = RunConfig.from_file(cfg).replaced(
        "experiment", seeds=(0, 10, 14), eval_samples_per_class=200,
        eval_seed_offset=100).replaced(
        "generator_training", seed=0, steps=None).hash()
    sections["meta"] = sections["meta"].replace(
        meta["config_hash"].encode(), older_hash.encode())
    ck.write_sections(gen, sections)
    assert main(["sample", str(gen), "--out", str(samples[1])]) == 0
    assert samples[0].read_bytes() == samples[1].read_bytes()
    before = gen.read_bytes()
    capsys.readouterr()
    assert main(["train-generator", str(cfg), str(clf), "--resume"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "history values for 30 steps of 6" in err[0]
    assert gen.read_bytes() == before


# (section container cut, parameter blob cut) in bytes: a cut in the
# container's version, section count and first name length, then cuts in
# the parameter blob's version, group count and group table
TRUNCATIONS = [(6, None), (10, None), (13, None),
               (None, 6), (None, 42), (None, 50)]


@pytest.mark.parametrize("container_cut,blob_cut", TRUNCATIONS)
@pytest.mark.parametrize("command", ["estimate-lambda", "train-generator"])
def test_truncated_classifier_header_is_usage_error(tmp_path, capsys,
                                                    command, container_cut,
                                                    blob_cut):
    spec = MlpSpec((2, 8, 3), False)
    clf = tmp_path / "classifier.ckpt"
    ck.save_classifier(clf, spec, init_kaiming(spec, 0))
    if container_cut is not None:
        clf.write_bytes(clf.read_bytes()[:container_cut])
    else:
        sections = ck.read_sections(clf)
        sections["params"] = sections["params"][:blob_cut]
        ck.write_sections(clf, sections)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n")
    argv = {"estimate-lambda": ["estimate-lambda", str(clf)],
            "train-generator": ["train-generator", str(cfg), str(clf)]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "truncated at byte" in err[0]


def small_generator_run(tmp_path):
    """A classifier checkpoint with a profile, a config and the generator
    checkpoint a resume of that config reads, with optimizer state."""
    clf = tmp_path / "classifier.ckpt"
    profiled_checkpoint(clf, (2, 8, 3))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n")
    gen_spec = GeneratorSpec(2, 3, (8,), 2)
    mult_spec = MultiplierSpec(2, 3, (8,))
    theta = init_kaiming(gen_spec.mlp(), 1)
    eta = init_kaiming(mult_spec.mlp(), 2)
    state = tr.GeneratorTrainState(theta, eta, np.zeros(1), np.ones(1),
                                   step=3)
    state.optimizers = {"theta": kernels.Adam(len(theta), 1e-3),
                        "eta": kernels.Adam(len(eta), 1e-3)}
    state.history = [(step, 0, 0.5, 0.5, 0.5, 0.5) for step in range(3)]
    gen = tmp_path / "runs" / "experiment" / "generator.ckpt"
    gen.parent.mkdir(parents=True)
    ck.save_generator(gen, gen_spec, mult_spec, state)
    return clf, cfg, gen


# generator-checkpoint cuts: (section, cut) in bytes, None for the whole
# container; the parameter-blob cuts are those of TRUNCATIONS, a cut
# optimizer section has lost its separator or, cut after its 8-byte JSON
# header, the separator and two floats, has one of each moment (which
# would broadcast), an emptied deltas section no longer has one band
# width per alpha, and a cut history no longer has one row per step
GENERATOR_TRUNCATIONS = [(None, 6), (None, 10), (None, 13), (None, 300),
                         ("gen_params", 6), ("gen_params", 42),
                         ("gen_params", 50), ("mult_params", 42),
                         ("opt.theta", 3), ("deltas", 0), ("history", 8),
                         ("opt.theta", 25)]


@pytest.mark.parametrize("section,cut", GENERATOR_TRUNCATIONS)
@pytest.mark.parametrize("command", ["sample", "train-generator"])
def test_truncated_generator_checkpoint_is_usage_error(tmp_path, capsys,
                                                       command, section,
                                                       cut):
    clf, cfg, gen = small_generator_run(tmp_path)
    if section is None:
        gen.write_bytes(gen.read_bytes()[:cut])
    else:
        sections = ck.read_sections(gen)
        sections[section] = sections[section][:cut]
        ck.write_sections(gen, sections)
    argv = generator_argv(command, tmp_path, clf, cfg, gen)
    if command == "sample" and section in ("opt.theta", "history"):
        # sampling reads no optimizer state and no history
        assert main(argv) == 0
        return
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(gen) in err[0]
    assert "truncated" in err[0] or "corrupt" in err[0]


def generator_argv(command, tmp_path, clf, cfg, gen):
    """``sample`` of the generator checkpoint of
    :func:`small_generator_run`, or ``train-generator --resume`` of it."""
    if command == "sample":
        return ["sample", str(gen), "--out", str(tmp_path / "s.csv")]
    return ["train-generator", str(cfg), str(clf), "--resume"]


# meta.step values that are not a nonnegative JSON integer
BAD_STEPS = ["null", "true", "1.5", '"3"', "-1"]


@pytest.mark.parametrize("step", BAD_STEPS)
@pytest.mark.parametrize("command", ["sample", "train-generator"])
def test_bad_generator_step_is_usage_error(tmp_path, capsys, command, step):
    """meta.step, where a resumed run's seed table starts, is validated
    as read: no traceback, no coercion by int()."""
    clf, cfg, gen = small_generator_run(tmp_path)
    sections = ck.read_sections(gen)
    meta = json.loads(sections["meta"])
    meta["step"] = json.loads(step)
    sections["meta"] = json.dumps(meta).encode("utf-8")
    ck.write_sections(gen, sections)
    capsys.readouterr()
    assert main(generator_argv(command, tmp_path, clf, cfg, gen)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(gen) in err[0]
    assert "corrupt generator checkpoint" in err[0]
    assert f"step {step} is not a nonnegative integer" in err[0]


# the values a mutation sweep sets each JSON field of a checkpoint to
SWEEP_VALUES = [None, "x", -1, 0, 2 ** 40, 1.5, float("nan"), [], {}, True,
                [1, "a"]]
# the sections a sweep edits: the classifier's, read by estimate-lambda,
# evaluate --classifier and train-generator, and the generator's, read by
# sample and train-generator --resume; an opt.* section's JSON is the
# header before its moments
CLASSIFIER_SECTIONS = ("spec", "profile", "meta")
GENERATOR_SECTIONS = ("gen_spec", "mult_spec", "meta", "opt.theta",
                      "opt.eta")


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """The directory of a trained classifier with its profile, a 3-step
    generator run of it and a samples file to evaluate."""
    d = tmp_path_factory.mktemp("sweep")
    cfg = d / "run.cfg"
    cfg.write_text(f"[experiment]\nname = demo\noutput_dir = {d / 'runs'}\n"
                   + FAST_CLASSIFIER.format(steps=3))
    clf = run_dir(d) / "classifier.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    (d / "s.csv").write_text("x0,x1,y,t\n1.0,0.0,0,0\n")
    return d


def sweep_argv(command, d, target):
    """``command`` of the sweep on the checkpoint ``target``."""
    cfg, clf = d / "run.cfg", run_dir(d) / "classifier.ckpt"
    return [str(a) for a in {
        "estimate-lambda": ["estimate-lambda", target, "--out", d / "v.csv"],
        "evaluate": ["evaluate", cfg, d / "s.csv", "--classifier", target,
                     "--out", d / "r.csv"],
        "train-generator": ["train-generator", cfg, target, "--name", "new"],
        "sample": ["sample", target, "--per-class", "2", "--out",
                   d / "drawn.csv"],
        "resume": ["train-generator", cfg, clf, "--name", target.stem,
                   "--resume"]}[command]]


def field_paths(obj, path=()):
    """Each key of the JSON object ``obj``, nested, and each of the first
    3 entries of a list, as a path of keys and indices."""
    for key, value in obj.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from field_paths(value, (*path, key))
        elif isinstance(value, list):
            yield from ((*path, key, i) for i in range(min(3, len(value))))


def mutated(sections, name, field, value):
    """``sections`` with ``field`` of section ``name`` set to ``value``."""
    head, sep, rest = sections[name].partition(b"\x00")
    obj = json.loads(head)
    *parents, last = field
    functools.reduce(operator.getitem, parents, obj)[last] = value
    return {**sections, name: json.dumps(obj).encode("utf-8") + sep + rest}


def sweep(d, command, source, names, capsys):
    """Run ``command`` once per mutation of a field of section ``names``
    of ``source``; returns each run's (section, field, value, exit code
    or exception, stderr lines)."""
    sections = ck.read_sections(source)
    target = run_dir(d) / f"mutated{source.suffix}"
    runs = []
    for name in names:
        fields = list(field_paths(json.loads(
            sections[name].partition(b"\x00")[0])))
        for field, value in itertools.product(fields, SWEEP_VALUES):
            ck.write_sections(target, mutated(sections, name, field, value))
            capsys.readouterr()
            try:
                code = main(sweep_argv(command, d, target))
            except Exception as exc:  # recorded, so all of them show
                code = repr(exc)
            runs.append((name, field, value, code,
                         capsys.readouterr().err.strip().splitlines()))
    return runs


@pytest.mark.parametrize("command", ["estimate-lambda", "evaluate",
                                     "train-generator", "sample", "resume"])
def test_checkpoint_mutation_sweep_ends_in_an_exit_code(sweep_run, capsys,
                                                        command):
    """Every JSON field of a checkpoint set to each of SWEEP_VALUES in
    turn: the command exits 0, 2, 3 or 4, a failure with one line on
    stderr, and none ends in an exception."""
    d = sweep_run
    source, names = ((run_dir(d) / "generator.ckpt", GENERATOR_SECTIONS)
                     if command in ("sample", "resume") else
                     (run_dir(d) / "classifier.ckpt", CLASSIFIER_SECTIONS))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runs = sweep(d, command, source, names, capsys)
    bad = [run for run in runs
           if run[3] not in (0, 2, 3, 4) or run[3] and not (
               len(run[4]) == 1
               and run[4][0].startswith("error: "))]
    assert len(runs) > 200 and not bad, bad[:10]


# mutations a load once took in silence: (command, section, field, value)
SILENT_MUTATIONS = [
    ("train-generator", "meta", ("dataset_size",), True),
    ("train-generator", "profile", ("lambdas", "layer0.weight"),
     float("nan")),
    ("evaluate", "profile", ("lambdas", "layer0.weight"), float("nan")),
    *(("resume", name, ("t",), t) for name in ("opt.theta", "opt.eta")
      for t in (1.5, "3", -1)),
]


@pytest.mark.parametrize(
    "command,name,field,value", SILENT_MUTATIONS,
    ids=[f"{c}-{n}.{'.'.join(f)}={json.dumps(v)}"
         for c, n, f, v in SILENT_MUTATIONS])
def test_silently_taken_mutation_is_usage_error(sweep_run, capsys, command,
                                                name, field, value):
    d = sweep_run
    source = run_dir(d) / ("generator.ckpt" if command == "resume"
                           else "classifier.ckpt")
    target = run_dir(d) / "mutated.ckpt"
    ck.write_sections(target, mutated(ck.read_sections(source), name, field,
                                      value))
    capsys.readouterr()
    assert main(sweep_argv(command, d, target)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(target) in err[0]
    assert f"corrupt {'generator' if command == 'resume' else 'classifier'}" \
        f" checkpoint ({name}: {field[0]}" in err[0]


# the truncation sweep cuts at every this many bytes; a cut at every byte
# gives the same exit codes, in minutes
CUT_STRIDE = {"classifier": 11, "generator": 307}


def cut_points(size, stride, spans):
    """Every ``stride``-th offset below ``size``, and the offsets that keep
    the first byte of each (start, end) span of ``spans`` or drop its last
    one."""
    ends = {cut for start, end in spans for cut in (start + 1, end - 1)}
    return sorted(set(range(0, size, stride))
                  | {cut for cut in ends if 0 <= cut < size})


def truncations(source, stride):
    """(what, bytes) of each cut of the checkpoint ``source``: the whole
    container, and each section's payload in a container rewritten
    around it."""
    blob = source.read_bytes()
    sections = ck.read_sections(source)
    spans, pos = [], 12  # magic, version and section count
    for name, payload in sections.items():
        start = pos + 2 + len(name.encode("utf-8")) + 8
        spans += [(pos, start), (start, start + len(payload))]
        pos = start + len(payload)
    for cut in cut_points(len(blob), stride, spans):
        yield f"container[:{cut}]", blob[:cut]
    for name, payload in sections.items():
        for cut in cut_points(len(payload), stride, [(0, len(payload))]):
            target = source.with_name("sections.tmp")
            ck.write_sections(target, {**sections,
                                       name: payload[:cut]})
            yield f"{name}[:{cut}]", target.read_bytes()


@pytest.mark.parametrize("kind,commands", [
    ("classifier", ("estimate-lambda", "evaluate", "train-generator")),
    ("generator", ("sample", "resume"))])
def test_truncation_sweep_ends_in_usage_errors(sweep_run, capsys, kind,
                                               commands):
    """A checkpoint cut anywhere, as a whole or in one section, ends each
    command that reads what was cut in exit 2 and one error line.
    ``sample`` reads no optimizer state and no history: it samples."""
    d = sweep_run
    target = run_dir(d) / "cut.ckpt"
    bad = []
    runs = 0
    for what, blob in truncations(run_dir(d) / f"{kind}.ckpt",
                                  CUT_STRIDE[kind]):
        target.write_bytes(blob)
        for command in commands:
            unread = command == "sample" and what.startswith(
                ("opt.", "history["))
            capsys.readouterr()
            try:
                code = main(sweep_argv(command, d, target))
            except Exception as exc:  # recorded, so all of them show
                code = repr(exc)
            err = capsys.readouterr().err.strip().splitlines()
            runs += 1
            if code != (0 if unread else 2) or not unread and not (
                    len(err) == 1 and str(target) in err[0]):
                bad.append((what, command, code, err))
    assert runs > 300 and not bad, bad[:10]


def test_nan_scaling_deviation_fails_verification(tmp_path, capsys,
                                                  monkeypatch):
    """A deviation that is NaN is not within the limit: estimate-lambda
    and train-generator exit 3.  A profile of finite lambdas of 1e300
    overflows the rescaled network into NaN."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n"
                   "[generator_training]\nsteps = 3\n")
    clf, huge = tmp_path / "clf.ckpt", tmp_path / "huge.ckpt"
    profiled_checkpoint(clf, (2, 8, 3))
    profiled_checkpoint(huge, (2, 8, 3), lambdas=1e300)
    real = cli.scaling_deviations

    def one_nan(*args):
        devs = real(*args)
        devs[0, 0] = np.nan
        return devs

    monkeypatch.setattr(cli, "scaling_deviations", one_nan)
    sections = ck.read_sections(clf)
    del sections["profile"]
    ck.write_sections(clf, sections)
    capsys.readouterr()
    assert main(["estimate-lambda", str(clf)]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {clf}: profile fails verification (deviation nan, "
        f"limit 1e-05)"]
    # the failing profile is attached, and its deviations written
    assert ck.load_classifier(clf)[2] is not None
    assert (tmp_path / "clf_lambda_verify.csv").exists()
    # the overflow of the rescaled network raises no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train-generator", str(cfg), str(huge)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert f"{huge}: profile fails verification (deviation nan" in err[0]


@pytest.mark.parametrize("missing", [("opt.theta",), ("opt.eta",),
                                     ("opt.theta", "opt.eta"),
                                     ("opt.theta", "opt.eta", "history"),
                                     ("history",)])
def test_resume_without_optimizer_state_is_usage_error(workdir, capsys,
                                                       missing):
    tmp_path, cfg = workdir
    head = f"[experiment]\nname = demo\noutput_dir = {tmp_path / 'runs'}\n"
    cfg.write_text(head + FAST_CLASSIFIER.format(steps=3))
    clf = run_dir(tmp_path) / "classifier.ckpt"
    gen = run_dir(tmp_path) / "generator.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    cfg.write_text(head + FAST_CLASSIFIER.format(steps=6))
    sections = ck.read_sections(gen)
    for name in missing:
        del sections[name]
    ck.write_sections(gen, sections)
    capsys.readouterr()
    assert main(["train-generator", str(cfg), str(clf), "--resume"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(gen) in err[0]
    assert "incomplete" in err[0] and ", ".join(missing) in err[0]


def test_plot_scatter_rejects_high_dim(tmp_path, capsys):
    cfg = tmp_path / "pat.cfg"
    cfg.write_text("[dataset]\nkind = stripes-vs-checks-8x8\n")
    samples = tmp_path / "s.csv"
    header = ",".join([f"x{i}" for i in range(64)] + ["y", "t"])
    row = ",".join(["0.5"] * 64 + ["0", "0"])
    samples.write_text(header + "\n" + row + "\n")
    assert main(["plot", str(cfg), str(samples), "--out",
                 str(tmp_path / "p.svg")]) == 2
    assert "grid" in capsys.readouterr().err
    assert main(["plot", str(cfg), str(samples), "--mode", "grid",
                 "--out", str(tmp_path / "p.svg")]) == 0
    assert (tmp_path / "p.svg").read_text().startswith("<svg")


def test_plot_empty_samples_draws_axes(workdir):
    tmp_path, cfg = workdir
    samples = tmp_path / "empty.csv"
    samples.write_text("x0,x1,y,t\n")
    out = tmp_path / "empty.svg"
    assert main(["plot", str(cfg), str(samples), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "<line" in text


def test_plot_of_a_split_config_draws_every_shard(tmp_path):
    """plot draws the data evaluate compares with: all 18 circle points
    of the two arc shards, not the first shard's 9."""
    cfg = tmp_path / "arc.cfg"
    cfg.write_text("[dataset]\nsplit = arc\n")
    samples = tmp_path / "empty.csv"
    samples.write_text("x0,x1,y,t\n")
    out = tmp_path / "arc.svg"
    assert main(["plot", str(cfg), str(samples), "--out", str(out)]) == 0
    assert out.read_text().count("<circle") == 18


# a samples file evaluate and plot cannot use, against the 2-d circle:
# (id, file text, a fragment of the one error line)
BAD_SAMPLES = [
    ("no-y-t-columns", "a,b,c\n1,2,3\n", "y,t"),
    ("empty-file", "", "no header"),
    ("not-a-number", "x0,x1,y,t\n0.1,0.2,0,0\n0.3,abc,1,0\n", "row 2"),
    ("too-few-fields", "x0,x1,y,t\n0.1,0.2,0,0\n0.3,1,0\n", "row 2"),
    ("too-many-fields", "x0,x1,y,t\n0.1,0.2,0,0,0\n", "row 1"),
    ("y-not-integer", "x0,x1,y,t\n0.1,0.2,0,0\n0.1,0.2,0.5,0\n", "row 2"),
    ("t-not-integer", "x0,x1,y,t\n0.1,0.2,0,1.5\n", "row 1"),
    ("y-not-a-class", "x0,x1,y,t\n0.1,0.2,0,0\n0.1,0.2,7,0\n", "row 2"),
    ("y-negative", "x0,x1,y,t\n0.1,0.2,-1,0\n", "row 1"),
    ("nan-coordinate", "x0,x1,y,t\n0.1,0.2,0,0\nnan,0.2,1,0\n", "row 2"),
    ("inf-coordinate", "x0,x1,y,t\n0.1,-inf,0,0\n", "row 1"),
    ("wrong-width", "x0,x1,x2,y,t\n0.1,0.2,0.3,0,0\n", "coordinates"),
]


@pytest.mark.parametrize("command", ["evaluate", "plot"])
@pytest.mark.parametrize("text,fragment", [
    pytest.param(text, fragment, id=name)
    for name, text, fragment in BAD_SAMPLES])
def test_bad_samples_file_is_usage_error(workdir, capsys, command, text,
                                         fragment):
    tmp_path, cfg = workdir
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, str(cfg), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(bad) in err[0] and fragment in err[0]
    assert not out.exists()


def test_evaluate_of_no_samples_is_usage_error(workdir, capsys):
    """A header-only file has nothing to evaluate (plot draws the axes,
    see test_plot_empty_samples_draws_axes)."""
    tmp_path, cfg = workdir
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1,y,t\n")
    assert main(["evaluate", str(cfg), str(empty)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(empty) in err[0]


# a [dataset] kind = csv file train-classifier cannot use: (id, file text
# or None for no file)
BAD_DATASET_CSV = [
    ("missing-file", None),
    ("empty-file", ""),
    ("header-only", "x0,x1,y\n"),
    ("not-a-number", "x0,x1,y\n0.1,0.2,0\n0.1,zero,1\n"),
    ("too-few-fields", "x0,x1,y\n0.1,0.2,0\n0.1,1\n"),
    ("label-not-integer", "x0,x1,y\n0.1,0.2,0.5\n"),
    ("label-out-of-range", "x0,x1,y\n0.1,0.2,0\n0.3,0.4,2\n"),
    ("nan-coordinate", "x0,x1,y\n0.1,nan,0\n"),
    ("one-column", "y\n0\n"),
]


@pytest.mark.parametrize("text", [
    pytest.param(text, id=name) for name, text in BAD_DATASET_CSV])
def test_bad_dataset_csv_is_config_error(tmp_path, capsys, text):
    data = tmp_path / "data.csv"
    if text is not None:
        data.write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path / 'runs'}\n"
                   f"[dataset]\nkind = csv\ncsv_path = {data}\n"
                   "num_classes = 2\n")
    assert main(["train-classifier", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "dataset.csv_path" in err[0] and str(data) in err[0]
    assert not (tmp_path / "runs").exists()



def test_train_generator_reads_no_data(tmp_path):
    """train-generator takes each classifier's N from its checkpoint: with
    the training CSV deleted it writes the bytes it writes with it."""
    data = tmp_path / "circle.csv"
    circle = circle_dataset()
    data.write_text("x0,x1,y\n" + "".join(
        f"{a:.17g},{b:.17g},{y}\n"
        for (a, b), y in zip(circle.x, circle.labels)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nname = demo\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   f"[dataset]\nkind = csv\ncsv_path = {data}\n"
                   "num_classes = 3\n" + FAST_CLASSIFIER.format(steps=5))
    out = run_dir(tmp_path)
    clf = out / "classifier.ckpt"
    assert main(["train-classifier", str(cfg)]) == 0
    assert main(["estimate-lambda", str(clf)]) == 0
    assert ck.load_classifier(clf)[3]["dataset_size"] == 18
    outputs = [out / "generator.ckpt", out / "generator_loss.csv"]
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    with_data = [p.read_bytes() for p in outputs]
    data.unlink()
    assert main(["train-generator", str(cfg), str(clf)]) == 0
    assert [p.read_bytes() for p in outputs] == with_data


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_commands_parse():
    """Every ``kktgen`` line of the README names a command and flags the
    parser has; parsing runs nothing."""
    with open(README, encoding="utf-8") as fh:
        lines = [line.split()[1:] for line in fh
                 if line.startswith("kktgen ")]
    assert len(lines) >= 6
    parser = build_parser()
    for argv in lines:
        assert parser.parse_args(argv).command == argv[0]
