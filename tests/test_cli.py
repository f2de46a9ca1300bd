"""End-to-end tests of the command-line interface (in-process)."""

import warnings

import numpy as np
import pytest

import kktgen.checkpoint as ck
from kktgen.cli import main
from kktgen.datasets import circle_dataset

FAST_CLASSIFIER = """
[classifier]
widths = 2,8,3
refine_margins = false

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


def test_missing_config_is_usage_error(capsys):
    assert main(["train-classifier", "/nonexistent.cfg"]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[classifier]\ntypo = 1\n")
    assert main(["train-classifier", str(cfg)]) == 2
    assert "typo" in capsys.readouterr().err


def test_bad_dataset_kind_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[dataset]\nkind = bogus\n")
    assert main(["train-classifier", str(cfg)]) == 2


def test_classifier_nonconvergence_is_numeric_error(tmp_path, capsys):
    cfg = tmp_path / "stall.cfg"
    cfg.write_text("[experiment]\nname = stall\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   "[classifier]\nwidths = 2,8,3\nmax_epochs = 3\n"
                   "refine_margins = false\n")
    assert main(["train-classifier", str(cfg)]) == 4
    # the partial loss trajectory is still recorded
    assert (tmp_path / "runs" / "stall" / "classifier_loss.csv").exists()


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


def test_evaluate_non_separating_classifier_is_verify_error(tmp_path,
                                                            capsys):
    """A shard classifier does not separate the combined arc-split data."""
    cfg = tmp_path / "arc.cfg"
    cfg.write_text("[experiment]\nname = arc\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   "[dataset]\nsplit = arc\n"
                   "[classifier]\nrefine_margins = false\n")
    out = tmp_path / "runs" / "arc"
    assert main(["train-classifier", str(cfg)]) == 0
    clf = out / "classifier_1.ckpt"
    assert main(["estimate-lambda", str(clf)]) == 0
    samples = tmp_path / "s.csv"
    samples.write_text("x0,x1,y,t\n1.0,0.0,0,0\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evaluate", str(cfg), str(samples), "--classifier",
                     str(clf)])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "does not separate" in err[0]


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
    from kktgen.models import MlpSpec, init_kaiming

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


def test_sample_from_missing_checkpoint_fails(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["sample", str(tmp_path / "none.ckpt")])


def test_plot_scatter_rejects_high_dim(tmp_path, capsys):
    cfg = tmp_path / "pat.cfg"
    cfg.write_text("[dataset]\nkind = stripes-vs-checks-8x8\n"
                   "pattern_per_class = 2\n")
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


def test_malformed_samples_csv(workdir, capsys):
    tmp_path, cfg = workdir
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["evaluate", str(cfg), str(bad)]) == 2
    assert "y,t" in capsys.readouterr().err


def test_selftest():
    assert main(["selftest"]) == 0
