"""Pipeline benchmark: the whole kktgen pipeline, timed and checked.

    python3 pipebench/run.py --workload circle-reference --seed 0 \
        --seconds 25 --trace 0

Runs from the root of a source checkout.  Each round executes the six
CLI commands in one process through ``kktgen.cli.main``, one after the
other (train-classifier, estimate-lambda, train-generator, then sample,
evaluate and plot), and then checks every output against the numpy
yardstick in ``reference.py``.  Rounds repeat while another round still
fits in ``--seconds`` of timed work at reference speed (see
speed.py); there is always at least one.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics: the end-to-end ones with ``--trace 0``, the
per-layer ones (from ``tracing.py``) with ``--trace 1``.  An operation is
one CLI command or one check.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".pipebench_out")
SETUP_PROBES = 3


@dataclass(frozen=True)
class Workload:
    config: str  # config text below [experiment]
    per_class: int
    eval_repeats: int
    plot_mode: str
    oracle: bool  # evaluate --classifier, so the KKT oracle runs
    kkt_controls: bool
    label_rate_min: float  # 0 skips the label-rate check


WORKLOADS = {
    "circle-reference": Workload(
        config="""
[generator_training]
steps = 2000
""", per_class=4000, eval_repeats=9,
        plot_mode="scatter", oracle=True, kkt_controls=True,
        label_rate_min=0.7),
    "patterns-tv": Workload(
        config="""
[dataset]
kind = stripes-vs-checks-8x8

[classifier]
widths = 64,32,32,2
learning_rate = 0.001
refine_iters = 1000

[generator_training]
steps = 2000
tv_weight = 0.01
tv_shape = 8,8
""", per_class=100, eval_repeats=7,
        plot_mode="grid", oracle=True, kkt_controls=False,
        label_rate_min=0.0),
    "circle-shards": Workload(
        config="""
[dataset]
split = arc

[classifier]
refine_iters = 2000

[generator_training]
steps = 1500
full_sum = true
""", per_class=4000, eval_repeats=9,
        plot_mode="scatter", oracle=False, kkt_controls=True,
        label_rate_min=0.6),
}
# README.md gives the reasons for the step counts, the repeats and the
# label-rate thresholds, and why circle-shards runs without the oracle.


def config_text(workload, out_dir):
    return (f"[experiment]\nname = exp\noutput_dir = {out_dir}\n"
            + WORKLOADS[workload].config)


def setup(workload):
    """Import kktgen, parse the workload's config, make a scratch dir.

    Returns (kktgen.cli module, RunConfig, scratch directory).  This is
    the part of a run that ``setup_s`` times, in fresh processes.
    """
    init = os.path.join(SRC, "kktgen", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no kktgen sources at {init}; run from "
                         "the root of a kktgen checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import kktgen
    import kktgen.cli as cli

    if os.path.realpath(kktgen.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported kktgen from {kktgen.__file__}, "
                         f"not from {SRC}")
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    config = kktgen.RunConfig.from_text(config_text(workload, tmp))
    return cli, config, tmp


def probe_setup(workload):
    """Time from the start of a fresh process until setup() returned.

    The probe samples its own speed (see speed.py) and reports the
    factor that scales its wall time to the reference speed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe",
         "--workload", workload],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    finally:
        proc.stdout.close()
        code = proc.wait()
    word, _, factor = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return (t1 - t0) * float(factor)


class Round:
    """One pass of the six commands and the checks of their outputs.

    Each stage (the classifier commands, train-generator, each repeat of
    the post-training commands) runs under one :class:`speed.SpeedSampler`,
    and its times are reported scaled to the reference machine speed.
    """

    def __init__(self, cli, config, workload, seed, out_dir, log,
                 tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.datasets = config.dataset()
        self.steps = config.get("generator_training", "steps")
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.out = out_dir
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.stage = {}
        self.measured_s = 0.0  # every timed command, at reference speed
        self.pipeline_wall_s = None
        os.makedirs(out_dir)
        self.cfg = os.path.join(out_dir, "run.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(workload, out_dir))
        run = os.path.join(out_dir, "exp")
        n = len(self.datasets)
        tags = [f"_{k + 1}" for k in range(n)] if n > 1 else [""]
        self.files = {
            "classifiers": [os.path.join(run, f"classifier{t}.ckpt")
                            for t in tags],
            "classifier_losses": [os.path.join(run, f"classifier{t}_loss.csv")
                                  for t in tags],
            "generator": os.path.join(run, "generator.ckpt"),
            "generator_losses": os.path.join(run, "generator_loss.csv"),
            "samples": os.path.join(out_dir, "samples.csv"),
            "report": os.path.join(out_dir, "report.csv"),
            "plot": os.path.join(out_dir, "plot.svg"),
        }

    def command(self, argv):
        """Run one CLI command; returns its wall time in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.log):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"FAILED: kktgen {' '.join(argv)} -> {code}",
                  file=sys.stderr)
        return dt

    def run_stage(self, commands):
        """Run commands under one speed sampler.

        Returns their times scaled to the reference speed and their wall
        times, both in seconds.
        """
        from speed import SpeedSampler

        with SpeedSampler() as speed:
            wall = [self.command(argv) for argv in commands]
        factor = speed.factor()
        if self.tracer is not None:
            self.tracer.close_stage(factor)
        scaled = [t * factor for t in wall]
        self.measured_s += sum(scaled)
        return scaled, wall

    def classifier_commands(self):
        return ([["train-classifier", self.cfg]]
                + [["estimate-lambda", ck, "--seed", str(self.seed)]
                   for ck in self.files["classifiers"]])

    def generator_command(self):
        return ["train-generator", self.cfg, *self.files["classifiers"],
                "--seed", str(self.seed)]

    def pipeline(self):
        """The six commands; fills ``self.stage`` with their times."""
        w, seed, f = self.w, self.seed, self.files
        stage = self.stage
        (first, *lam), classifier_wall = self.run_stage(
            self.classifier_commands())
        stage["train_classifier"], stage["estimate_lambda"] = first, sum(lam)
        (stage["train_generator"],), generator_wall = self.run_stage(
            [self.generator_command()])
        evaluate = ["evaluate", self.cfg, f["samples"], "--out", f["report"]]
        if w.oracle:
            evaluate += ["--classifier", f["classifiers"][0]]
        repeats = [self.run_stage([
            ["sample", f["generator"], "--per-class", str(w.per_class),
             "--seed", str(seed + 100), "--out", f["samples"]],
            evaluate,
            ["plot", self.cfg, f["samples"], "--mode", w.plot_mode,
             "--out", f["plot"]]]) for _ in range(w.eval_repeats)]
        for j, key in enumerate(("sample", "evaluate", "plot")):
            stage[key] = statistics.median(r[0][j] for r in repeats)
        stage["post"] = statistics.median(sum(r[0]) for r in repeats)
        self.pipeline_wall_s = (sum(classifier_wall) + sum(generator_wall)
                                + statistics.median(sum(r[1])
                                                    for r in repeats))

    def check(self):
        from checks import RoundChecks

        checks = RoundChecks(self.w, self.files, self.datasets, self.steps,
                             self.seed)
        for name in checks.names():
            self.attempted += 1
            try:
                checks.run(name)
            except Exception as exc:
                self.failed += 1
                print(f"FAILED: check {name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)

    def end_to_end(self, rss_mb):
        s = self.stage
        classifier = s["train_classifier"] + s["estimate_lambda"]
        return {
            "classifier_s": classifier,
            "gen_steps_per_s": self.steps / s["train_generator"],
            "eval_s": s["post"],
            "pipeline_s": classifier + s["train_generator"] + s["post"],
            "peak_rss_mb": rss_mb,
        }

    def per_layer(self):
        s = self.stage
        out = {f"cli.{key}_s": (s[key], "s") for key in (
            "train_classifier", "estimate_lambda", "train_generator",
            "sample", "evaluate", "plot")}
        out.update(self.tracer.metrics())
        out["trace.pipeline_s"] = (s["train_classifier"]
                                   + s["estimate_lambda"]
                                   + s["train_generator"] + s["post"], "s")
        out["trace.pipeline_wall_s"] = (self.pipeline_wall_s, "s")
        return out


UNITS = {"setup_s": "s", "classifier_s": "s", "gen_steps_per_s": "steps/s",
         "eval_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def run(args):
    cli, config, tmp = setup(args.workload)
    try:
        from tracing import Tracer

        probes = []
        attempted = failed = 0
        measured = 0.0
        samples = []
        with open(os.path.join(tmp, "cli.log"), "w",
                  encoding="utf-8") as log:
            while True:
                out = os.path.join(tmp, f"round{len(samples)}")
                if args.trace:
                    with Tracer() as tracer:
                        r = Round(cli, config, args.workload, args.seed, out,
                                  log, tracer)
                        r.pipeline()
                    values = r.per_layer()
                else:
                    r = Round(cli, config, args.workload, args.seed, out,
                              log)
                    r.pipeline()
                    rss = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    values = {k: (v, UNITS[k])
                              for k, v in r.end_to_end(rss).items()}
                    print(f"wall: pipeline_s {r.pipeline_wall_s:.4f} "
                          f"(scaled {values['pipeline_s'][0]:.4f})",
                          file=sys.stderr)
                while not args.trace and len(probes) < SETUP_PROBES:
                    probes.append(probe_setup(args.workload))
                r.check()
                shutil.rmtree(r.out)
                samples.append(values)
                attempted += r.attempted
                failed += r.failed
                # the budget counts timed work at reference speed, so the
                # number of rounds does not follow the machine's speed
                measured += r.measured_s
                if measured + r.measured_s > args.seconds:
                    break
        metrics = {}
        for key, (_, unit) in samples[0].items():
            metrics[key] = {"value": statistics.median(
                s[key][0] for s in samples), "unit": unit}
        if not args.trace:
            metrics = {"setup_s": {"value": statistics.median(probes),
                                   "unit": "s"}, **metrics}
            # peak memory is a high-water mark: the first round sets it
            metrics["peak_rss_mb"]["value"] = samples[0]["peak_rss_mb"][0]
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        from speed import SpeedSampler

        with SpeedSampler() as speed:
            _, _, tmp = setup(args.workload)
        print(f"ready {speed.factor()!r}", flush=True)
        shutil.rmtree(tmp)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
