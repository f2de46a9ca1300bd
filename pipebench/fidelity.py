"""Fidelity of the speed scaling: a known change of work must show at
full size in the scaled times.

    python3 pipebench/fidelity.py --workload circle-reference --pairs 6

Trains the workload's classifiers once, then runs ``train-generator``
for ``--steps`` steps again and again, alternately as configured and
with one change injected, in ABBA order (plain, changed, changed,
plain, ...), each run under its own speed sampler exactly as a
benchmark stage is.  For each change it prints the median over the
pairs of changed ÷ plain, of the wall times and of the scaled times.
Scaling is faithful when the two ratios agree: the factor then divides
out the machine's speed and leaves the program's own change at full
size, instead of moving with it.

Each change swaps a kktgen function from here, as tracing.py does; the
program's files are not touched:

- ``repeat``: ``kkt.duality_loss`` runs twice per call and the first
  result is dropped.  More work of the program's own kind.
- ``stream``: each ``kkt.duality_loss`` call also sums a 16 MB array.
  More work that evicts the caches the calibration kernel runs in.
- ``heap``: a million small tuples and a 64 MB array stay alive during
  the run.  No more work of the program, but a larger live heap for the
  allocator and the garbage collector and a larger resident set.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import shutil
import statistics
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


@contextlib.contextmanager
def swapped(module, name, make):
    """``module.name`` replaced by ``make(original)`` in every kktgen
    module that imported it."""
    original = getattr(module, name)
    wrapper = make(original)
    owners = [m for m in list(sys.modules.values())
              if getattr(m, "__name__", "").startswith("kktgen")
              and getattr(m, name, None) is original]
    for owner in owners:
        setattr(owner, name, wrapper)
    try:
        yield
    finally:
        for owner in owners:
            setattr(owner, name, original)


def repeat(kkt):
    def make(fn):
        def twice(*args, **kwargs):
            fn(*args, **kwargs)
            return fn(*args, **kwargs)
        return twice
    return swapped(kkt, "duality_loss", make)


def stream(kkt):
    big = np.ones(2 << 20)

    def make(fn):
        def streaming(*args, **kwargs):
            big.sum()
            return fn(*args, **kwargs)
        return streaming
    return swapped(kkt, "duality_loss", make)


@contextlib.contextmanager
def heap(kkt):
    keep = ([(i, float(i)) for i in range(1_000_000)], np.ones(8 << 20))
    try:
        yield
    finally:
        del keep


CHANGES = {"repeat": repeat, "stream": stream, "heap": heap}


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    cli, config, tmp = bench.setup(args.workload)
    try:
        with open(os.path.join(tmp, "cli.log"), "w", encoding="utf-8") as log:
            r = bench.Round(cli, config, args.workload, 0,
                            os.path.join(tmp, "fidelity"), log)
            with open(r.cfg, "w", encoding="utf-8") as fh:
                fh.write(re.sub(r"^steps = \d+$", f"steps = {args.steps}",
                                bench.config_text(args.workload, r.out),
                                flags=re.M))
            r.run_stage(r.classifier_commands())
            kkt = sys.modules["kktgen.kkt"]
            print(f"{args.workload}, train-generator {args.steps} steps, "
                  f"{args.pairs} pairs; ratios changed / plain")
            print(f"{'change':8} {'wall':>8} {'scaled':>8} {'differ':>8} "
                  f"{'wall IQR':>9} {'scaled IQR':>10}")
            for name, change in CHANGES.items():
                wall, scaled = [], []
                for i in range(args.pairs):
                    times = {}
                    for changed in ((False, True) if i % 2 == 0
                                    else (True, False)):
                        with (change(kkt) if changed
                              else contextlib.nullcontext()):
                            (s,), (w,) = r.run_stage([r.generator_command()])
                        times[changed] = (w, s)
                    wall.append(times[True][0] / times[False][0])
                    scaled.append(times[True][1] / times[False][1])
                w_med, s_med = statistics.median(wall), statistics.median(
                    scaled)
                print(f"{name:8} {w_med:8.4f} {s_med:8.4f} "
                      f"{s_med / w_med - 1:+8.4f} "
                      f"{quartile_spread(wall):9.4f} "
                      f"{quartile_spread(scaled):10.4f}", flush=True)
        if r.failed:
            print(f"error: {r.failed} of {r.attempted} commands failed",
                  file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(bench.SCRATCH)


if __name__ == "__main__":
    sys.exit(main())
