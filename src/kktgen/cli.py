"""Command-line surface: train, estimate, sample, evaluate, plot.

Exit codes: 0 success, 2 usage/config error, 3 verification failure,
4 numeric failure; ``main`` maps each failure to its code by the type of
the exception (``EXIT_CODES``).  Every command is batch-oriented and
idempotent for a fixed config, seed and output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import sys

# one BLAS thread unless the user sets a count: in about 1 of 8 fresh
# processes every multi-threaded OpenBLAS call is slow (a QR of 0.10 ms
# took 48 ms).  The pool is sized when numpy loads, so this comes first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import checkpoint as ckpt
from . import training as tr
from .config import RunConfig
from .datasets import (CsvError, LabeledDataset, coverage_report,
                       format_rows, integer_column, nearest_neighbor,
                       read_csv, reject_rows)
from .homogeneity import (VERIFY_ALPHAS, VERIFY_DEVIATION_LIMIT,
                          VerificationError, estimate_profile,
                          scaling_deviations)
from .kernels import NnlsIterationLimit
from .kkt import kkt_residual_oracle, margins_np
from .svgplot import svg_image_grid, svg_scatter

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

# the exit code of a failed command: that of the first type its exception
# is an instance of (VerificationError and LinAlgError are ValueErrors).
# Any other exception is a fault of the program and keeps its traceback.
EXIT_CODES = {VerificationError: EXIT_VERIFY,
              NnlsIterationLimit: EXIT_NUMERIC,
              tr.ConvergenceError: EXIT_NUMERIC,
              tr.TrainingAborted: EXIT_NUMERIC,
              np.linalg.LinAlgError: EXIT_NUMERIC,
              ValueError: EXIT_USAGE,
              OSError: EXIT_USAGE}


def _require(ok, message):
    """A command-line value outside its range is a usage error."""
    if not ok:
        raise ValueError(message)


def _existing(path, what="checkpoint"):
    """``path``; a missing file is a usage error naming what it holds."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _load_config(path):
    return RunConfig.from_file(_existing(path, "config file"))


def _run_dir(config):
    out = os.path.join(config.get("experiment", "output_dir"),
                       config.get("experiment", "name"))
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, header, columns):
    """Equal-length columns under one header line.  Each row is one
    ``%`` template: ``%.17g`` for a float column, ``%s`` for any other."""
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%.17g" if c.dtype.kind == "f" else "%s"
                        for c in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lines in format_rows(template, columns):
            fh.write("".join(lines))


def _read_samples_csv(path, dataset):
    """Coordinates and labels of a samples CSV (``x0..x{d-1},y,t``).

    A file that is not one, or whose samples ``dataset`` cannot be
    compared with, is a :class:`CsvError` naming the file and the row.
    """
    header, rows = read_csv(_existing(path, "samples file"))
    if len(header) < 3 or header[-2:] != ["y", "t"]:
        raise CsvError(path, "expected columns x...,y,t")
    if len(header) - 2 != dataset.dim:
        raise CsvError(path, f"has {len(header) - 2} coordinates, the "
                       f"dataset {dataset.dim}")
    x = np.ascontiguousarray(rows[:, :-2])
    reject_rows(path, ~np.isfinite(x).all(axis=1),
                "has a coordinate that is not finite")
    y = integer_column(path, rows[:, -2], "y")
    integer_column(path, rows[:, -1], "t")
    reject_rows(path, (y < 0) | (y >= dataset.num_classes),
                f"y is not a class of the dataset "
                f"(0 to {dataset.num_classes - 1})")
    return x, y


def _evaluation_dataset(config):
    """The data ``evaluate`` and ``plot`` compare samples with: the
    config's dataset, the shards of a split config combined."""
    datasets = config.dataset()
    return datasets[0] if len(datasets) == 1 else LabeledDataset(
        np.vstack([d.x for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        name="combined", num_classes=datasets[0].num_classes)


def _generator_run_hash(config, seed, bundles):
    """Hash of a generator run: its config, with the seed it runs with
    and without ``generator_training.steps``, and what it reads of each
    classifier (spec, parameters, profile, training-set size).  A run
    resumed from its checkpoint may extend its step count, no more."""
    digest = hashlib.sha256(config.replaced(
        "generator_training", seed=seed, steps=None).hash().encode())
    for b in bundles:  # the reprs of dataclasses of exact floats
        digest.update(repr((b.spec, b.profile, b.virtual_n)).encode()
                      + b.params.values.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# commands


def cmd_train_classifier(args):
    config = _load_config(args.config)
    datasets = config.dataset()
    out = _run_dir(config)
    spec = config.classifier_spec()

    def write_loss(tag, trajectory):
        _write_csv(os.path.join(out, f"classifier{tag}_loss.csv"),
                   ["epoch", "cross_entropy"],
                   [np.arange(len(trajectory)), trajectory])

    results = tr.train_classifiers(datasets, spec,
                                   config.classifier_train_config())
    with contextlib.closing(results):
        for i, ds in enumerate(datasets):
            tag = f"_{i + 1}" if len(datasets) > 1 else ""
            try:
                params, trajectory = next(results)
            except tr.ConvergenceError as exc:
                write_loss(tag, exc.trajectory)
                raise tr.ConvergenceError(f"classifier{tag}: {exc}",
                                          exc.trajectory)
            except ChildProcessError as exc:
                raise ChildProcessError(f"classifier{tag}: {exc}")
            ckpt.save_classifier(
                os.path.join(out, f"classifier{tag}.ckpt"), spec, params,
                config_hash=config.hash(),
                extra={"dataset": ds.name, "dataset_size": ds.size,
                       "final_loss": trajectory[-1]})
            write_loss(tag, trajectory)
            print(f"classifier{tag}: {len(trajectory)} GD epochs, "
                  f"final loss {trajectory[-1]:.6g} -> "
                  f"{os.path.join(out, f'classifier{tag}.ckpt')}")
    return EXIT_OK


def cmd_estimate_lambda(args):
    _require(args.seed >= 0, f"--seed must be nonnegative, got {args.seed}")
    spec, params, _, _ = ckpt.load_classifier(_existing(args.checkpoint))
    profile, samples = estimate_profile(spec, params, seed=args.seed)
    devs = scaling_deviations(spec, params, profile, VERIFY_ALPHAS, samples)
    worst = float(devs.max())
    csv_path = args.out or (os.path.splitext(args.checkpoint)[0]
                            + "_lambda_verify.csv")
    _write_csv(csv_path, ["alpha", "input_id", "relative_deviation"],
               [np.repeat(VERIFY_ALPHAS, devs.shape[1]),
                np.tile(np.arange(devs.shape[1]), len(VERIFY_ALPHAS)),
                devs.ravel()])
    # after the one write that can fail on the --out path
    ckpt.attach_profile(args.checkpoint, profile)
    print(f"lambda profile attached (solver residual "
          f"{profile.residual:.3g}); "
          f"max scaling deviation {worst:.3g} -> {csv_path}")
    if not worst <= VERIFY_DEVIATION_LIMIT:
        raise VerificationError(
            f"{args.checkpoint}: profile fails verification (deviation "
            f"{worst:.3g}, limit {VERIFY_DEVIATION_LIMIT})")
    return EXIT_OK


def cmd_train_generator(args):
    config = _load_config(args.config)
    out = _run_dir(config)
    bundles = []
    for path in args.checkpoints:
        spec, params, profile, meta = ckpt.load_classifier(_existing(path))
        if profile is None:
            raise ValueError(f"{path}: no scaling profile; run "
                             f"'kktgen estimate-lambda {path}' first")
        # N of the stationarity target: the size of the set it was
        # trained on, which train-classifier records and the load checks
        if "dataset_size" not in meta:
            raise ValueError(f"{path}: no training-set size in its meta; "
                             f"retrain it with 'kktgen train-classifier'")
        bundles.append(tr.ClassifierBundle(spec, params, profile,
                                           meta["dataset_size"], path))
    t_count = len(bundles)
    num_classes = bundles[0].spec.widths[-1]
    out_dim = bundles[0].spec.widths[0]
    gen_spec = config.generator_spec(num_classes, out_dim, t_count)
    mult_spec = config.multiplier_spec(num_classes, out_dim, t_count)
    gen_cfg = config.generator_train_config(seed=args.seed)
    gen_path = os.path.join(out, args.name + ".ckpt")
    run_hash = _generator_run_hash(config, gen_cfg.seed, bundles)
    state = None
    if args.resume and os.path.exists(gen_path):
        saved_gen, saved_mult, state, meta = ckpt.load_generator(gen_path,
                                                                 gen_cfg)
        if (meta.get("config_hash") != run_hash
                or (saved_gen, saved_mult) != (gen_spec, mult_spec)):
            raise ValueError(f"{gen_path} was written by a run with another "
                             f"configuration, seed or set of classifiers; "
                             f"only generator_training.steps may change on "
                             f"--resume")
    state = tr.train_generator(bundles, gen_spec, mult_spec, gen_cfg,
                               state=state)
    ckpt.save_generator(gen_path, gen_spec, mult_spec, state,
                        config_hash=run_hash)
    # step and t as floats print as the ints they are under %.17g
    _write_csv(os.path.join(out, args.name + "_loss.csv"), tr.HISTORY_KEYS,
               np.reshape(state.history, (-1, len(tr.HISTORY_KEYS))).T)
    print(f"generator: {state.step} steps -> {gen_path}")
    return EXIT_OK


def cmd_sample(args):
    _require(args.per_class >= 0,
             f"--per-class must be nonnegative, got {args.per_class}")
    _require(args.seed >= 0, f"--seed must be nonnegative, got {args.seed}")
    gen_spec, _, state, _ = ckpt.load_generator(_existing(args.checkpoint))
    t_count = gen_spec.num_classifiers
    _require(args.t is None or 0 <= args.t < t_count,
             f"--t must be a classifier index in [0, {t_count}), "
             f"got {args.t}")
    classes = range(gen_spec.num_classes)
    xs, ts = zip(*(tr.sample(gen_spec, state.gen_params, y, args.per_class,
                             t=args.t, seed=args.seed) for y in classes))
    x = np.vstack(xs)
    _write_csv(args.out, [f"x{i}" for i in range(x.shape[1])] + ["y", "t"],
               [*x.T, np.repeat(classes, args.per_class),
                np.concatenate(ts)])
    print(f"wrote {len(x)} samples -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args):
    dataset = _evaluation_dataset(_load_config(args.config))
    x, y = _read_samples_csv(args.samples, dataset)
    if not len(x):
        raise ValueError(f"{args.samples}: no samples to evaluate")
    spec = params = profile = None
    if args.classifier:
        spec, params, profile, _ = ckpt.load_classifier(
            _existing(args.classifier))
        widths = spec.widths[0], spec.widths[-1]
        if widths != (dataset.dim, dataset.num_classes):
            raise ValueError(f"{args.classifier} maps {widths[0]} inputs to "
                             f"{widths[1]} classes, the evaluation data "
                             f"have {dataset.dim} and {dataset.num_classes}")
    report = coverage_report(x, y, dataset, spec, params)
    out = args.out or (os.path.splitext(args.samples)[0] + "_report.csv")
    names = ["mean_nn_distance", "label_agreement"] + [
        f"point{i}_min_distance" for i in range(dataset.size)]
    values = [report.mean_nn_distance, report.label_agreement,
              *report.per_point_min_distance.tolist()]
    if spec is not None and profile is not None:
        margins = margins_np(spec, params, dataset.x, dataset.labels)
        rival = np.ones_like(margins, dtype=bool)
        rival[np.arange(dataset.size), dataset.labels] = False
        q = float(np.where(rival, margins, np.inf).min())
        if not q > 0.0:
            raise VerificationError(
                f"{args.classifier} does not separate the evaluation data "
                f"(minimum margin {q:.6g}); the KKT residual needs a "
                f"separating classifier")
        residual, _ = kkt_residual_oracle(spec, params, profile,
                                          dataset.x, dataset.labels,
                                          float(-np.log(q)))
        names.append("kkt_stationarity_residual")
        values.append(float(residual))
    _write_csv(out, ["metric", "value"], [names, values])
    print(f"mean nn distance {report.mean_nn_distance:.4f}, worst "
          f"per-point {report.per_point_min_distance.max():.4f}, "
          f"label agreement {report.label_agreement:.4f} -> {out}")
    return EXIT_OK


def cmd_plot(args):
    dataset = _evaluation_dataset(_load_config(args.config))
    x, y = _read_samples_csv(args.samples, dataset)
    if args.mode == "scatter":
        if dataset.dim != 2:
            raise ValueError("scatter plots need 2-d data; use --mode grid")
        svg = svg_scatter(dataset.x, dataset.labels, x, y,
                          title=args.title)
    else:
        side = math.isqrt(dataset.dim)
        if side * side != dataset.dim:
            raise ValueError("grid plots need square image data; use "
                             "--mode scatter")
        neighbors = dataset.x[nearest_neighbor(x, dataset)]
        svg = svg_image_grid(x, side, neighbors, title=args.title)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kktgen",
        description="Data-free sample generation from a pre-trained "
                    "classifier via max-margin KKT conditions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-classifier",
                       help="train classifier(s) from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("estimate-lambda",
                       help="estimate and attach the scaling profile")
    p.add_argument("checkpoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_estimate_lambda)

    p = sub.add_parser("train-generator",
                       help="train the generator against classifiers")
    p.add_argument("config")
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides [generator_training] seed")
    p.add_argument("--name", default="generator")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train_generator)

    p = sub.add_parser("sample", help="draw conditional samples to CSV")
    p.add_argument("checkpoint")
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--out", default="samples.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate",
                       help="coverage + KKT diagnostics for samples")
    p.add_argument("config")
    p.add_argument("samples")
    p.add_argument("--classifier", default="")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="emit an SVG scatter or image grid")
    p.add_argument("config")
    p.add_argument("samples")
    p.add_argument("--mode", choices=("scatter", "grid"),
                   default="scatter")
    p.add_argument("--title", default="")
    p.add_argument("--out", default="plot.svg")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
