"""Command-line surface: train, estimate, sample, evaluate, plot.

Exit codes: 0 success, 2 usage/config error, 3 verification failure,
4 numeric failure.  Every command is batch-oriented and idempotent for a
fixed config, seed and output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import training as tr
from .config import ConfigError, RunConfig
from .datasets import LabeledDataset, coverage_report, nearest_neighbor
from .homogeneity import default_probe_samples, estimate_profile, \
    verify_lambda
from .kkt import kkt_residual_oracle, margins_np
from .svgplot import svg_image_grid, svg_scatter

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

VERIFY_ALPHAS = (-1.0, -0.5, 0.1, 0.5, 1.0)
VERIFY_DEVIATION_LIMIT = 1e-5


class _Fail(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load_config(path):
    if not os.path.exists(path):
        raise _Fail(EXIT_USAGE, f"config file not found: {path}")
    try:
        return RunConfig.from_file(path)
    except ConfigError as exc:
        raise _Fail(EXIT_USAGE, f"bad config: {exc}")


def _run_dir(config):
    out = os.path.join(config.get("experiment", "output_dir"),
                       config.get("experiment", "name"))
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _samples_csv(path, x, y, t):
    dim = x.shape[1] if len(x) else 0
    header = [f"x{i}" for i in range(dim)] + ["y", "t"]
    rows = [[float(v) for v in xi] + [int(yi), int(ti)]
            for xi, yi, ti in zip(x, y, t)]
    _write_csv(path, header, rows)


def _read_samples_csv(path):
    if not os.path.exists(path):
        raise _Fail(EXIT_USAGE, f"samples file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise _Fail(EXIT_USAGE, f"{path}: empty samples file (no header)")
    header = lines[0].split(",")
    if len(header) < 3 or header[-2] != "y" or header[-1] != "t":
        raise _Fail(EXIT_USAGE, f"{path}: expected columns x...,y,t")
    xs, ys, ts = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        xs.append([float(v) for v in parts[:-2]])
        ys.append(int(parts[-2]))
        ts.append(int(parts[-1]))
    dim = len(header) - 2
    x = np.array(xs, dtype=np.float64).reshape(len(xs), dim)
    return x, np.array(ys, dtype=int), np.array(ts, dtype=int)


def _load_classifier(path):
    if not os.path.exists(path):
        raise _Fail(EXIT_USAGE, f"checkpoint not found: {path}")
    try:
        return ckpt.load_classifier(path)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc))


# ---------------------------------------------------------------------------
# commands


def cmd_train_classifier(args):
    config = _load_config(args.config)
    out = _run_dir(config)
    datasets = config.dataset()
    spec = config.classifier_spec()
    for i, ds in enumerate(datasets):
        tag = f"_{i + 1}" if len(datasets) > 1 else ""
        train_cfg = config.classifier_train_config()
        try:
            params, trajectory = tr.train_classifier(ds, spec, train_cfg)
        except tr.ConvergenceError as exc:
            _write_csv(os.path.join(out, f"classifier{tag}_loss.csv"),
                       ["epoch", "cross_entropy"],
                       list(enumerate(exc.trajectory)))
            raise _Fail(EXIT_NUMERIC, f"classifier{tag}: {exc}")
        ckpt.save_classifier(
            os.path.join(out, f"classifier{tag}.ckpt"), spec, params,
            config_hash=config.hash(),
            extra={"dataset": ds.name, "final_loss": trajectory[-1]})
        _write_csv(os.path.join(out, f"classifier{tag}_loss.csv"),
                   ["epoch", "cross_entropy"], list(enumerate(trajectory)))
        print(f"classifier{tag}: {len(trajectory)} GD epochs, "
              f"final loss {trajectory[-1]:.6g} -> "
              f"{os.path.join(out, f'classifier{tag}.ckpt')}")
    return EXIT_OK


def cmd_estimate_lambda(args):
    spec, params, _, _ = _load_classifier(args.checkpoint)
    profile, _ = estimate_profile(spec, params, k=args.probes,
                                  max_order=args.max_order,
                                  seed=args.seed)
    ckpt.attach_profile(args.checkpoint, profile)
    samples = default_probe_samples(spec, args.probes, seed=args.seed)
    rows = []
    worst = 0.0
    from .homogeneity import scale_params
    from .models import mlp_apply_np
    base = mlp_apply_np(spec, params, samples)
    for alpha in VERIFY_ALPHAS:
        scaled = scale_params(params, profile, alpha)
        got = mlp_apply_np(spec, scaled, samples)
        want = np.exp(alpha) * base
        denom = np.maximum(np.abs(want).max(axis=1), 1e-12)
        dev = np.abs(got - want).max(axis=1) / denom
        worst = max(worst, float(dev.max()))
        rows.extend([[float(alpha), i, float(d)]
                     for i, d in enumerate(dev)])
    csv_path = args.out or (os.path.splitext(args.checkpoint)[0]
                            + "_lambda_verify.csv")
    _write_csv(csv_path, ["alpha", "input_id", "relative_deviation"], rows)
    print(f"lambda profile attached (solver residual "
          f"{profile.residual:.3g}); "
          f"max scaling deviation {worst:.3g} -> {csv_path}")
    if worst > VERIFY_DEVIATION_LIMIT:
        print(f"WARNING: deviation exceeds {VERIFY_DEVIATION_LIMIT}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_train_generator(args):
    config = _load_config(args.config)
    out = _run_dir(config)
    datasets = config.dataset()
    bundles = []
    for i, path in enumerate(args.checkpoints):
        spec, params, profile, _ = _load_classifier(path)
        if profile is None:
            raise _Fail(EXIT_USAGE,
                        f"{path}: no scaling profile; run "
                        f"'kktgen estimate-lambda {path}' first")
        ds = datasets[i] if i < len(datasets) else datasets[0]
        bundles.append(tr.ClassifierBundle(spec, params, profile, ds.size))
    t_count = len(bundles)
    num_classes = bundles[0].spec.widths[-1]
    out_dim = bundles[0].spec.widths[0]
    gen_spec = config.generator_spec(num_classes, out_dim,
                                     t_count if t_count > 1 else 1)
    mult_spec = config.multiplier_spec(num_classes, out_dim,
                                       t_count if t_count > 1 else 1)
    gen_cfg = config.generator_train_config(seed=args.seed)
    gen_path = os.path.join(out, args.name + ".ckpt")
    state = None
    if args.resume and os.path.exists(gen_path):
        _, _, state, _ = ckpt.load_generator(gen_path, gen_cfg)
    try:
        state = tr.train_generator(bundles, gen_spec, mult_spec, gen_cfg,
                                   state=state)
    except tr.TrainingAborted as exc:
        raise _Fail(EXIT_NUMERIC, str(exc))
    ckpt.save_generator(gen_path, gen_spec, mult_spec, state,
                        config_hash=config.hash())
    header = ["step", "t", "l_stat", "l_dual", "tv", "total"] + \
        [f"alpha_{t}" for t in range(t_count)]
    _write_csv(os.path.join(out, args.name + "_loss.csv"), header,
               [[row[k] for k in header] for row in state.history])
    print(f"generator: {state.step} steps -> {gen_path}")
    return EXIT_OK


def _t_table(t_count, num_classes):
    return {y: list(range(t_count)) for y in range(num_classes)}


def cmd_sample(args):
    gen_spec, _, state, _ = ckpt.load_generator(args.checkpoint)
    xs, ys, ts = [], [], []
    for y in range(gen_spec.num_classes):
        x, t_idx = tr.sample(
            gen_spec, state.gen_params, y, args.per_class,
            t=args.t, seed=args.seed,
            t_table=_t_table(gen_spec.num_classifiers,
                             gen_spec.num_classes))
        xs.append(x)
        ys.extend([y] * args.per_class)
        ts.append(t_idx)
    x = np.vstack(xs) if xs else np.zeros((0, gen_spec.out_dim))
    _samples_csv(args.out, x, np.array(ys), np.concatenate(ts))
    print(f"wrote {len(x)} samples -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args):
    config = _load_config(args.config)
    datasets = config.dataset()
    dataset = datasets[0] if len(datasets) == 1 else LabeledDataset(
        np.vstack([d.x for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        name="combined", num_classes=datasets[0].num_classes)
    x, y, _ = _read_samples_csv(args.samples)
    spec = params = profile = None
    if args.classifier:
        spec, params, profile, _ = _load_classifier(args.classifier)
    report = coverage_report(x, y, dataset, spec, params)
    out = args.out or (os.path.splitext(args.samples)[0] + "_report.csv")
    rows = [["mean_nn_distance", float(report.mean_nn_distance)],
            ["label_agreement", float(report.label_agreement)]]
    rows += [[f"point{i}_min_distance", float(d)]
             for i, d in enumerate(report.per_point_min_distance)]
    if spec is not None and profile is not None and len(x):
        margins = margins_np(spec, params, dataset.x, dataset.labels)
        rival = np.ones_like(margins, dtype=bool)
        rival[np.arange(dataset.size), dataset.labels] = False
        q = float(np.where(rival, margins, np.inf).min())
        if not q > 0.0:
            raise _Fail(EXIT_VERIFY,
                        f"{args.classifier} does not separate the "
                        f"evaluation data (minimum margin {q:.6g}); the "
                        f"KKT residual needs a separating classifier")
        residual, _ = kkt_residual_oracle(spec, params, profile,
                                          dataset.x, dataset.labels,
                                          float(-np.log(q)))
        rows.append(["kkt_stationarity_residual", float(residual)])
    _write_csv(out, ["metric", "value"], rows)
    print(f"mean nn distance {report.mean_nn_distance:.4f}, worst "
          f"per-point {report.per_point_min_distance.max():.4f}, "
          f"label agreement {report.label_agreement:.4f} -> {out}")
    return EXIT_OK


def cmd_plot(args):
    config = _load_config(args.config)
    datasets = config.dataset()
    dataset = datasets[0]
    x, y, _ = _read_samples_csv(args.samples)
    if args.mode == "scatter":
        if dataset.dim != 2 or (len(x) and x.shape[1] != 2):
            raise _Fail(EXIT_USAGE,
                        "scatter plots need 2-d data; use --mode grid")
        svg = svg_scatter(dataset.x, dataset.labels, x, y,
                          title=args.title)
    else:
        if not len(x):
            svg = svg_image_grid(np.zeros((0, dataset.dim)),
                                 side=int(round(np.sqrt(dataset.dim))),
                                 title=args.title)
        else:
            nn = nearest_neighbor(x, dataset, metric="ssim")
            neighbors = dataset.x[[i for i, _ in nn]]
            svg = svg_image_grid(x, neighbors, title=args.title)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_selftest(args):
    """Fast internal consistency checks (autodiff, scaling, duality)."""
    from . import autodiff as ad
    from .kkt import duality_loss
    from .models import MlpSpec, init_kaiming

    failures = []

    # double-backprop against the graph's own numeric forward
    spec = MlpSpec((2, 10, 1))
    params = init_kaiming(spec, 0)
    profile, _ = estimate_profile(spec, params, k=16, max_order=2)
    dev = verify_lambda(spec, params, profile, list(VERIFY_ALPHAS),
                        default_probe_samples(spec, 16, seed=1))
    if dev > VERIFY_DEVIATION_LIMIT:
        failures.append(f"lambda estimation deviation {dev:.3g}")

    # duality loss pointwise values (U-shape contract)
    logits = ad.constant(np.array([[0.0, 0.0]]))
    for margin, want in ((np.exp(0.0) - 0.1, 0.1),
                         (np.exp(0.0) + 0.05, 0.0),
                         (np.exp(0.0) + 0.1 + 0.2, 0.2)):
        lg = ad.constant(np.array([[margin, 0.0]]))
        val = float(duality_loss(lg, np.array([0]), 0.0, 0.1).value)
        if abs(val - want) > 1e-12:
            failures.append(f"duality loss at margin {margin}: "
                            f"{val} != {want}")

    # adam kernel vs reference formula
    from .kernels import adam_update
    vals = np.array([1.0, -2.0])
    grads = np.array([0.5, 0.25])
    m = np.zeros(2)
    v = np.zeros(2)
    adam_update(vals, grads, m, v, 1, 0.1)
    ref = np.array([1.0, -2.0]) - 0.1 * grads / (np.abs(grads) + 1e-8)
    if not np.allclose(vals, ref, atol=1e-9):
        failures.append("adam kernel mismatch")

    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return EXIT_VERIFY
    print("selftest ok")
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
    p.add_argument("--probes", type=int, default=32)
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_estimate_lambda)

    p = sub.add_parser("train-generator",
                       help="train the generator against classifiers")
    p.add_argument("config")
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, tr.ConvergenceError,
            tr.TrainingAborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
