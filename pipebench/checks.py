"""Checks of one pipeline round's outputs against the numpy yardstick.

Each check is one operation of the benchmark: it returns normally when
the outputs are right and raises :class:`CheckFailed` (or any other
exception) when they are not.  The checks read the files the CLI wrote
and recompute them with ``reference``; kktgen is used only to load
checkpoints and datasets, and to build the loss graphs whose values and
gradients are under test.
"""

from __future__ import annotations

import math
import sys
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

RESCALE_ALPHAS = (-1.0, -0.5, 0.5, 1.0)
RESCALE_TOL = 1e-5
DEGREE_TOL = 1e-6
CONTROL_RATIO = 0.3
CONTROL_SEEDS = range(5)
ORACLE_RTOL = 1e-4
LOSS_RTOL = 1e-9
FD_STEPS = (1e-6, 1e-7)
FD_DIRECTIONS = 3
FD_RTOL = 1e-4
REPORT_RTOL = 1e-9
CHECK_BATCH = 64


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path):
    """Header and float rows of a CSV written by the CLI."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def layers_of(spec, params):
    """kktgen (spec, ParameterVector) as reference (W, b) pairs."""
    mlp = spec if hasattr(spec, "widths") else spec.mlp()
    out = []
    for k in range(mlp.n_layers):
        w = params.group(f"layer{k}.weight").reshape(mlp.widths[k],
                                                     mlp.widths[k + 1])
        b = params.group(f"layer{k}.bias") if mlp.bias[k] else None
        out.append((w.copy(), None if b is None else b.copy()))
    return out


def lambdas_of(spec, profile):
    """Profile exponents in parameter-vector group order."""
    mlp = spec if hasattr(spec, "widths") else spec.mlp()
    return np.array([profile.lambdas[n] for n, _ in mlp.group_shapes()])


def min_margin(layers, x, labels):
    logits, _ = ref.forward(layers, x)
    return float(ref.margins(logits, labels).min())


class RoundChecks:
    """The checks of one round; ``names()`` lists them in a fixed order."""

    def __init__(self, workload, files, datasets, steps, seed):
        from kktgen import checkpoint

        self.w = workload
        self.files = files
        self.datasets = datasets
        self.steps = steps
        self.rng = np.random.default_rng([seed, 7])
        self._checkpoint = checkpoint
        self._classifiers = None
        self._generator = None

    # -- loaded outputs -----------------------------------------------

    def classifiers(self):
        if self._classifiers is None:
            loaded = []
            for path in self.files["classifiers"]:
                spec, params, profile, _ = \
                    self._checkpoint.load_classifier(path)
                loaded.append((spec, params, profile))
            self._classifiers = loaded
        return self._classifiers

    def generator(self):
        if self._generator is None:
            self._generator = self._checkpoint.load_generator(
                self.files["generator"])[:3]
        return self._generator

    def names(self):
        out = []
        n = len(self.datasets)
        for k in range(n):
            out += [f"classify_{k}", f"ce_threshold_{k}",
                    f"profile_degree_{k}", f"rescale_{k}"]
            if self.w.kkt_controls:
                out.append(f"kkt_controls_{k}")
        if self.w.oracle:
            out.append("oracle_agrees")
        out.append("generator_history")
        for t in range(n):
            out += [f"loss_values_{t}", f"loss_gradients_{t}"]
        if self.w.label_rate_min:
            out += [f"label_rate_{t}" for t in range(n)]
        out += ["evaluate_report", "plot_svg"]
        return out

    def run(self, name):
        base, _, index = name.rpartition("_")
        if index.isdigit():
            return getattr(self, "check_" + base)(int(index))
        return getattr(self, "check_" + name)()

    # -- classifier stage ---------------------------------------------

    def check_classify(self, k):
        spec, params, _ = self.classifiers()[k]
        ds = self.datasets[k]
        logits, _ = ref.forward(layers_of(spec, params), ds.x)
        wrong = int(np.sum(np.argmax(logits, axis=1) != ds.labels))
        require(wrong == 0, f"{wrong} of {ds.size} training points "
                            "misclassified")

    def check_ce_threshold(self, k):
        _, rows = read_csv(self.files["classifier_losses"][k])
        last = rows[-1, 1]
        limit = math.log(2.0) / self.datasets[k].size
        require(last < limit, f"last cross-entropy {last} >= {limit}")

    def check_profile_degree(self, k):
        spec, _, profile = self.classifiers()[k]
        total = float(lambdas_of(spec, profile).sum())
        require(abs(total - 1.0) <= DEGREE_TOL,
                f"profile exponents sum to {total!r}, not 1")

    def check_rescale(self, k):
        spec, params, profile = self.classifiers()[k]
        layers = layers_of(spec, params)
        lam = lambdas_of(spec, profile)
        probes = np.vstack([self.datasets[k].x,
                            self.rng.standard_normal((16, spec.widths[0]))])
        base, _ = ref.forward(layers, probes)
        flat = ref.flatten(layers)
        for alpha in RESCALE_ALPHAS:
            scaled = ref.unflatten(
                layers, flat * np.exp(alpha * ref.group_weights(layers,
                                                                 lam)))
            got, _ = ref.forward(scaled, probes)
            want = math.exp(alpha) * base
            dev = (np.abs(got - want).max(axis=1)
                   / np.maximum(np.abs(want).max(axis=1), 1e-12)).max()
            require(dev <= RESCALE_TOL,
                    f"alpha {alpha}: relative deviation {dev:.3g}")

    def _own_residual(self, k, labels=None):
        spec, params, profile = self.classifiers()[k]
        ds = self.datasets[k]
        layers = layers_of(spec, params)
        alpha = -math.log(min_margin(layers, ds.x, ds.labels))
        return ref.nnls_residual(layers, lambdas_of(spec, profile), ds.x,
                                 ds.labels if labels is None else labels,
                                 alpha)

    def check_kkt_controls(self, k):
        labels = self.datasets[k].labels
        own = self._own_residual(k)
        controls = [self._own_residual(
            k, np.random.default_rng(s).permutation(labels))
            for s in CONTROL_SEEDS]
        limit = CONTROL_RATIO * float(np.median(controls))
        require(own <= limit, f"KKT residual {own:.4g} > {CONTROL_RATIO} x "
                              f"control median ({limit:.4g})")

    def check_oracle_agrees(self):
        report = self._report()
        got = report["kkt_stationarity_residual"]
        own = self._own_residual(0)
        require(abs(got - own) <= ORACLE_RTOL * own + 1e-9,
                f"evaluate reports residual {got!r}, own NNLS {own!r}")

    # -- generator stage ----------------------------------------------

    def check_generator_history(self):
        header, rows = read_csv(self.files["generator_losses"])
        require(rows.shape[0] == self.steps,
                f"{rows.shape[0]} loss rows for {self.steps} steps")
        require(np.array_equal(rows[:, 0], np.arange(self.steps)),
                "loss rows are not steps 0..steps-1")
        require(np.all(np.isfinite(rows)), "non-finite loss row")
        total = rows[:, header.index("total")]
        tenth = max(1, self.steps // 10)
        first, last = total[:tenth].mean(), total[-tenth:].mean()
        require(last < first, f"mean total loss rose from {first:.4g} over "
                              f"the first tenth to {last:.4g}")

    def _batch(self, t):
        gen_spec, _, state = self.generator()
        labels = self.rng.integers(0, gen_spec.num_classes, CHECK_BATCH)
        eps = self.rng.standard_normal((CHECK_BATCH, gen_spec.noise_dim))
        cond = [ref.one_hot(labels, gen_spec.num_classes)]
        if gen_spec.num_classifiers > 1:
            cond.append(ref.one_hot(np.full(CHECK_BATCH, t),
                                    gen_spec.num_classifiers))
        return labels, eps, np.hstack(cond)

    def _numpy_losses(self, t, theta, labels, eps, cond):
        gen_spec, mult_spec, state = self.generator()
        spec, params, profile = self.classifiers()[t]
        gen = ref.unflatten(layers_of(gen_spec, state.gen_params), theta)
        x, _ = ref.forward(gen, np.hstack([eps, cond]))
        mu, _ = ref.forward(layers_of(mult_spec, state.mult_params),
                            np.hstack([x, cond]))
        cls = layers_of(spec, params)
        alpha = float(state.alphas[t])
        l_stat = ref.stationarity(cls, lambdas_of(spec, profile), alpha,
                                  self.datasets[t].size, x, labels,
                                  np.maximum(mu, 0.0))
        logits, _ = ref.forward(cls, x)
        l_dual = ref.duality(logits, labels, alpha, float(state.deltas[t]))
        return l_stat, l_dual

    def _graph_losses(self, t, labels, eps, cond):
        from kktgen import autodiff as ad
        from kktgen import homogeneity, kkt, models

        gen_spec, mult_spec, state = self.generator()
        spec, params, profile = self.classifiers()[t]
        gen_leaves = models.make_leaves(gen_spec, state.gen_params)
        mult_leaves = models.make_leaves(mult_spec, state.mult_params)
        x = models.mlp_apply(gen_spec.mlp(), gen_leaves,
                             ad.constant(np.hstack([eps, cond])))
        mu = ad.relu(models.mlp_apply(
            mult_spec.mlp(), mult_leaves,
            ad.concat([x, ad.constant(cond)], axis=1)))
        alpha = float(state.alphas[t])
        l_stat, logits = kkt.stationarity_loss_graph(
            spec, models.make_leaves(spec, params),
            homogeneity.lambda_bar(profile, alpha), self.datasets[t].size,
            x, labels, mu)
        l_dual = kkt.duality_loss(logits, labels, alpha,
                                  float(state.deltas[t]))
        names = [n for n, _ in gen_spec.mlp().group_shapes()]
        wrt = [gen_leaves[n] for n in names]
        grads = [np.concatenate([g.value.reshape(-1) for g in
                                 ad.grad(loss, wrt, allow_unused=True)])
                 for loss in (l_stat, l_dual)]
        return (float(l_stat.value), float(l_dual.value)), grads

    def check_loss_values(self, t):
        _, _, state = self.generator()
        batch = self._batch(t)
        graph, _ = self._graph_losses(t, *batch)
        own = self._numpy_losses(t, state.gen_params.values, *batch)
        for name, g, o in zip(("stationarity", "duality"), graph, own):
            require(abs(g - o) <= LOSS_RTOL * max(abs(o), 1e-12),
                    f"{name} loss {g!r} != numpy {o!r}")

    def check_loss_gradients(self, t):
        _, _, state = self.generator()
        batch = self._batch(t)
        values, grads = self._graph_losses(t, *batch)
        theta = state.gen_params.values
        for _ in range(FD_DIRECTIONS):
            v = self.rng.standard_normal(theta.size)
            v /= np.linalg.norm(v)
            for j, name in enumerate(("stationarity", "duality")):
                analytic = float(grads[j] @ v)
                tol = FD_RTOL * np.linalg.norm(grads[j]) \
                    + 1e-7 * (1.0 + abs(values[j]))
                errors = []
                for h in FD_STEPS:
                    hi = self._numpy_losses(t, theta + h * v, *batch)[j]
                    lo = self._numpy_losses(t, theta - h * v, *batch)[j]
                    errors.append(abs((hi - lo) / (2 * h) - analytic))
                require(min(errors) <= tol,
                        f"{name} directional derivative {analytic!r} "
                        f"differs from central differences by "
                        f"{min(errors):.3g} (tolerance {tol:.3g})")

    # -- post-training stage ------------------------------------------

    def _samples(self):
        header, rows = read_csv(self.files["samples"])
        require(header[-2:] == ["y", "t"], "samples.csv lacks y,t columns")
        return rows[:, :-2], rows[:, -2].astype(int), rows[:, -1].astype(int)

    def _report(self):
        with open(self.files["report"], encoding="utf-8") as fh:
            lines = [ln.strip().split(",") for ln in fh if ln.strip()]
        return {k: float(v) for k, v in lines[1:]}

    def check_label_rate(self, t):
        x, y, ts = self._samples()
        spec, params, _ = self.classifiers()[t]
        pick = ts == t
        logits, _ = ref.forward(layers_of(spec, params), x[pick])
        rate = float(np.mean(np.argmax(logits, axis=1) == y[pick]))
        print(f"note: label_rate_{t} {rate:.4f}", file=sys.stderr)
        require(rate >= self.w.label_rate_min,
                f"classifier {t} gives {rate:.4f} of its samples their "
                f"conditioning label (< {self.w.label_rate_min})")

    def check_evaluate_report(self):
        x, y, _ = self._samples()
        n_cls = self.datasets[0].num_classes
        require(len(x) == self.w.per_class * n_cls and np.all(np.isfinite(x)),
                f"{len(x)} samples, expected {self.w.per_class * n_cls}")
        require(np.array_equal(y, np.repeat(np.arange(n_cls),
                                            self.w.per_class)),
                "sample labels are not per_class of each class in order")
        data_x = np.vstack([d.x for d in self.datasets])
        data_y = np.concatenate([d.labels for d in self.datasets])
        predicted = None
        if self.w.oracle:
            spec, params, _ = self.classifiers()[0]
            logits, _ = ref.forward(layers_of(spec, params), x)
            predicted = np.argmax(logits, axis=1)
        mean_nn, per_point, agree = ref.coverage(x, y, data_x, data_y,
                                                 predicted)
        report = self._report()
        want = {"mean_nn_distance": mean_nn, "label_agreement": agree}
        want.update({f"point{i}_min_distance": d
                     for i, d in enumerate(per_point)})
        for key, value in want.items():
            got = report.get(key)
            require(got is not None and abs(got - value)
                    <= REPORT_RTOL * max(abs(value), 1e-12),
                    f"evaluate reports {key} = {got!r}, recomputed "
                    f"{value!r}")

    def check_plot_svg(self):
        root = ET.parse(self.files["plot"]).getroot()
        require(root.tag.endswith("svg"), f"plot root is <{root.tag}>")
