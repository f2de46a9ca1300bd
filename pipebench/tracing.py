"""Spans and counts around kktgen's public functions, for the traced run.

:class:`Tracer` swaps selected module-level functions of the loaded
``kktgen`` modules for timing wrappers while it is active and puts the
originals back on exit.  A function imported by name into another module
(``from .kkt import duality_loss``) is swapped there too, so every call
site is seen.  Spans nest: a span records its total time under a key,
and some keys depend on the enclosing spans (a ``grad`` call inside the
stationarity graph is the inner gradient, one directly under
``train_generator`` is the outer one).

Times are scaled to the reference machine speed stage by stage: the
caller runs each stage under a ``speed.SpeedSampler`` and passes its
factor to :meth:`Tracer.close_stage`, which scales what was measured
during that stage.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

GEN = "training.train_generator"
STAT = "kkt.stationarity"


class Tracer:
    def __init__(self):
        self.stack = []  # keys of the open spans
        self.total = defaultdict(float)  # raw seconds
        self.scaled = defaultdict(float)  # seconds at reference speed
        self.calls = defaultdict(int)
        self.nodes = 0
        self.gd_epochs = 0
        self.bytes_written = 0
        self.gen_entry = None
        self.step_marks = []  # (time, nodes) at the end of each step
        self.step_ms = []  # scaled step intervals
        self.first_step_s = None  # scaled entry-to-end of step 0
        self._seen = {}
        self._marks_seen = 0
        self._undo = []

    # -- installation -------------------------------------------------

    def _swap(self, module, name, make):
        original = getattr(module, name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("kktgen")
                    and getattr(mod, name, None) is original):
                setattr(mod, name, wrapper)
                self._undo.append((mod, name, original))

    def _span(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                k = key() if callable(key) else key
                self.stack.append(k)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.total[k] += time.perf_counter() - t0
                    self.calls[k] += 1
                    self.stack.pop()
            return wrapper
        return make

    def __enter__(self):
        from kktgen import (autodiff, checkpoint, datasets, homogeneity,
                            kernels, kkt, models, training)

        def in_gen(prefix):
            return lambda: prefix + (".gen" if GEN in self.stack
                                     else ".other")

        def grad_key():
            if STAT in self.stack:
                return "autodiff.grad_inner"
            return "autodiff.grad_outer" if GEN in self.stack \
                else "autodiff.grad_other"

        def forward_key():
            if STAT in self.stack:
                return "models.forward_classifier"
            return in_gen("models.forward")()

        span = self._span
        self._swap(autodiff, "grad", span(grad_key))
        self._swap(models, "mlp_apply", span(forward_key))
        self._swap(models, "mlp_apply_np", span("models.mlp_apply_np"))
        self._swap(kkt, "stationarity_loss_graph", span(STAT))
        self._swap(kkt, "duality_loss", span(in_gen("kkt.duality")))
        self._swap(kkt, "second_place_mask",
                   span(in_gen("kkt.second_place_mask")))
        self._swap(kkt, "kkt_residual_oracle", span("kkt.oracle"))
        self._swap(kernels, "adam_update", span(
            lambda: "kernels.adam_refine" if "training.refine" in self.stack
            else "kernels.adam"))
        self._swap(kernels, "ssim_uniform", span("kernels.ssim"))
        self._swap(homogeneity, "estimate_profile",
                   span("homogeneity.estimate_profile"))
        self._swap(homogeneity, "verify_lambda",
                   span("homogeneity.verify_lambda"))
        self._swap(datasets, "nearest_neighbor",
                   span("datasets.nearest_neighbor"))
        self._swap(datasets, "coverage_report",
                   span("datasets.coverage_report"))
        self._swap(checkpoint, "read_sections", span("checkpoint.read"))
        self._swap(checkpoint, "write_sections", lambda fn: span(
            "checkpoint.write")(self._counting_writes(fn)))
        self._swap(training, "refine_margins", span("training.refine"))
        self._swap(training, "train_classifier", lambda fn: span(
            "training.train_classifier")(self._counting_epochs(fn)))
        self._swap(training, "train_generator",
                   lambda fn: span(GEN)(self._stepping(fn)))

        tensor_init = autodiff.Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.nodes += 1
            tensor_init(obj, *args, **kwargs)

        autodiff.Tensor.__init__ = counting_init
        self._undo.append((autodiff.Tensor, "__init__", tensor_init))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    # -- wrappers that also count -------------------------------------

    def _counting_writes(self, fn):
        def wrapper(path, sections):
            out = fn(path, sections)
            self.bytes_written += os.path.getsize(path)
            return out
        return wrapper

    def _counting_epochs(self, fn):
        def wrapper(*args, **kwargs):
            params, trajectory = fn(*args, **kwargs)
            self.gd_epochs += len(trajectory)
            return params, trajectory
        return wrapper

    def _stepping(self, fn):
        def wrapper(classifiers, gen_spec, mult_spec, config, state=None,
                    callback=None):
            def mark(st):
                self.step_marks.append((time.perf_counter(), self.nodes))
                if callback is not None:
                    callback(st)
            self.gen_entry = time.perf_counter()
            return fn(classifiers, gen_spec, mult_spec, config, state=state,
                      callback=mark)
        return wrapper

    def close_stage(self, factor):
        """Scale what was measured since the last call by ``factor``."""
        for key, value in self.total.items():
            self.scaled[key] += (value - self._seen.get(key, 0.0)) * factor
        self._seen = dict(self.total)
        times = [t for t, _ in self.step_marks[self._marks_seen:]]
        if times:
            self.step_ms.extend(np.diff(times) * 1e3 * factor)
            self.first_step_s = (times[0] - self.gen_entry) * factor
        self._marks_seen = len(self.step_marks)

    # -- per-layer metrics --------------------------------------------

    def metrics(self):
        """Per-layer figures of every stage closed so far."""
        tot, calls = self.scaled, self.calls
        steps = len(self.step_marks)
        per_step = 1e3 / max(steps, 1)
        step_ms = np.array(self.step_ms)
        p50 = float(np.percentile(step_ms, 50)) if step_ms.size else 0.0
        p99 = float(np.percentile(step_ms, 99)) if step_ms.size else 0.0
        startup = 0.0
        nodes = 0.0
        if self.first_step_s is not None:
            # step 0 is not timed apart; floor at 0 where the startup is
            # shorter than the jitter of one step
            startup = max(0.0, self.first_step_s - p50 / 1e3)
        if steps > 1:
            nodes = ((self.step_marks[-1][1] - self.step_marks[0][1])
                     / (steps - 1))
        return {
            "training.gd_s": (tot["training.train_classifier"]
                              - tot["training.refine"], "s"),
            "training.gd_epochs": (self.gd_epochs, "count"),
            "training.refine_s": (tot["training.refine"], "s"),
            "training.refine_iters": (calls["kernels.adam_refine"], "count"),
            "training.gen_startup_s": (startup, "s"),
            "training.gen_step_ms_p50": (p50, "ms"),
            "training.gen_step_ms_p99": (p99, "ms"),
            "training.gen_steps": (steps, "count"),
            "autodiff.nodes_per_step": (nodes, "count"),
            "autodiff.grad_inner_ms_per_step": (
                tot["autodiff.grad_inner"] * per_step, "ms"),
            "autodiff.grad_outer_ms_per_step": (
                tot["autodiff.grad_outer"] * per_step, "ms"),
            "kkt.stationarity_ms_per_step": (
                (tot[STAT] - tot["autodiff.grad_inner"]) * per_step, "ms"),
            "kkt.duality_ms_per_step": (
                (tot["kkt.duality.gen"] - tot["kkt.second_place_mask.gen"])
                * per_step, "ms"),
            "kkt.second_place_mask_ms_per_step": (
                tot["kkt.second_place_mask.gen"] * per_step, "ms"),
            "kkt.oracle_s": (tot["kkt.oracle"], "s"),
            "models.forward_ms_per_step": (
                tot["models.forward.gen"] * per_step, "ms"),
            "models.mlp_apply_np_calls": (calls["models.mlp_apply_np"],
                                          "count"),
            "kernels.adam_calls": (calls["kernels.adam"]
                                   + calls["kernels.adam_refine"], "count"),
            "kernels.adam_s": (tot["kernels.adam"]
                               + tot["kernels.adam_refine"], "s"),
            "kernels.ssim_calls": (calls["kernels.ssim"], "count"),
            "kernels.ssim_s": (tot["kernels.ssim"], "s"),
            "homogeneity.estimate_profile_s": (
                tot["homogeneity.estimate_profile"], "s"),
            "homogeneity.verify_lambda_s": (tot["homogeneity.verify_lambda"],
                                            "s"),
            "datasets.nearest_neighbor_s": (tot["datasets.nearest_neighbor"],
                                            "s"),
            "datasets.coverage_report_s": (tot["datasets.coverage_report"],
                                           "s"),
            "checkpoint.write_s": (tot["checkpoint.write"], "s"),
            "checkpoint.read_s": (tot["checkpoint.read"], "s"),
            "checkpoint.bytes_written": (self.bytes_written, "bytes"),
        }
