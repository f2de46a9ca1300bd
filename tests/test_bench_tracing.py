"""The benchmark's traced mode swaps kktgen functions by name and back.

``pipebench/tracing.py`` looks its targets up with ``getattr``, so a name
it swaps that kktgen no longer defines would break ``pipebench/run.py
--trace 1``.  Entering and leaving a ``Tracer`` here catches that, and
checks that every kktgen module gets its own functions back.
"""

import os
import sys

import pytest

from kktgen import (autodiff, checkpoint, cli, config, datasets,
                    homogeneity, kernels, kkt, models, training)

PIPEBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pipebench")

SWAPPED = [
    (models, "mlp_apply"), (models, "mlp_apply_np"),
    (kkt, "stationarity_loss_graph"), (kkt, "duality_loss"),
    (kkt, "second_place_mask"), (kkt, "kkt_residual_oracle"),
    (kernels, "adam_update"), (kernels, "ssim_uniform"),
    (training, "refine_margins"), (training, "train_classifier"),
    (training, "train_generator"),
    (homogeneity, "estimate_profile"), (homogeneity, "verify_lambda"),
    (datasets, "nearest_neighbor"), (datasets, "coverage_report"),
    (checkpoint, "read_sections"), (checkpoint, "write_sections"),
]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PIPEBENCH)
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_swaps_and_restores_kktgen_functions(tracing):
    modules = [autodiff, checkpoint, cli, config, datasets, homogeneity,
               kernels, kkt, models, training]
    before = [dict(vars(m)) for m in modules]
    tensor_init = autodiff.Tensor.__init__
    tracer = tracing.Tracer()
    try:
        # not a with-block: a failing __enter__ must still be undone
        tracer.__enter__()
        for module, name in SWAPPED:
            assert getattr(module, name) is not before[
                modules.index(module)][name], f"{module.__name__}.{name}"
        assert autodiff.Tensor.__init__ is not tensor_init
    finally:
        tracer.__exit__(None, None, None)
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys(), module.__name__
        changed = [k for k, v in saved.items() if now[k] is not v]
        assert not changed, f"{module.__name__}: {changed}"
    assert autodiff.Tensor.__init__ is tensor_init


@pytest.mark.parametrize("iters", [1, 3])
def test_tracer_counts_refinement_iterations_and_gd_epochs(tracing, iters):
    """Refinement runs 13 Adam stages (8 temperatures, 5 polish rates) of
    ``refine_iters`` steps each; every step is one ``kernels.adam_update``
    call, which is what ``training.refine_iters`` counts."""
    config = training.ClassifierTrainConfig(refine_iters=iters)
    stages = len(training.REFINE_TEMPERATURES) + len(training.REFINE_FINAL_LRS)
    assert stages == 13
    with tracing.Tracer() as tracer:
        _, trajectory = training.train_classifier(
            datasets.circle_dataset(), models.MlpSpec((2, 8, 3), False),
            config)
        tracer.close_stage(1.0)
    metrics = tracer.metrics()
    assert metrics["training.refine_iters"] == (stages * iters, "count")
    assert metrics["kernels.adam_calls"] == (stages * iters, "count")
    assert metrics["training.gd_epochs"] == (len(trajectory), "count")
