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
