"""Fixtures shared by the test modules."""

import pytest

import kktgen.datasets as ds


@pytest.fixture
def patterns(monkeypatch):
    """``patterns(per_class, jitter, seed)``: ``pattern_dataset()`` built
    with those values in place of the module's ``PATTERN_*`` constants."""
    def build(per_class, jitter, seed):
        monkeypatch.setattr(ds, "PATTERN_PER_CLASS", per_class)
        monkeypatch.setattr(ds, "PATTERN_JITTER", jitter)
        monkeypatch.setattr(ds, "PATTERN_SEED", seed)
        return ds.pattern_dataset()

    return build
