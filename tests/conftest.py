"""Fixtures shared by the test modules."""

import os
import tracemalloc

import numpy as np
import pytest

import kktgen.datasets as ds


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process of this one, running or
    unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.fixture
def traced():
    """``traced(call)``: ``call()`` under ``tracemalloc``, returning
    ``(peak, left)``.  ``peak`` is the most memory traced during the call
    above what was traced when it began, in bytes; numpy reports its
    array data to ``tracemalloc``, so large arrays dominate it.  ``left``
    lists, per line, the numpy array data whose count the call changed
    (``tracemalloc.StatisticDiff``): empty when the call leaves none
    allocated."""
    numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def measure(call):
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(numpy_data)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
            after = tracemalloc.take_snapshot().filter_traces(numpy_data)
        finally:
            tracemalloc.stop()
        return peak - start, [d for d in after.compare_to(before, "lineno")
                              if d.count_diff]

    return measure
