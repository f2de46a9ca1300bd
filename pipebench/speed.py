"""Speed sampling: scale wall times to a reference machine speed.

On a shared machine the speed of one CPU swings by up to 2x for seconds
at a time, and the two CPUs of the reference machine swing
independently of each other, so a wall time says as much about the
neighbours as about the program.  :class:`SpeedSampler` runs a fixed
calibration kernel on the measured thread itself every 20 ms (from a
``SIGALRM`` handler, so it interleaves with the program's own bytecode)
and :meth:`SpeedSampler.factor` turns a wall time measured under it into
the time it would have taken at the reference speed, where the kernel
takes :data:`REFERENCE_KERNEL_S`.  The kernel mixes small numpy calls
with Python objects and closures, as the pipeline does.  On the
reference machine, while its speed swung by 1.8x, scaling cut the
spread of 150-step generator runs from 52% to 3%.  Sampling costs about
1% of the measured time, the same in every run.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
REFERENCE_KERNEL_S = 220e-6


class _Node:
    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents, vjp):
        self.value = value
        self.parents = parents
        self.vjp = vjp


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((18, 16))
        self._w = rng.standard_normal((16, 16))
        self.samples = []
        self._previous = None
        self._kernel()  # warm caches, so that the first sample is typical

    def _kernel(self):
        """A miniature of the pipeline's work: a small ReLU chain whose
        nodes are Python objects with closures, walked back once."""
        h = self._x
        nodes, seen = [], {}
        for i in range(16):
            z = h @ self._w
            h = np.maximum(z, 0.0) * 0.25
            node = _Node(h, tuple(nodes[-2:]),
                         lambda g, z=z: g * (z > 0.0))
            nodes.append(node)
            seen[id(node)] = i
        g = np.exp(-np.abs(h))
        for node in reversed(nodes):
            g = node.vjp(g) + seen[id(node)]

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self):
        """Mean of reference kernel time over kernel time, while active.

        The samples are uniform in time, and the work done in a moment is
        proportional to the speed then, which is inverse to the kernel
        time; so the mean of the inverse times, not their median, scales
        a stage that ran partly fast and partly slow.  A sample that a
        host preemption lands in counts as a moment of near-zero speed.
        """
        if not self.samples:
            # too short to be sampled: time it now, once, instead
            self._sample(None, None)
        return REFERENCE_KERNEL_S * float(np.mean(1.0 / np.array(
            self.samples)))
