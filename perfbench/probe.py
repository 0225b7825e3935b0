"""Machine-speed probe: host times scaled to a reference speed.

On a shared host the speed of a vCPU drifts by up to 2x, over seconds and
over minutes, and a process's CPU time drifts with it, so neither wall
time nor CPU time of one run is comparable with another run's. The probe
times a fixed kernel (an interpreter loop over a dict and small numpy
calls, the mix the planner and simulator run) at points of the timeline,
and every stretch between two probes is scaled by
``REFERENCE_MS / mean(bounding probe times)``. The result is the time the
stretch would take at a speed at which the kernel takes ``REFERENCE_MS``
(the kernel's time in the faster state of a 2-vCPU Xeon VM); the
program's own work is untouched, so a change to it moves the scaled time
as it moves the raw time. The correction is not exact: the max-pressure
controller's loop over movement objects slows up to ~10% more than the
kernel when the machine is slow, while the emc planner tracks it within
~5%. A kernel imitating that loop tracked max-pressure better and the
planner worse, so the kernel stays generic.

A probe runs at the start and end of a measured stretch and, inside a run,
at the start of a period's decision once ``GAP_S`` has passed since the
last one, which keeps the probe's share of a run under 5%.
"""
from __future__ import annotations

import bisect
import importlib
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_MS = 0.85
GAP_S = 0.02

_TABLE = {i: float(i) for i in range(64)}
_X = np.arange(16.0)
_Y = _X[::-1].copy()


def kernel() -> float:
    """The fixed work whose time the probe takes."""
    acc = 0.0
    table = _TABLE
    for i in range(8000):
        acc += table[i & 63] * 1.5
    for _ in range(160):
        a = np.minimum(_X, _Y)
        acc += float(a.sum()) + int(np.argmin(a))
    return acc


class SpeedProbe:
    """Probe samples of one measured stretch and the decision marks in it."""

    def __init__(self):
        # (start, end) of each probe, in perf_counter seconds.
        self.samples: list[tuple[float, float]] = []
        self._ends: list[float] = []
        # Time at which each period's decision starts.
        self.marks: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((start, end))
        self._ends.append(end)

    def _ms(self, k: int) -> float:
        start, end = self.samples[k]
        return (end - start) * 1e3

    def scale_at(self, t: float) -> float:
        """Factor to the reference speed at time `t`, from the probes on
        either side of it."""
        k = bisect.bisect_right(self._ends, t)
        before = self._ms(max(k - 1, 0))
        after = self._ms(min(k, len(self.samples) - 1))
        return 2 * REFERENCE_MS / (before + after)

    def scaled_s(self) -> float:
        """The time between the first and the last probe, without the probes
        themselves, scaled to the reference speed."""
        total = 0.0
        for k in range(len(self.samples) - 1):
            gap = self.samples[k + 1][0] - self.samples[k][1]
            total += gap * 2 * REFERENCE_MS / (self._ms(k) + self._ms(k + 1))
        return total

    def scaled_ms(self, raw_ms) -> list[float]:
        """Each period's decision time scaled at the time it started."""
        return [ms * self.scale_at(t) for ms, t in zip(raw_ms, self.marks)]

    @contextmanager
    def installed(self):
        """Probe at the start of decisions, after the turning estimate that
        precedes each one in `run_experiment`."""
        module = importlib.import_module("netsignal.harness")
        estimate_turning = module.estimate_turning
        samples, marks = self.samples, self.marks

        def probed(*args, **kwargs):
            result = estimate_turning(*args, **kwargs)
            if time.perf_counter() - samples[-1][1] >= GAP_S:
                self.sample()
            marks.append(time.perf_counter())
            return result

        self.sample()
        try:
            module.estimate_turning = probed
            yield self
        finally:
            module.estimate_turning = estimate_turning
            self.sample()
