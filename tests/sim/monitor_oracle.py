"""Test-only scalar oracles for the measurement helpers.

These are the per-sample loops :mod:`repro.sim.monitor` computed with
before its sums and integrals became array operations: a
``StatAccumulator`` that adds every sample to its running sums as it
arrives, and the segment walk ``TimeSeries.integrate`` made.  The bulk
code must agree with them bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["ScalarAccumulator", "scalar_integrate"]


class ScalarAccumulator:
    """Samples plus a running sum and sum of squares, one ``+=`` each
    per sample, in arrival order."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.sum = 0.0
        self.sum_sq = 0.0

    def add(self, value: float) -> None:
        v = float(value)
        self.samples.append(v)
        self.sum += v
        self.sum_sq += v * v


def scalar_integrate(times: List[float], values: List[float], t0: float = 0.0,
                     t1: Optional[float] = None) -> float:
    """Exact integral of the step signal over ``[t0, t1]``, one segment
    at a time."""
    if t1 is None:
        t1 = times[-1]
    if t1 < t0:
        raise ValueError("t1 < t0")
    if t0 == t1:
        return 0.0
    total = 0.0
    # Walk segments overlapping [t0, t1]; the last segment extends to
    # t1 because the signal persists at its final value.
    for i, start in enumerate(times):
        end = times[i + 1] if i + 1 < len(times) else max(t1, start)
        seg_start = max(start, t0)
        seg_end = min(end, t1)
        if seg_end > seg_start:
            total += values[i] * (seg_end - seg_start)
        if start >= t1:
            break
    return total
