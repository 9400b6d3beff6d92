"""Measurement utilities: time series, statistics accumulators, traces.

The paper reports medians and quartiles (Fig. 15), time-resolved power
traces (Figs 14/17) and aggregate walkthrough times (Table I).  The classes
here collect exactly those quantities from a running simulation without the
model code having to know what will be plotted later.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["StatAccumulator", "TimeSeries", "quantile"]


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already *sorted* sequence.

    Matches ``numpy.quantile(..., method="linear")`` so tests can
    cross-check, but avoids pulling numpy into the hot path.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sequence has no quantiles")
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


class StatAccumulator:
    """Streaming collection of scalar samples with summary statistics.

    Stores samples (needed for quartiles) and keeps running sums so that
    ``mean``/``std`` are O(1).
    """

    def __init__(self, name: str = "stat") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sum = 0.0
        self._sum_sq = 0.0
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        """Record one sample."""
        v = float(value)
        self._samples.append(v)
        self._sum += v
        self._sum_sq += v * v
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples: bit-identical to ``add`` on each in turn
        (same coercion, same running-sum order), in one local loop."""
        samples = [float(v) for v in values]
        total, total_sq = self._sum, self._sum_sq
        for v in samples:
            total += v  # lint: disable=DET007 -- must equal add(), in order
            total_sq += v * v  # lint: disable=DET007 -- must equal add()
        self._sum, self._sum_sq = total, total_sq
        self._samples.extend(samples)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"{self.name}: no samples")
        return self._sum / len(self._samples)

    @property
    def std(self) -> float:
        """Population standard deviation (two-pass, cancellation-safe)."""
        n = len(self._samples)
        if n == 0:
            raise ValueError(f"{self.name}: no samples")
        mean = self._sum / n
        var = math.fsum((v - mean) ** 2 for v in self._samples) / n
        return math.sqrt(var)

    @property
    def min(self) -> float:
        return min(self._samples)

    @property
    def max(self) -> float:
        return max(self._samples)

    def _ensure_sorted(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile of the samples."""
        return quantile(self._ensure_sorted(), q)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def quartiles(self) -> Tuple[float, float, float]:
        """Return ``(Q1, median, Q3)`` — the Fig. 15 box summary."""
        s = self._ensure_sorted()
        return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)

    def summary(self) -> Dict[str, float]:
        """A plain-dict summary convenient for report tables."""
        q1, med, q3 = self.quartiles()
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "q1": q1,
            "median": med,
            "q3": q3,
            "max": self.max,
            "total": self.total,
        }

    def __repr__(self) -> str:
        if not self._samples:
            return f"<StatAccumulator {self.name!r} empty>"
        return (
            f"<StatAccumulator {self.name!r} n={self.count} "
            f"mean={self.mean:.6g}>"
        )


class TimeSeries:
    """A piecewise-constant signal sampled at irregular instants.

    Records ``(t, value)`` change points; :meth:`integrate` computes the
    exact integral of the step function (used for energy = ∫ power dt) and
    :meth:`sample` resamples onto a regular grid (used for the power-trace
    figures).
    """

    def __init__(self, name: str = "series", initial: float = 0.0) -> None:
        self.name = name
        self.times: List[float] = [0.0]
        self.values: List[float] = [float(initial)]

    def record(self, t: float, value: float) -> None:
        """Record that the signal takes ``value`` from time ``t`` on."""
        if t < self.times[-1]:
            raise ValueError(
                f"{self.name}: non-monotone record at t={t} < {self.times[-1]}"
            )
        if t == self.times[-1]:
            self.values[-1] = float(value)
            return
        self.times.append(float(t))
        self.values.append(float(value))

    def value_at(self, t: float) -> float:
        """Signal value at time ``t`` (left-continuous step lookup)."""
        if t < self.times[0]:
            raise ValueError(f"t={t} precedes first record")
        idx = bisect_right(self.times, t) - 1
        return self.values[idx]

    def integrate(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Exact integral of the step signal over ``[t0, t1]``."""
        if t1 is None:
            t1 = self.times[-1]
        if t1 < t0:
            raise ValueError("t1 < t0")
        if t0 == t1:
            return 0.0
        total = 0.0
        # Walk segments overlapping [t0, t1]; the last segment extends to
        # t1 because the signal persists at its final value.
        for i, start in enumerate(self.times):
            end = self.times[i + 1] if i + 1 < len(self.times) else max(t1, start)
            seg_start = max(start, t0)
            seg_end = min(end, t1)
            if seg_end > seg_start:
                total += self.values[i] * (seg_end - seg_start)
            if start >= t1:
                break
        return total

    def sample(self, t0: float, t1: float, dt: float) -> List[Tuple[float, float]]:
        """Resample onto a regular grid ``t0, t0+dt, ... <= t1``."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        out: List[Tuple[float, float]] = []
        t = t0
        while t <= t1 + 1e-12:
            out.append((t, self.value_at(min(t, self.times[-1]))))
            t += dt
        return out

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name!r} points={len(self.times)}>"
