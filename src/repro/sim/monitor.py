"""Measurement utilities: time series, statistics accumulators, traces.

The paper reports medians and quartiles (Fig. 15), time-resolved power
traces (Figs 14/17) and aggregate walkthrough times (Table I).  The classes
here collect exactly those quantities from a running simulation without the
model code having to know what will be plotted later.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = ["StatAccumulator", "TimeSeries", "quantile", "running_sum"]


def running_sum(start: ArrayLike, values: ArrayLike) -> np.ndarray:
    """``start + values[..., 0] + values[..., 1] + ...``: each row of
    ``values`` added to its start left to right, as a loop of ``+=`` adds
    them, bit for bit (``np.add.accumulate`` is sequential, where
    ``np.sum`` sums pairwise).  Like Python floats, it warns on nothing
    (overflow gives inf, ``inf - inf`` NaN)."""
    values = np.asarray(values, dtype=float)
    acc = np.empty(values.shape[:-1] + (values.shape[-1] + 1,))
    acc[..., 0] = start
    acc[..., 1:] = values
    with np.errstate(all="ignore"):
        np.add.accumulate(acc, axis=-1, out=acc)
    return acc[..., -1]


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already *sorted* sequence.

    Matches ``numpy.quantile(..., method="linear")`` so tests can
    cross-check, in plain Python: it reads two samples.
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

    Stores samples (needed for quartiles).  The running sums behind
    ``total``/``mean`` are brought up to date on first read, adding the
    new samples in order, so recording a sample costs one append and a
    sum nobody reads is never taken.
    """

    def __init__(self, name: str = "stat") -> None:
        self.name = name
        self._samples: List[float] = []
        #: running sums of samples and of their squares, and how many
        #: samples each covers
        self._total = self._total_sq = 0.0
        self._total_n = self._total_sq_n = 0
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples: the same as ``add`` on each in turn."""
        self._samples.extend(map(float, values))
        self._sorted = None

    @property
    def _sum(self) -> float:
        """Sum of the samples, taken on first read: bit for bit a ``+=``
        of each sample in arrival order."""
        if self._total_n < len(self._samples):
            tail = np.fromiter(self._samples[self._total_n:], float)
            self._total = float(running_sum(self._total, tail))
            self._total_n = len(self._samples)
        return self._total

    @property
    def _sum_sq(self) -> float:
        """Sum of the samples' squares, taken like :attr:`_sum`."""
        if self._total_sq_n < len(self._samples):
            tail = np.fromiter(self._samples[self._total_sq_n:], float)
            with np.errstate(all="ignore"):
                tail *= tail
            self._total_sq = float(running_sum(self._total_sq, tail))
            self._total_sq_n = len(self._samples)
        return self._total_sq

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

    def extend(self, times: Sequence[float], values: Sequence[float]) -> None:
        """:meth:`record` of each ``(times[i], values[i])`` in turn, in
        array operations: a run of equal times keeps its last value, and
        a time before the previous one raises once the pairs before it
        are recorded."""
        ts = np.asarray(times, dtype=float)
        vs = np.asarray(values, dtype=float)
        # each record is compared with the one before it
        prev = np.concatenate(([self.times[-1]], ts[:-1]))
        bad = np.flatnonzero(ts < prev)
        stop = int(bad[0]) if bad.size else ts.size
        t, v = ts[:stop], vs[:stop]
        # a point takes its time from the first record at that time and
        # its value from the last
        first = np.append(True, t[1:] != t[:-1])[:stop]
        last = np.append(first[1:], True)[:stop]
        t, v = t[first], v[last]
        if t.size and t[0] == self.times[-1]:
            self.values[-1] = float(v[0])
            t, v = t[1:], v[1:]
        self.times.extend(t.tolist())
        self.values.extend(v.tolist())
        if stop < ts.size:
            raise ValueError(f"{self.name}: non-monotone record at "
                             f"t={float(ts[stop])} < {self.times[-1]}")

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
        # segment i runs from times[i] to times[i + 1], the last one to
        # t1 because the signal persists at its final value; clipped to
        # [t0, t1], a segment that overlaps it keeps its exact bounds
        bounds = np.array(self.times + [max(t1, self.times[-1])])
        np.maximum(bounds, t0, out=bounds)
        np.minimum(bounds, t1, out=bounds)
        widths = bounds[1:] - bounds[:-1]
        live = widths > 0.0
        with np.errstate(all="ignore"):
            parts = np.array(self.values)[live] * widths[live]
        return float(running_sum(0.0, parts))

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
