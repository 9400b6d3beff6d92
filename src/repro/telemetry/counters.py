"""Hierarchical counter registry: counters, gauges, histograms.

Every instrumented subsystem publishes into one :class:`CounterRegistry`
under dotted hierarchical names following the convention documented in
``docs/observability.md``:

* ``mesh.link.{sx},{sy}->{dx},{dy}.bytes`` — per directed mesh link;
* ``dram.mc{i}.bytes`` / ``dram.mc{i}.requests`` — per memory controller;
* ``stage.{key}.frames`` / ``stage.{key}.busy_s`` — pipeline stages;
* ``dvfs.*``, ``power.*``, ``rcce.*`` — the rest.

Three metric kinds cover everything the model needs:

* :class:`Counter` — monotonically non-decreasing totals (bytes, events);
* :class:`Gauge` — instantaneous values that move both ways (occupancy,
  the current clock of a tile);
* :class:`Histogram` — sample distributions, backed by the existing
  :class:`~repro.sim.StatAccumulator` so quartiles/means come for free.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Tuple, Union

from ..sim import StatAccumulator

__all__ = ["Counter", "Gauge", "Histogram", "CounterRegistry",
           "KNOWN_COUNTER_ROOTS", "KNOWN_METRIC_ROOTS"]

#: The registered first segments of the dotted counter namespace.  The
#: ``TEL001`` determinism lint (repro.analysis.lints) rejects call sites
#: whose static name root is not listed here — add the root *and* its
#: convention to ``docs/observability.md`` when opening a new subsystem.
KNOWN_COUNTER_ROOTS = frozenset({
    "mesh", "dram", "stage", "dvfs", "power", "rcce",
})

#: The registered first segments of the *derived-metric* namespace: the
#: names the insight engine / metrics snapshots publish (``repro analyze
#: --snapshot-out``, ``repro diff``).  The ``TEL002`` lint rejects
#: ``add_metric`` call sites whose static name root is not listed here —
#: the snapshot schema is a cross-run contract (tolerance files and
#: committed baselines key on these names), so new roots must be added
#: here and documented in ``docs/observability.md`` first.
KNOWN_METRIC_ROOTS = frozenset({
    "time", "energy", "power", "latency", "stage", "util", "mc",
    "attr", "critpath", "verdict",
})


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        """Add ``delta`` (must be >= 0: counters never go down)."""
        if delta < 0:
            raise ValueError(f"{self.name}: counters are monotonic "
                             f"(delta={delta})")
        self.value += delta

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """An instantaneous value that may move in both directions."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """A distribution of samples (thin wrapper over StatAccumulator)."""

    __slots__ = ("name", "stats")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = StatAccumulator(name)

    def observe(self, value: float) -> None:
        self.stats.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    def summary(self) -> Dict[str, float]:
        return self.stats.summary()

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


Metric = Union[Counter, Gauge, Histogram]


class CounterRegistry:
    """All metrics of one telemetry hub, addressable by dotted name.

    Names are created on first use; asking for an existing name with a
    different kind is an error (one name, one metric).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- creation / lookup -------------------------------------------------
    def _get(self, name: str, kind: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name)
        elif type(metric) is not kind:
            raise TypeError(
                f"{name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    # -- shorthand mutators -----------------------------------------------
    def inc(self, name: str, delta: float = 1.0) -> None:
        self.counter(name).inc(delta)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"no metric named {name!r}")

    def value(self, name: str) -> float:
        """Scalar value of a counter or gauge."""
        metric = self.get(name)
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; use .get()")
        return metric.value

    def match(self, pattern: str) -> Dict[str, Metric]:
        """All metrics whose name matches a glob (``mesh.link.*``)."""
        return {n: m for n, m in sorted(self._metrics.items())
                if fnmatchcase(n, pattern)}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Lossless JSON-able state, the form run digests hash.

        Unlike :meth:`as_dict` (a human-oriented dump), histograms carry
        their raw samples.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = list(metric.stats._samples)
        return out

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dump: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with plain-float values."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = (
                    metric.summary() if metric.count else {"count": 0.0})
        return out

    def csv_rows(self) -> List[Tuple[str, str, float]]:
        """Flat ``(name, kind, value)`` rows for the CSV dump.

        Histograms expand into ``name.count`` / ``name.mean`` /
        ``name.median`` / ``name.total`` rows.
        """
        rows: List[Tuple[str, str, float]] = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                rows.append((name, "counter", metric.value))
            elif isinstance(metric, Gauge):
                rows.append((name, "gauge", metric.value))
            else:
                rows.append((f"{name}.count", "histogram",
                             float(metric.count)))
                if metric.count:
                    summary = metric.summary()
                    for key in ("mean", "median", "total"):
                        rows.append((f"{name}.{key}", "histogram",
                                     summary[key]))
        return rows

    def __repr__(self) -> str:
        return f"<CounterRegistry metrics={len(self._metrics)}>"
