"""``repro.obsv`` — the live operational observability plane.

Where :mod:`repro.telemetry` looks *inside* simulated time and
:mod:`repro.analysis` looks *after* a run, this package watches the
tooling itself while it works:

``eventlog``
    Structured JSONL operational log (levels, digest context, monotonic
    timestamps) emitted by the simulator, the pipeline runner and the
    sweep executor; validated by ``scripts/validate_trace.py
    --eventlog``.
``progress``
    Per-run progress events streamed from sweep workers over a
    multiprocessing queue, folded into live fleet metrics
    (:class:`FleetAggregator`).
``promexpo`` / ``server``
    Prometheus text exposition and the ``/metrics`` + ``/healthz``
    endpoint behind ``repro sweep --serve-metrics PORT``.
``top``
    The ``repro top`` plain-ANSI live dashboard.

Import discipline: this ``__init__`` eagerly loads only the
stdlib-only modules (``eventlog``, ``progress``) so deterministic-core
packages can use the logging hook without import cycles; everything
that touches :mod:`repro.telemetry`/:mod:`repro.analysis` loads lazily
on first attribute access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .eventlog import (EVENT_LOG, LEVELS, LOG_SCHEMA, EventLog,
                       configure_event_log, reset_event_log)
from .progress import (RUN_STATES, FleetAggregator, FleetSnapshot,
                       FrameProgressSink, ProgressEvent, RunProgress,
                       WorkerProgress, fanout)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .promexpo import (CONTENT_TYPE, ExpositionPage,  # noqa: F401
                           parse_prometheus_text, render_exposition)
    from .server import MetricsServer  # noqa: F401
    from .top import TopDashboard, progress_bar, render_top  # noqa: F401

__all__ = [
    "LOG_SCHEMA", "LEVELS", "EventLog", "EVENT_LOG",
    "configure_event_log", "reset_event_log",
    "RUN_STATES", "ProgressEvent", "FrameProgressSink", "RunProgress",
    "WorkerProgress", "FleetSnapshot", "FleetAggregator", "fanout",
    "render_exposition", "parse_prometheus_text", "CONTENT_TYPE",
    "ExpositionPage",
    "MetricsServer",
    "render_top", "progress_bar", "TopDashboard",
]

#: lazily-resolved attribute -> providing submodule
_LAZY = {
    "render_exposition": "promexpo",
    "parse_prometheus_text": "promexpo",
    "CONTENT_TYPE": "promexpo",
    "ExpositionPage": "promexpo",
    "MetricsServer": "server",
    "render_top": "top",
    "progress_bar": "top",
    "TopDashboard": "top",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obsv' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for next time
    return value
