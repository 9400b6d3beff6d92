"""Unified telemetry: structured events, counters, exporters.

The single instrumentation subsystem the whole simulator reports into
(see ``docs/observability.md``):

>>> from repro.telemetry import Telemetry
>>> from repro.pipeline import PipelineRunner
>>> tel = Telemetry()
>>> result = PipelineRunner(config="one_renderer", pipelines=1,
...                         frames=4, telemetry=tel).run()
>>> "stage.blur[0].frames" in tel.counters
True
"""

from .counters import (
    KNOWN_COUNTER_ROOTS,
    KNOWN_METRIC_ROOTS,
    Counter,
    CounterRegistry,
    Gauge,
    Histogram,
)
from .export import (
    chrome_trace,
    counters_dump,
    events_from_chrome,
    render_gantt,
    stage_busy_spans,
    top_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_counters,
)
from .hub import (
    NULL_TELEMETRY,
    MetricsSink,
    Telemetry,
    TelemetryEvent,
)

__all__ = [
    "Telemetry",
    "TelemetryEvent",
    "MetricsSink",
    "NULL_TELEMETRY",
    "Counter",
    "Gauge",
    "Histogram",
    "CounterRegistry",
    "KNOWN_COUNTER_ROOTS",
    "KNOWN_METRIC_ROOTS",
    "chrome_trace",
    "events_from_chrome",
    "render_gantt",
    "stage_busy_spans",
    "write_chrome_trace",
    "counters_dump",
    "write_counters",
    "top_report",
    "validate_chrome_trace",
]
