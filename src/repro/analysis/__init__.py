"""Analysis around the simulation: the post-run trace insight engine
(:mod:`repro.analysis.insights`), metrics snapshots and the regression gate
(:mod:`repro.analysis.metrics_snapshot`), and static determinism lints
(:mod:`repro.analysis.lints`)."""

from .insights import (
    ATTRIBUTION_CATEGORIES,
    BottleneckVerdict,
    CriticalPath,
    PathSegment,
    RunInsight,
    StageAttribution,
    analyze_events,
    analyze_telemetry,
    verdict_from_result,
)
from .metrics_snapshot import (
    SNAPSHOT_SCHEMA,
    DiffResult,
    MetricDelta,
    MetricSet,
    Tolerances,
    canonical_json,
    diff_snapshots,
    read_snapshot,
    snapshot_from_result,
    write_snapshot,
)

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "PathSegment",
    "CriticalPath",
    "StageAttribution",
    "BottleneckVerdict",
    "RunInsight",
    "analyze_events",
    "analyze_telemetry",
    "verdict_from_result",
    "SNAPSHOT_SCHEMA",
    "MetricSet",
    "MetricDelta",
    "DiffResult",
    "Tolerances",
    "snapshot_from_result",
    "canonical_json",
    "write_snapshot",
    "read_snapshot",
    "diff_snapshots",
]
