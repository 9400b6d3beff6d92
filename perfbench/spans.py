"""In-memory spans for the benchmark's traced pass.

Spans come from the benchmark's own code only.  The harness opens one
around each call it makes into a layer (``Recorder.span``), and
:func:`instrument` temporarily wraps public methods so that the calls
one layer makes into the next (executor -> cache, runner -> batched
engine, ...) are recorded too.  Nothing in the program is edited; the
wrappers are removed when the traced pass ends.

A layer's self time is its spans' duration minus the part of it that
inner spans cover.  :func:`self_times` computes it on one timeline,
giving every instant to the innermost open span, so the self times of
all layers add up exactly to the time the root spans cover, even when
the service's threads record spans of their own.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int]

#: the span the harness opens around each traced operation
ROOT = "harness"


class _OpenSpan:
    __slots__ = ("rec", "name", "t0")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        self.rec.spans.append((self.name, self.t0, time.perf_counter(),
                               threading.get_ident()))


class Recorder:
    """Spans and counts of the traced operations, kept in memory.

    Disabled, ``span`` returns a shared no-op context and ``count``
    does nothing, so the untraced operations of a traced pass run the
    same harness code at almost no cost.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: (name, start, end, thread id); list.append is atomic
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)  # guarded-by: self._lock
        self._lock = threading.Lock()

    def span(self, name: str) -> Any:
        return _OpenSpan(self, name) if self.enabled else _NULL

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += n


_NULL = contextlib.nullcontext()


def _wrap(rec: Recorder, owner: type, attr: str,
          name: Optional[Callable[[Any], str]],
          after: Optional[Callable[[Any, Any, Any], None]] = None,
          before: Optional[Callable[[Any], Any]] = None) -> Callable[[], None]:
    """Replace ``owner.attr`` by a recording wrapper; return the undo."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return original(self, *args, **kwargs)
        state = before(self) if before is not None else None
        t0 = time.perf_counter()
        try:
            result = original(self, *args, **kwargs)
        finally:
            if name is not None:
                rec.spans.append((name(self), t0, time.perf_counter(),
                                  threading.get_ident()))
        if after is not None:
            after(self, result, state)
        return result

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Record spans around the public calls between layers."""
    from repro.cluster import ClusterRunner
    from repro.engine import BatchedEngine
    from repro.exec import ResultCache, RunSpec, SweepExecutor
    from repro.pipeline import PipelineRunner
    from repro.sim import Simulator

    def cache_outcome(cache: Any, result: Any, state: Any) -> None:
        rec.count("exec.cache_misses" if result is None
                  else "exec.cache_hits")

    def batched_outcome(engine: Any, result: Any, state: Any) -> None:
        rec.count("batched.frames", engine.frames)
        rec.count("batched.frames_simulated", engine.frames_simulated)
        rec.count("batched.jumps", len(engine.jumps))
        if engine.jumps:
            rec.count(f"batched.jumped.{engine.runner.config}")

    def sim_events(sim: Any, result: Any, before: Any) -> None:
        rec.count("sim.events", sim.event_count - before)

    undo = [
        _wrap(rec, SweepExecutor, "run", lambda ex: "exec.sweep"),
        _wrap(rec, RunSpec, "digest", lambda spec: "exec.digest"),
        _wrap(rec, ResultCache, "get", lambda cache: "exec.cache_get",
              cache_outcome),
        _wrap(rec, ResultCache, "put", lambda cache: "exec.cache_put"),
        _wrap(rec, PipelineRunner, "run",
              lambda runner: ("event.run" if runner.engine == "event"
                              else "pipeline.dispatch")),
        _wrap(rec, BatchedEngine, "__init__", lambda engine: "batched.build"),
        _wrap(rec, BatchedEngine, "run",
              lambda engine: f"batched.run.{engine.runner.config}",
              batched_outcome),
        _wrap(rec, ClusterRunner, "run", lambda runner: "cluster.run"),
        _wrap(rec, Simulator, "run", None, sim_events,
              before=lambda sim: sim.event_count),
    ]
    try:
        yield rec
    finally:
        for restore in reversed(undo):
            restore()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per span name, on one shared timeline."""
    bounds: List[Tuple[float, int, int]] = []
    for i, (_, t0, t1, _) in enumerate(spans):
        bounds.append((t0, 1, i))
        bounds.append((t1, 0, i))
    bounds.sort()
    out: Dict[str, float] = defaultdict(float)
    live: List[Tuple[float, float, int]] = []  # (-start, end, index)
    closed = set()
    prev = 0.0
    for t, is_start, i in bounds:
        while live and live[0][2] in closed:
            heapq.heappop(live)
        if live:
            out[spans[live[0][2]][0]] += t - prev
        prev = t
        if is_start:
            heapq.heappush(live, (-spans[i][1], spans[i][2], i))
        else:
            closed.add(i)
    return dict(out)


def write_trace(path: Path, spans: List[Span],
                table: List[Tuple[str, float, float]]) -> None:
    """Chrome trace-event JSON of the spans, plus a self-time table."""
    origin = min((s[1] for s in spans), default=0.0)
    pid = os.getpid()
    events = [{"name": name, "ph": "X", "pid": pid, "tid": tid,
               "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6}
              for name, t0, t1, tid in spans]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    lines = [f"{'layer':<28} {'self s/op':>12} {'share %':>8}"]
    lines += [f"{name:<28} {per_op:>12.6f} {share:>8.2f}"
              for name, per_op, share in table]
    path.with_suffix(".txt").write_text("\n".join(lines) + "\n")
