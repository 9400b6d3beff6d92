"""Live per-run progress events and fleet aggregation.

The :class:`~repro.exec.SweepExecutor` is a black box while it runs: a
Table-I campaign is 84 independent simulations and nothing is visible
until the last one lands.  This module defines the side channel that
opens it up:

* :class:`ProgressEvent` — one picklable record about one run (or the
  sweep itself): state changes (``queued`` → ``running`` →
  ``cached``/``done``/``failed``) and frame-granular heartbeats.
  Workers put them on a ``multiprocessing`` queue; the parent forwards
  them to whatever callbacks the caller attached.
* :class:`FrameProgressSink` — a telemetry sink that turns the
  per-frame ``stage`` spans a run already emits into throttled
  heartbeats, so frames-completed streams out of a worker without any
  new instrumentation inside the simulation.
* :class:`FleetAggregator` — folds the event stream into live fleet
  metrics: per-run and per-worker state, cache hit/miss counts,
  throughput, worker utilization and an ETA extrapolated from
  completed-run wall times.  Thread-safe; the Prometheus endpoint
  (:mod:`repro.obsv.server`) and the ``repro top`` dashboard
  (:mod:`repro.obsv.top`) both read its :meth:`~FleetAggregator.snapshot`.

The stream is strictly observational: results aggregate in submission
order exactly as before, so sweep output is bit-identical with the
stream on or off (``tests/exec/test_progress_stream.py`` asserts it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["RUN_STATES", "ProgressEvent", "ProgressCallback",
           "FrameProgressSink", "RunProgress", "WorkerProgress",
           "FleetSnapshot", "FleetAggregator", "fanout"]

#: lifecycle of one sweep point
RUN_STATES = ("queued", "running", "cached", "done", "failed")

#: terminal states (the run will not change again)
_FINAL_STATES = frozenset({"cached", "done", "failed"})

#: the stages every frame crosses exactly once, as the last one
_COMPLETION_TRACKS = ("transfer", "single-core")


@dataclass(frozen=True)
class ProgressEvent:
    """One observation about a sweep.  Picklable (crosses processes).

    ``kind`` is ``"state"`` (a run changed state), ``"heartbeat"``
    (frames advanced inside a running run) or ``"sweep"`` (sweep-level
    lifecycle: ``state`` is ``"start"``/``"finish"``).
    """

    kind: str
    #: emitter's monotonic clock (clocks differ across processes:
    #: compare only within one worker's events)
    ts: float
    #: worker name (``"main"`` for in-process execution)
    worker: str
    #: submission-order index of the run (-1 for sweep-level events)
    index: int
    #: RunSpec content address ("" for sweep-level events)
    digest: str
    state: str = ""
    frames_done: int = 0
    frames_total: int = 0
    #: wall seconds the run took (terminal states only)
    wall_s: float = 0.0
    #: repr of the exception (``failed`` only)
    error: str = ""
    #: one-line bottleneck verdict (``done`` only, when available)
    verdict: str = ""
    #: batched engine's detected frame-wave period Δ in virtual seconds
    #: (heartbeats only; 0.0 until a steady state is found)
    period_s: float = 0.0


ProgressCallback = Callable[[ProgressEvent], None]


def _event(kind: str, index: int, digest: str, worker: str = "main",
           **fields: Any) -> ProgressEvent:
    return ProgressEvent(kind=kind, ts=time.monotonic(), worker=worker,
                         index=index, digest=digest, **fields)


def state_event(state: str, index: int, digest: str,
                worker: str = "main", **fields: Any) -> ProgressEvent:
    """A run state-change event (validated against :data:`RUN_STATES`)."""
    if state not in RUN_STATES:
        raise ValueError(f"unknown run state {state!r}")
    return _event("state", index, digest, worker, state=state, **fields)


def sweep_event(state: str, total: int, worker: str = "main",
                **fields: Any) -> ProgressEvent:
    """A sweep-level lifecycle event (``start``/``finish``)."""
    return _event("sweep", -1, "", worker, state=state,
                  frames_total=total, **fields)


def fanout(*callbacks: Optional[ProgressCallback]
           ) -> Optional[ProgressCallback]:
    """One callback that forwards to every non-None callback given.

    Returns ``None`` when nothing is attached, so callers can pass the
    result straight to ``SweepExecutor(progress=...)`` and keep the
    disabled fast path.
    """
    live = [cb for cb in callbacks if cb is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def _forward(event: ProgressEvent) -> None:
        for cb in live:
            cb(event)

    return _forward


class FrameProgressSink:
    """Telemetry sink: per-frame stage spans → throttled heartbeats.

    Counts completed frames by watching ``busy`` spans on the pipeline's
    final stage (``transfer``, or ``single-core`` for the one-core
    baseline) — every frame crosses it exactly once.  Heartbeats emit at
    frame-count steps (default ~4% of the run) with a minimum wall-time
    spacing, so a fast run does not flood the queue.

    The batched engine's frame-wave jump emits one ``engine/wave``
    instant instead of per-frame spans; the sink folds its skipped-wave
    count straight into ``frames_done`` and forwards the detected
    period Δ, so a jumped run heartbeats just like a replayed one.

    It declares just that (:meth:`reads`), so a run whose only reader
    is this sink emits one span per frame and one instant per wave.
    """

    def __init__(self, emit: ProgressCallback, index: int, digest: str,
                 frames_total: int, worker: str = "main",
                 min_interval_s: float = 0.05) -> None:
        self.emit = emit
        self.index = index
        self.digest = digest
        self.worker = worker
        self.frames_total = frames_total
        self.frames_done = 0
        #: batched frame-wave period Δ (0.0 until a jump reports one)
        self.period_s = 0.0
        self._step = max(1, frames_total // 25)
        self._next_at = self._step
        self._min_interval = min_interval_s
        self._last_emit = 0.0

    @staticmethod
    def reads(category: str, name: str, track: Optional[str]) -> bool:
        """The engine's instants and the completion stage's busy spans."""
        if category == "engine":
            return True
        return (category == "stage" and name == "busy" and track is not None
                and track.split("[")[0] in _COMPLETION_TRACKS)

    def __call__(self, event: Any) -> None:
        if (event.kind == "instant" and event.category == "engine"
                and event.name == "wave"):
            # A batched frame-wave jump: many frames land at once and
            # the period is now known — heartbeat immediately.
            self.frames_done += int(event.fields.get("frames", 0))
            self.period_s = float(event.fields.get("dt", 0.0))
            self._heartbeat()
            return
        if (event.kind != "span" or event.category != "stage"
                or event.name != "busy" or event.track is None):
            return
        if event.track.split("[")[0] not in _COMPLETION_TRACKS:
            return
        self.frames_done += 1
        if self.frames_done < self._next_at:
            return
        now = time.monotonic()
        if (now - self._last_emit < self._min_interval
                and self.frames_done < self.frames_total):
            return
        self._heartbeat(now)

    def _heartbeat(self, now: Optional[float] = None) -> None:
        self._last_emit = time.monotonic() if now is None else now
        self._next_at = self.frames_done + self._step
        self.emit(_event("heartbeat", self.index, self.digest, self.worker,
                         frames_done=self.frames_done,
                         frames_total=self.frames_total,
                         period_s=self.period_s))


# -- aggregation -----------------------------------------------------------

@dataclass
class RunProgress:
    """Aggregated view of one sweep point."""

    index: int
    digest: str = ""
    state: str = "queued"
    worker: str = ""
    frames_done: int = 0
    frames_total: int = 0
    wall_s: float = 0.0
    error: str = ""
    verdict: str = ""
    #: batched frame-wave period Δ (virtual seconds; 0.0 for event runs)
    period_s: float = 0.0


@dataclass
class WorkerProgress:
    """Aggregated view of one worker process."""

    name: str
    #: index of the run it is executing (-1 when idle)
    current: int = -1
    #: runs this worker finished (done or failed)
    finished: int = 0
    #: aggregator-clock time of the last event from this worker
    last_seen: float = 0.0
    #: wall seconds this worker spent inside finished runs
    busy_s: float = 0.0


@dataclass
class FleetSnapshot:
    """One consistent, render-ready view of the fleet (plain data)."""

    total: int
    counts: Dict[str, int]
    runs: List[RunProgress]
    workers: List[WorkerProgress]
    cache_hits: int
    cache_misses: int
    frames_done: int
    frames_total: int
    elapsed_s: float
    throughput_runs_per_s: float
    eta_s: Optional[float]
    #: busy seconds / (workers x elapsed); None before any work finishes
    utilization: Optional[float]
    finished: bool = False

    @property
    def completed(self) -> int:
        return (self.counts.get("cached", 0) + self.counts.get("done", 0)
                + self.counts.get("failed", 0))


class FleetAggregator:
    """Folds :class:`ProgressEvent` streams into live fleet metrics.

    ``consume`` is the :data:`ProgressCallback`; it is safe to call from
    the executor's drain thread while HTTP handlers and the dashboard
    read :meth:`snapshot` from theirs.  Event timestamps come from
    emitter clocks in other processes, so ordering/ETA math uses the
    aggregator's own clock at arrival time instead.
    """

    def __init__(self, on_update: Optional[Callable[["FleetAggregator"],
                                                    None]] = None) -> None:
        self._lock = threading.Lock()
        self._runs: Dict[int, RunProgress] = {}  # guarded-by: self._lock
        self._workers: Dict[str, WorkerProgress] = {}  # guarded-by: self._lock
        self._total = 0  # guarded-by: self._lock
        self._cache_hits = 0  # guarded-by: self._lock
        self._cache_misses = 0  # guarded-by: self._lock
        self._wall_times: List[float] = []  # guarded-by: self._lock
        #: aggregator-clock instant each run was first seen running
        self._run_started: Dict[int, float] = {}  # guarded-by: self._lock
        self._started_at: Optional[float] = None  # guarded-by: self._lock
        self._finished = False  # guarded-by: self._lock
        self._on_update = on_update
        self._clock = time.monotonic

    # -- ingestion ---------------------------------------------------------
    def consume(self, event: ProgressEvent) -> None:
        with self._lock:
            self._apply(event)
        if self._on_update is not None:
            self._on_update(self)

    def _apply(self, event: ProgressEvent) -> None:  # guarded-by: self._lock
        now = self._clock()
        if self._started_at is None:
            self._started_at = now
        if event.kind == "sweep":
            if event.state == "start":
                self._total = max(self._total, event.frames_total)
            elif event.state == "finish":
                self._finished = True
            return

        run = self._runs.get(event.index)
        if run is None:
            run = self._runs[event.index] = RunProgress(index=event.index)
        if event.digest:
            run.digest = event.digest
        if event.state in ("queued", "cached"):
            # Scheduler-side events: don't grow a worker row for the
            # parent process, it never executes anything.
            if event.state == "cached" and run.state not in _FINAL_STATES:
                run.state = "cached"
                self._cache_hits += 1
                run.frames_done = run.frames_total = max(
                    run.frames_total, event.frames_total)
            elif event.state == "queued" and run.state == "queued":
                run.frames_total = max(run.frames_total, event.frames_total)
            return
        worker = self._workers.get(event.worker)
        if worker is None:
            worker = self._workers[event.worker] = WorkerProgress(
                name=event.worker)
        worker.last_seen = now

        if event.kind == "heartbeat":
            run.frames_done = max(run.frames_done, event.frames_done)
            run.frames_total = max(run.frames_total, event.frames_total)
            if event.period_s > 0.0:
                run.period_s = event.period_s
            if run.state == "queued":  # heartbeat raced the state event
                run.state = "running"
            self._run_started.setdefault(event.index, now)
            run.worker = event.worker
            worker.current = event.index
            return

        # state events; ignore regressions after a terminal state (the
        # queue preserves per-worker order but workers interleave)
        if run.state in _FINAL_STATES and event.state not in _FINAL_STATES:
            return
        previous = run.state
        run.state = event.state
        if event.state == "running":
            if previous != "running":
                self._cache_misses += 1
            self._run_started.setdefault(event.index, now)
            run.worker = event.worker
            run.frames_total = max(run.frames_total, event.frames_total)
            worker.current = event.index
        elif event.state in ("done", "failed"):
            if event.state == "done":
                run.frames_done = max(run.frames_done, event.frames_done,
                                      run.frames_total)
                run.frames_total = max(run.frames_total, run.frames_done)
                run.verdict = event.verdict or run.verdict
            else:
                run.error = event.error
            run.worker = event.worker or run.worker
            run.wall_s = event.wall_s
            if event.wall_s > 0.0:
                self._wall_times.append(event.wall_s)
            worker.finished += 1
            worker.busy_s += event.wall_s
            if worker.current == event.index:
                worker.current = -1

    def queued(self, indices_digests: List[Tuple[int, str]]) -> None:
        """Bulk-register submission-order points as ``queued``."""
        with self._lock:
            self._total = max(self._total, len(indices_digests))
            for index, digest in indices_digests:
                if index not in self._runs:
                    self._runs[index] = RunProgress(index=index,
                                                    digest=digest)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> FleetSnapshot:
        """A consistent copy of the fleet state (safe to render/serve)."""
        with self._lock:
            now = self._clock()
            elapsed = (now - self._started_at
                       if self._started_at is not None else 0.0)
            runs = [RunProgress(**vars(r))
                    for _, r in sorted(self._runs.items())]
            workers = [WorkerProgress(**vars(w))
                       for _, w in sorted(self._workers.items())]
            counts = {state: 0 for state in RUN_STATES}
            for run in runs:
                counts[run.state] += 1
            completed = counts["cached"] + counts["done"] + counts["failed"]
            total = max(self._total, len(runs))
            throughput = completed / elapsed if elapsed > 0 else 0.0
            eta = self._eta(total, counts, workers)
            busy = sum(w.busy_s for w in workers)
            util: Optional[float] = None
            if workers and elapsed > 0 and busy > 0:
                util = min(1.0, busy / (len(workers) * elapsed))
            return FleetSnapshot(
                total=total, counts=counts, runs=runs, workers=workers,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                frames_done=sum(r.frames_done for r in runs),
                frames_total=sum(r.frames_total for r in runs),
                elapsed_s=elapsed, throughput_runs_per_s=throughput,
                eta_s=eta, utilization=util, finished=self._finished)

    def _eta(self, total: int, counts: Dict[str, int],  # guarded-by: self._lock
             workers: List[WorkerProgress]) -> Optional[float]:
        """Remaining wall seconds for the fleet.

        Event-engine runs extrapolate from completed-run wall times, as
        before.  A running batched run that has reported a frame-wave
        period (``period_s > 0``) is instead extrapolated from its own
        frame progress — jump heartbeats land the skipped waves in
        ``frames_done`` immediately, so the frame fraction tracks real
        progress even when almost all frames are jumped.  With no
        frame-based estimates the formula reduces bit-for-bit to the
        old completed-walls-only one.
        """
        remaining = total - (counts["cached"] + counts["done"]
                             + counts["failed"])
        if remaining <= 0:
            return 0.0 if self._wall_times else None
        now = self._clock()
        frame_based: List[float] = []
        projected_walls: List[float] = []
        for run in self._runs.values():
            if (run.state != "running" or run.period_s <= 0.0
                    or not 0 < run.frames_done < run.frames_total):
                continue
            started = self._run_started.get(run.index)
            if started is None or now <= started:
                continue
            elapsed = now - started
            frame_based.append(
                elapsed * (run.frames_total - run.frames_done)
                / run.frames_done)
            projected_walls.append(
                elapsed * run.frames_total / run.frames_done)
        if not self._wall_times and not frame_based:
            return None
        if self._wall_times:
            mean_wall = sum(self._wall_times) / len(self._wall_times)
        else:
            mean_wall = sum(projected_walls) / len(projected_walls)
        lanes = max(1, len([w for w in workers if w.finished or
                            w.current >= 0]))
        others = remaining - len(frame_based)
        return (sum(frame_based) + others * mean_wall) / lanes
