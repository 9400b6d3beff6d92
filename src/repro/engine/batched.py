"""Batched steady-state engine: frame-wave execution of the pipeline.

The event engine simulates a pipeline run one heap event at a time —
every ``timeout``, resource grant and store hand-off is a push/pop pair.
For the paper's workloads that is mostly wasted motion: after the
warm-up frames fill the pipeline, every stage repeats the *same*
sequence of operations once per frame, at times that advance by one
constant period Δ.  This engine exploits that structure twice:

1. **Coarse operations.**  Each stage runs as a generator of *fused
   programs*: a whole DRAM access (command trip over the mesh, memory
   controller occupancy, payload trip, core-side copy) is one
   precomputed list of ``(resource, hold)`` steps executed in a tight
   loop, instead of ~10 separate heap events.  Resources are plain
   ``free_at`` floats; a grant is ``max(now, free_at)`` — the identical
   arithmetic the event kernel performs via request/release events, so
   uncontended and FIFO-contended timings are reproduced bit-for-bit.

2. **Windowed frame-wave jumps.**  The completion stage (transfer, or
   the lone single-core stage) takes a snapshot every frame: per-stage
   frame counts and anchor deltas, per-store occupancy, per-resource
   ``free_at`` offsets, the newest frames' birth offsets and the last
   period's metric samples (numpy arrays for the vectorised
   closeness checks).  Three snapshots ``k`` frames apart that agree
   *lock* a period ``D`` of ``k`` frames (``k ≤ 8``; ``k = 1`` is the
   plain period ``Δ``, larger ``k`` a super-period such as a transfer
   period alternating between two floats).  The engine then advances
   every clock, heap entry, store item and resource by ``J·D`` in one
   step, synthesises the skipped frames' metrics from the locked
   period, and re-locks from scratch.  Render costs vary per frame
   (the workload carries real per-frame culling statistics, piecewise
   constant over the walkthrough), so each costed stage reports the
   longest *admissible prefix* of its remaining frames — one
   vectorised scan of a per-run cost table — and the jump is the
   ``min`` of those prefixes.  A frame is admissible when its cost is
   bit-equal to the locked pattern's (frame ``f - k``), or, for a
   stage observed *blocked* at its hand-off, when the cost fits inside
   the observed blocking window.  The jump therefore stops just before
   the next cost change the schedule could feel; the engine simulates
   that frame live and jumps again once the phase re-locks.  Runs
   whose phase never becomes periodic simply execute coarsely to the
   end — correct, just without the extra multiple.

Telemetry and tracing do **not** decline: :mod:`repro.engine.telsynth`
re-derives the event engine's span/counter stream from the coarse-op
grant arithmetic (bit-identical floats while executing live) and a wave
jump advances the stream analytically — the captured period becomes a
periodic block on the hub and counters move in closed form, so the jump
stays O(1) regardless of how many frames it skips.

The engine only supports timing-mode runs; payload mode, sanitizers and
sampled power traces decline (see :func:`batched_decline_reason`, keyed
by :data:`BATCHED_DECLINE_REASONS`) and the caller falls back to the
event engine, whose results are then bit-identical by construction.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappush, heappop
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..host import MCPCConfig
from ..pipeline.metrics import RunMetrics, RunResult
from ..scc import SCCChip
from ..scc.topology import NUM_MEMORY_CONTROLLERS, SIF_LOCATION
from ..sim import Simulator, StatAccumulator, TimeSeries
from ..telemetry import Telemetry
from .telsynth import StepMeta, TelemetrySynth, make_synth

__all__ = ["BatchedEngine", "BATCHED_DECLINE_REASONS",
           "batched_decline_code", "batched_decline_reason",
           "try_batched_run"]

#: relative tolerance for "two periods look identical" float comparisons
_RTOL = 1e-9
_ATOL = 1e-12
#: longest super-period (in frames) the detector tries to lock
_MAX_K = 8

Op = Tuple[Any, ...]
Prog = List[Tuple[Optional["_Res"], float, Optional[StepMeta]]]

#: The complete decline surface, keyed by a stable machine-readable code
#: (surfaced in ``repro run --json`` and docs/performance.md).  Tracing
#: and telemetry are deliberately *absent*: telsynth serves both.
BATCHED_DECLINE_REASONS: Dict[str, str] = {
    "payload_mode": "payload mode pushes real pixels through the stages",
    "sanitizers": "runtime sanitizers hook the event kernel",
    "power_trace": "sampled power traces follow event-time DVFS edges",
}


def batched_decline_code(runner: Any) -> Optional[str]:
    """Decline code for this run (a :data:`BATCHED_DECLINE_REASONS` key),
    or None when the batched engine can serve it."""
    if runner.payload_mode:
        return "payload_mode"
    if runner.sanitizers is not None:
        return "sanitizers"
    if runner.power_trace_dt is not None:
        return "power_trace"
    return None


def batched_decline_reason(runner: Any) -> Optional[str]:
    """Why the batched engine cannot serve this run (None = it can).

    Every declined feature needs the full per-event machinery (payload
    arrays through the stages, kernel hooks, event-time DVFS edges); the
    caller falls back to the event engine, which then produces the one
    true — bit-identical — result.
    """
    code = batched_decline_code(runner)
    return None if code is None else BATCHED_DECLINE_REASONS[code]


def try_batched_run(runner: Any) -> Optional[RunResult]:
    """Run ``runner`` on the batched engine, or None to fall back."""
    if batched_decline_reason(runner) is not None:
        return None
    return BatchedEngine(runner).run()


# ---------------------------------------------------------------------------
# primitive state: resources and stores
# ---------------------------------------------------------------------------

class _Res:
    """A FIFO single-server resource as one ``free_at`` float.

    The event kernel's Resource grants a queued request at the exact
    release time of the previous holder; ``grant = max(now, free_at)``
    reproduces that float bit-for-bit.  ``acct`` resources (the memory
    controllers) additionally track busy intervals with the event
    kernel's merge rule: back-to-back queued grants keep one interval
    open, a request arriving at-or-after ``free_at`` closes it.
    """

    __slots__ = ("free_at", "busy_since", "busy_time", "acct",
                 "period_busy")

    def __init__(self, acct: bool = False) -> None:
        self.free_at = 0.0
        self.busy_since: Optional[float] = None
        self.busy_time = 0.0
        self.acct = acct
        #: busy seconds accrued over the last observed steady period
        self.period_busy = 0.0

    def busy_until(self, t: float) -> float:
        """Closed busy time plus the currently open interval up to t."""
        if self.busy_since is None:
            return self.busy_time
        return self.busy_time + (min(t, self.free_at) - self.busy_since)

    def close(self) -> float:
        """Final busy total (closes any open interval at ``free_at``)."""
        if self.busy_since is not None:
            # mirrors the event kernel's single closing add in
            # Resource.release, bit-for-bit
            self.busy_time += self.free_at - self.busy_since
            self.busy_since = None
        return self.busy_time


class _Store:
    """FIFO store with the event kernel's rendezvous wake order."""

    __slots__ = ("capacity", "items", "getters", "putters", "shift")

    def __init__(self, capacity: Optional[int] = None,
                 shift: Optional[Callable[[Any, int], Any]] = None) -> None:
        self.capacity: float = math.inf if capacity is None else capacity
        self.items: deque = deque()
        self.getters: deque = deque()
        self.putters: deque = deque()
        #: renumbers a queued item's frame tag across a wave jump
        self.shift = shift

    def signature(self) -> Tuple[int, int, int]:
        return (len(self.items), len(self.getters), len(self.putters))


class _Chan:
    """Rendezvous state of one ordered (src, dst) core pair — mirrors
    ``repro.rcce.comm._Channel`` (a token store plus a message store)."""

    __slots__ = ("recv_posted", "data_ready", "src", "dst")

    def __init__(self, src: int, dst: int) -> None:
        self.recv_posted = _Store()
        self.data_ready = _Store(
            shift=lambda item, j: (item[0], item[1] + j))
        self.src = src
        self.dst = dst


def _idle_value(t: float, wait_start: float) -> float:
    """The float the MetricsSink would record for this wait.

    The sink receives a span ``(t - seconds, t)`` and records its width
    ``t - (t - seconds)`` — recompute it the same way so the batched
    engine's idle samples equal the event engine's to the last bit.
    """
    seconds = t - wait_start
    return t - (t - seconds)


def admissible_prefix(costs: np.ndarray, start: int, count: int, k: int,
                      window: Optional[float] = None) -> int:
    """How many frames ``start, start+1, …`` (at most ``count``) a jump
    locked on a ``k``-frame period may cover.

    Frame ``f`` is admissible when its cost is bit-equal to frame
    ``f - k``'s — the locked pattern simply continues — or, when the
    stage was observed blocked, when the cost fits ``window`` (the
    schedule waits for the hand-off either way).  The prefix ends at the
    first frame that is neither.
    """
    seg = costs[start:start + count]
    ok = seg == costs[start - k:start - k + seg.size]
    if window is not None:
        ok |= seg <= window
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else int(seg.size)


def _close(a: np.ndarray, b: Any, atol: float) -> np.ndarray:
    """``np.isclose(a, b, rtol=_RTOL, atol=atol)`` without its NaN/inf
    generality (a NaN never matches) — and without its call overhead,
    which dominated the per-frame detector."""
    return np.asarray(np.abs(a - b) <= atol + _RTOL * np.abs(b))


def _replica(i: int, k: int) -> Tuple[int, int]:
    """Skipped item ``i`` (1-based) of a ``k``-frame locked period is
    item ``offset`` (``-k < offset <= 0``, relative to the last observed
    one) repeated ``m`` periods later."""
    m = -(-i // k)
    return i - m * k, m


# ---------------------------------------------------------------------------
# actors: one per pipeline stage
# ---------------------------------------------------------------------------

class _Actor:
    """One stage as a coarse-op generator plus its schedulable state."""

    def __init__(self, eng: "BatchedEngine", key: str, core_id: int) -> None:
        self.eng = eng
        #: metrics base key ("render", "sepia", "transfer", ...)
        self.key = key
        #: telemetry track (the event stage's per-instance key, e.g.
        #: "sepia[0]"); subclasses with suffixed instances override it
        self.span_key = key
        self.core_id = core_id
        self.t = 0.0
        self.frame = 0
        #: op counter since the last anchor (part of the phase signature)
        self.op_i = 0
        self.done = False
        self.resume: Any = None
        #: renumbers ``resume`` across a jump (the shift fn of the store
        #: the pending wake-up value came from)
        self.resume_shift: Optional[Callable[[Any, int], Any]] = None
        self.pending: Any = None
        self.gen: Any = None
        self.anchor_t: Optional[float] = None
        self.prev_anchor_t: Optional[float] = None
        # absolute times a body must never keep in generator locals
        # across a yield — the jump shifts these attributes instead
        self.wait_start: Optional[float] = None
        self.span_start: Optional[float] = None

    def anchor(self) -> None:
        """Mark the top of a frame loop (the periodicity reference)."""
        self.prev_anchor_t = self.anchor_t
        self.anchor_t = self.t
        self.op_i = 0

    def body(self) -> Generator[Op, Any, None]:
        raise NotImplementedError

    # -- jump hooks -------------------------------------------------------
    def shift(self, s: float, j: int) -> None:
        """Advance every absolute time by ``s`` and renumber frames."""
        self.t += s
        for attr in ("wait_start", "span_start", "anchor_t",
                     "prev_anchor_t"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, v + s)
        self.frame += j
        # Frame-tagged values in flight through the scheduler renumber
        # with the jump, exactly like queued store items do:
        if self.resume is not None and self.resume_shift is not None:
            self.resume = self.resume_shift(self.resume, j)
        pend = self.pending
        if pend is not None and pend[0] == 1 and pend[1][0] == "p":
            op = pend[1]
            store: _Store = op[1]
            if store.shift is not None and op[2] is not None:
                self.pending = (1, (op[0], store, store.shift(op[2], j)))

    def max_jump(self, limit: int, delta: float, k: int) -> int:
        """Most frames (``<= limit``) a jump locked on a ``k``-frame
        period of mean frame time ``delta`` may skip for this stage.

        Stages with frame-independent costs never limit the jump; the
        costed stages scan their cost tables.
        """
        return limit

    def synthesize(self, j: int, k: int, period: float) -> None:
        """Record the per-actor side effects of ``j`` skipped frames."""

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.key!r} core={self.core_id} "
                f"t={self.t:.6f} frame={self.frame}>")


def _send_ops(actor: _Actor, chan: _Chan, write_prog: Prog, nbytes: int,
              tag_of: Callable[[], int]) -> Generator[Op, Any, None]:
    """RCCE send: rendezvous token, deposit payload, signal data-ready.

    ``tag_of`` is read at each use point rather than captured by value:
    a wave jump renumbers in-flight frames (``f -> f+j``), and a sender
    parked mid-send must stamp the *renumbered* tag on the message and
    its telemetry, exactly as the event engine (whose stages would be
    ``j`` frames further along) would have.
    """
    synth = actor.eng.synth
    actor.wait_start = actor.t
    yield ("g", chan.recv_posted)
    if synth is not None:
        assert actor.wait_start is not None
        synth.rendezvous(chan.src, chan.dst, actor.wait_start, actor.t,
                         nbytes, tag_of())
    yield ("s", write_prog)
    yield ("p", chan.data_ready, (nbytes, tag_of()))
    if synth is not None:
        synth.delivered(nbytes)


class _FilterActor(_Actor):
    """One silent-film filter on one core of one pipeline."""

    def __init__(self, eng: "BatchedEngine", key: str, span_key: str,
                 core_id: int, in_chan: _Chan, out_chan: _Chan,
                 read_prog: Prog, compute_d: float, write_prog: Prog,
                 nbytes: int) -> None:
        super().__init__(eng, key, core_id)
        self.span_key = span_key
        self.in_chan = in_chan
        self.out_chan = out_chan
        self.read_prog = read_prog
        self.compute_d = compute_d
        self.write_prog = write_prog
        self.nbytes = nbytes
        #: in-flight message (nbytes, tag); the jump renumbers its tag
        self.cur_item: Optional[Tuple[int, int]] = None

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        idle = eng.idle_samples[self.key]
        busy = eng.busy_samples[self.key]
        while self.frame < eng.frames:
            self.anchor()
            # recv: post the token, wait for data, fetch from partition
            yield ("p", self.in_chan.recv_posted, None)
            self.wait_start = self.t
            item = yield ("g", self.in_chan.data_ready)
            self.cur_item = item
            idle.append(_idle_value(self.t, self.wait_start))
            if synth is not None:
                assert self.wait_start is not None
                synth.stage_idle(self.span_key, self.t, self.wait_start)
            yield ("s", self.read_prog)
            self.span_start = self.t
            yield ("d", self.compute_d)
            yield from _send_ops(self, self.out_chan, self.write_prog,
                                 self.nbytes, self._cur_tag)
            busy.append(self.t - self.span_start)
            if synth is not None:
                assert self.span_start is not None
                synth.stage_busy(self.span_key, self.span_start, self.t,
                                 self.cur_item[1])
            self.frame += 1

    def _cur_tag(self) -> int:
        assert self.cur_item is not None
        return self.cur_item[1]

    def shift(self, s: float, j: int) -> None:
        super().shift(s, j)
        if self.cur_item is not None:
            self.cur_item = (self.cur_item[0], self.cur_item[1] + j)


class _TransferActor(_Actor):
    """Collects every pipeline's strip, assembles, ships to the viewer.

    This is the completion stage, so it is also the engine's periodicity
    *trigger*: its frame-loop anchor takes the steady-state snapshot.
    """

    def __init__(self, eng: "BatchedEngine", core_id: int,
                 in_chans: List[_Chan], read_progs: List[Prog],
                 assemble_d: float, downlink_prog: Prog) -> None:
        super().__init__(eng, "transfer", core_id)
        self.in_chans = in_chans
        self.read_progs = read_progs
        self.assemble_d = assemble_d
        self.downlink_prog = downlink_prog

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        idle = eng.idle_samples[self.key]
        busy = eng.busy_samples[self.key]
        n = len(self.in_chans)
        while self.frame < eng.frames:
            self.anchor()
            eng.on_trigger_anchor(self)
            for p in range(n):
                chan = self.in_chans[p]
                yield ("p", chan.recv_posted, None)
                self.wait_start = self.t
                yield ("g", chan.data_ready)
                if p == 0:
                    # Fig. 15 idle counts only the first strip's wait;
                    # later strips' waits are span-only (ignored when
                    # telemetry is off), exactly like TransferStage.
                    idle.append(_idle_value(self.t, self.wait_start))
                    if synth is not None:
                        assert self.wait_start is not None
                        synth.stage_idle(self.span_key, self.t,
                                         self.wait_start)
                elif synth is not None:
                    assert self.wait_start is not None
                    synth.transfer_wait(self.span_key, self.t,
                                        self.wait_start, chan.src)
                yield ("s", self.read_progs[p])
            self.span_start = self.t
            yield ("d", self.assemble_d)
            yield ("s", self.downlink_prog)
            eng.record_completion(self.frame, self.t)
            busy.append(self.t - self.span_start)
            if synth is not None:
                assert self.span_start is not None
                synth.stage_busy(self.span_key, self.span_start, self.t,
                                 self.frame)
            self.frame += 1


class _ConnectActor(_Actor):
    """mcpc_renderer's SCC-side stage: SIF -> partition -> pipelines."""

    def __init__(self, eng: "BatchedEngine", core_id: int, queue: _Store,
                 sif_prog: Prog, compute_d: float, write_own_prog: Prog,
                 out_chans: List[_Chan], write_progs: List[Prog],
                 strip_nbytes: List[int]) -> None:
        super().__init__(eng, "connect", core_id)
        self.queue = queue
        self.sif_prog = sif_prog
        self.compute_d = compute_d
        self.write_own_prog = write_own_prog
        self.out_chans = out_chans
        self.write_progs = write_progs
        self.strip_nbytes = strip_nbytes
        #: in-flight queue item (frame, img); the jump renumbers its frame
        self.cur_item: Optional[Tuple[int, Any]] = None

    def _cur_frame(self) -> int:
        assert self.cur_item is not None
        return self.cur_item[0]

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        idle = eng.idle_samples[self.key]
        busy = eng.busy_samples[self.key]
        n = len(self.out_chans)
        while self.frame < eng.frames:
            self.anchor()
            self.wait_start = self.t
            item = yield ("g", self.queue)
            self.cur_item = item
            idle.append(_idle_value(self.t, self.wait_start))
            if synth is not None:
                assert self.wait_start is not None
                synth.stage_idle(self.span_key, self.t, self.wait_start)
            self.span_start = self.t
            yield ("s", self.sif_prog)
            yield ("d", self.compute_d)
            yield ("s", self.write_own_prog)
            for p in range(n):
                yield from _send_ops(self, self.out_chans[p],
                                     self.write_progs[p],
                                     self.strip_nbytes[p], self._cur_frame)
            busy.append(self.t - self.span_start)
            if synth is not None:
                assert self.span_start is not None
                synth.stage_busy(self.span_key, self.span_start, self.t,
                                 self._cur_frame())
            self.frame += 1

    def shift(self, s: float, j: int) -> None:
        super().shift(s, j)
        if self.cur_item is not None:
            self.cur_item = (self.cur_item[0] + j, self.cur_item[1])


class _CostedActor(_Actor):
    """A stage whose compute cost varies per frame.

    The per-frame costs come from one table built when the body starts
    (a list for the live loop, an array for the admissibility scan).
    Each frame draws its cost at its loop top, before any snapshot can
    see it, so the frame in flight at a lock already carries its cost
    forward: a ``j``-frame jump relabels it ``frame + j`` and must
    admit frames ``frame … frame + j``.
    """

    #: per-frame time after the compute that the blocking window must
    #: also absorb (the MCPC's uplink)
    slack = 0.0

    def __init__(self, eng: "BatchedEngine", key: str, core_id: int) -> None:
        super().__init__(eng, key, core_id)
        self.cost_arr = np.empty(0)
        #: the latest frames' blocking windows: loop top -> hand-off grant
        #: (durations, so jump-safe), None for a frame that was not blocked
        self.windows: deque = deque(maxlen=_MAX_K)

    def _frame_compute(self, frame: int) -> float:
        raise NotImplementedError

    def _cost_table(self) -> List[float]:
        costs = [self._frame_compute(f) for f in range(self.eng.frames)]
        self.cost_arr = np.array(costs)
        return costs

    def max_jump(self, limit: int, delta: float, k: int) -> int:
        # A frame whose compute ends before its hand-off would have been
        # granted leaves the schedule untouched.  Each phase of a
        # super-period has its own window: the last k frames cover them
        # all, and the narrowest bounds every phase.
        recent = list(self.windows)[-k:]
        window: Optional[float] = None
        if len(recent) == k and None not in recent:
            window = min(recent) - self.slack - _RTOL * delta
        return admissible_prefix(self.cost_arr, self.frame, limit + 1, k,
                                 window) - 1


class _SingleRendererActor(_CostedActor):
    """one_renderer's render core: full frame, strip sends to pipelines."""

    def __init__(self, eng: "BatchedEngine", core_id: int, key: str,
                 out_chans: List[_Chan], write_progs: List[Prog],
                 strip_nbytes: List[int]) -> None:
        super().__init__(eng, key, core_id)
        self.out_chans = out_chans
        self.write_progs = write_progs
        self.strip_nbytes = strip_nbytes
        self.first_arr: Optional[float] = None

    def _frame_compute(self, frame: int) -> float:
        eng = self.eng
        return eng.chip.compute_time(
            self.core_id,
            eng.cost.render_seconds(eng.workload.profile(frame)))

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        busy = eng.busy_samples[self.key]
        births = eng.births
        costs = self._cost_table()
        n = len(self.out_chans)
        while self.frame < eng.frames:
            self.anchor()
            self.span_start = self.t
            births.setdefault(self.frame, self.t)
            yield ("d", costs[self.frame])
            self.first_arr = self.t
            for p in range(n):
                chan = self.out_chans[p]
                self.wait_start = self.t
                yield ("g", chan.recv_posted)
                if p == 0:
                    # the downstream token arrives at a pinned period
                    self.windows.append(self.t - self.span_start
                                        if self.t > self.first_arr
                                        else None)
                if synth is not None:
                    assert self.wait_start is not None
                    synth.rendezvous(chan.src, chan.dst, self.wait_start,
                                     self.t, self.strip_nbytes[p],
                                     self.frame)
                yield ("s", self.write_progs[p])
                yield ("p", chan.data_ready,
                       (self.strip_nbytes[p], self.frame))
                if synth is not None:
                    synth.delivered(self.strip_nbytes[p])
            busy.append(self.t - self.span_start)
            if synth is not None:
                assert self.span_start is not None
                synth.stage_busy(self.span_key, self.span_start, self.t,
                                 self.frame)
            self.frame += 1

    def shift(self, s: float, j: int) -> None:
        super().shift(s, j)
        if self.first_arr is not None:
            self.first_arr += s


class _StripRendererActor(_SingleRendererActor):
    """n_renderers' per-pipeline sort-first renderer."""

    def __init__(self, eng: "BatchedEngine", core_id: int, pipeline: int,
                 out_chan: _Chan, write_prog: Prog, nbytes: int) -> None:
        super().__init__(eng, core_id, "render", [out_chan], [write_prog],
                         [nbytes])
        self.pipeline = pipeline
        self.span_key = f"render[{pipeline}]"

    def _frame_compute(self, frame: int) -> float:
        eng = self.eng
        profile = eng.workload.profile(frame, self.pipeline,
                                       eng.num_pipelines)
        return eng.chip.compute_time(
            self.core_id, eng.cost.render_seconds(profile, sort_first=True))


class _MCPCActor(_CostedActor):
    """mcpc_renderer's host process: render, uplink, enqueue."""

    def __init__(self, eng: "BatchedEngine", queue: _Store,
                 uplink_prog: Prog, uplink_seconds: float) -> None:
        super().__init__(eng, "mcpc-render", -1)
        self.queue = queue
        self.uplink_prog = uplink_prog
        #: static uplink occupancy + latency per frame
        self.slack = uplink_seconds
        self.in_compute = False
        self.seg_start: Optional[float] = None
        self.cur_dur = 0.0
        self.post_t: Optional[float] = None
        #: jump-safe loop-top time (start of the host busy span)
        self.loop_top: Optional[float] = None

    def _frame_compute(self, frame: int) -> float:
        eng = self.eng
        return (eng.cost.render_seconds(eng.workload.profile(frame))
                / eng.mcpc_config.speedup_vs_scc_core)

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        births = eng.births
        costs = self._cost_table()
        while self.frame < eng.frames:
            self.anchor()
            top = self.t
            self.loop_top = self.t
            births.setdefault(self.frame, self.t)
            d = costs[self.frame]
            self.seg_start = self.t
            self.cur_dur = d
            self.in_compute = True
            yield ("d", d)
            self.in_compute = False
            # the frame's own cost: a jump may have renamed this compute
            # (its timing absorbed by the blocking window)
            eng.mcpc_segments.append((self.seg_start, costs[self.frame]))
            yield ("s", self.uplink_prog)
            self.post_t = self.t
            yield ("p", self.queue, (self.frame, None))
            if synth is not None:
                assert self.loop_top is not None
                synth.host_busy(self.loop_top, self.t, self.frame)
            # the capacity-2 SIF socket pins the host to the connect
            # stage's period: loop top -> put grant
            self.windows.append(self.t - top if self.t > self.post_t
                                else None)
            self.frame += 1

    def shift(self, s: float, j: int) -> None:
        super().shift(s, j)
        if self.seg_start is not None:
            self.seg_start += s
        if self.post_t is not None:
            self.post_t += s
        if self.loop_top is not None:
            self.loop_top += s

    def synthesize(self, j: int, k: int, period: float) -> None:
        """Power segments for the skipped host frames.

        Each skipped frame's segment starts where the locked period puts
        it and lasts that frame's real render cost.
        """
        segs = self.eng.mcpc_segments
        a0 = self.frame
        assert self.seg_start is not None
        last = j
        if self.in_compute:
            # the pending segment becomes frame a0+j's (shifted later);
            # record frame a0's segment as the event engine would have
            segs.append((self.seg_start, self.cur_dur))
            last = j - 1
        # segs[-1] is frame a0's segment, segs[-1-r] frame a0-r's
        n = len(segs)
        for i in range(1, last + 1):
            offset, m = _replica(i, k)
            segs.append((segs[n - 1 + offset][0] + m * period,
                         self.cost_arr.item(a0 + i)))


class _SingleCoreActor(_CostedActor):
    """The 382 s baseline: one stage, compute then downlink.

    It is also its own completion stage, so it triggers the snapshots —
    right after each frame's compute, where the renderers' in-flight
    frame sits too, so the shared admissibility rule applies unchanged.
    It is never blocked: only the equal-cost rule lets it jump.
    """

    def __init__(self, eng: "BatchedEngine", core_id: int,
                 downlink_prog: Prog) -> None:
        super().__init__(eng, "single-core", core_id)
        self.downlink_prog = downlink_prog

    def _frame_compute(self, frame: int) -> float:
        eng = self.eng
        return eng.chip.compute_time(
            self.core_id,
            eng.cost.single_core_frame_seconds(eng.workload.profile(frame)))

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        busy = eng.busy_samples[self.key]
        births = eng.births
        costs = self._cost_table()
        while self.frame < eng.frames:
            self.anchor()
            self.span_start = self.t
            births.setdefault(self.frame, self.t)
            yield ("d", costs[self.frame])
            eng.on_trigger_anchor(self)
            yield ("s", self.downlink_prog)
            eng.record_completion(self.frame, self.t)
            busy.append(self.t - self.span_start)
            if synth is not None:
                assert self.span_start is not None
                synth.stage_busy(self.span_key, self.span_start, self.t,
                                 self.frame)
            self.frame += 1


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

class _Snapshot:
    """Phase signature of the run at one completion-stage snapshot."""

    __slots__ = ("T", "frames", "ops", "deltas", "stores", "res_off",
                 "birth_off", "mc_busy", "lens", "tel")

    def __init__(self, T: float, frames: Tuple[int, ...],
                 ops: Tuple[int, ...], deltas: np.ndarray,
                 stores: Tuple[Tuple[int, int, int], ...],
                 res_off: np.ndarray, birth_off: np.ndarray,
                 mc_busy: np.ndarray, lens: Dict[Tuple[str, str], int],
                 tel: Optional[Any] = None) -> None:
        self.T = T
        self.frames = frames
        self.ops = ops
        self.deltas = deltas
        self.stores = stores
        self.res_off = res_off
        #: the newest births relative to T (NaN = none): a jump continues
        #: their pattern past the head frame, so they must repeat too
        self.birth_off = birth_off
        self.mc_busy = mc_busy
        self.lens = lens
        #: telsynth phase signature (event count + counter/gauge state)
        self.tel = tel


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class BatchedEngine:
    """Coarse-op scheduler with steady-state frame-wave jumps.

    Construction mirrors ``PipelineRunner.run``'s build phase (same
    placement, same frequency-plan application, same stage order) and
    ``run()`` returns the same :class:`RunResult` the event engine
    would, within the committed ``repro diff`` tolerances.
    """

    def __init__(self, runner: Any) -> None:
        self.runner = runner
        self.frames: int = runner.frames
        self.workload = runner.workload
        self.cost = runner.cost
        self.mcpc_config: MCPCConfig = runner.mcpc_config or MCPCConfig()
        self.sim = Simulator()
        #: telemetry synthesis (None on the plain fast path); full-detail
        #: synthesis also hands the hub to the chip so DVFS/power emit
        #: their usual events from the real frequency-plan/power calls
        self.synth: Optional[TelemetrySynth] = make_synth(runner)
        self._step_synth: Optional[TelemetrySynth] = (
            self.synth if self.synth is not None and self.synth.detail
            else None)
        self.chip = SCCChip(
            self.sim, runner.chip_config,
            telemetry=(self.synth.hub if self._step_synth is not None
                       else None))
        self._active_cores: List[int] = []
        self.heap: List[Tuple[float, int, _Actor]] = []
        self._seq = 0
        self.actors: List[_Actor] = []
        self.stores: List[_Store] = []
        self._link_res: Dict[int, _Res] = {}
        self._mc_res: List[_Res] = [_Res(acct=True)
                                    for _ in range(NUM_MEMORY_CONTROLLERS)]
        self._all_res: List[_Res] = list(self._mc_res)
        self._chans: Dict[Tuple[int, int], _Chan] = {}
        self.idle_samples: Dict[str, List[float]] = {}
        self.busy_samples: Dict[str, List[float]] = {}
        self.births: Dict[int, float] = {}
        self.completions: List[Tuple[int, float]] = []
        self.latency_samples: List[float] = []
        self.mcpc_segments: List[Tuple[float, float]] = []
        self.end_time = 0.0
        #: jump bookkeeping (exposed for tests/benchmarks): one
        #: ``(trigger frame, frames skipped, locked period)`` per jump,
        #: and the locked period's length in frames (1 = plain Δ)
        self.jumps: List[Tuple[int, int, float]] = []
        self.strides: List[int] = []
        self.frames_simulated = 0
        #: the last 2·_MAX_K + 1 snapshots, oldest first
        self._hist: deque = deque(maxlen=2 * _MAX_K + 1)
        self._build()

    # -- program construction ---------------------------------------------
    def _link(self, link: Any) -> _Res:
        res = self._link_res.get(id(link))
        if res is None:
            res = self._link_res[id(link)] = _Res()
            self._all_res.append(res)
        return res

    def _new_res(self) -> _Res:
        res = _Res()
        self._all_res.append(res)
        return res

    def _mesh_prog(self, src: Any, dst: Any, nbytes: int,
                   core: Optional[int] = None) -> Prog:
        mesh = self.chip.mesh
        cfg = mesh.config
        route = mesh._route(src, dst)
        hold = nbytes / cfg.link_bandwidth + cfg.hop_latency_s
        # Step metadata is only consumed by detail synthesis; skip the
        # per-step tuple allocations on the plain fast path.
        detail = self._step_synth is not None
        if not route:
            return [(None, cfg.hop_latency_s,
                     ("mesh", nbytes) if detail else None)]
        if not cfg.model_contention:
            return [(None, len(route) * hold,
                     ("mesh", nbytes) if detail else None)]
        if not detail:
            return [(self._link(link), hold, None) for link in route]
        # The head step carries the transfer-entry counters; every link
        # step emits its own per-link counters and queue/xfer spans.
        return [(self._link(link), hold,
                 ("link", link.tag, nbytes, core, i == 0))
                for i, link in enumerate(route)]

    def _coord(self, core_id: int) -> Any:
        return self.chip.topology.core(core_id).coord

    def _dram_prog(self, acting: int, owner: int, nbytes: int,
                   inbound: bool) -> Prog:
        cfg = self.chip.memory.config
        if nbytes == 0:
            return []
        cc = self._coord(acting)
        mc = self.chip.memory.controller_of(owner)
        prog = self._mesh_prog(cc, mc.coord, cfg.command_bytes,
                               core=acting)
        service = cfg.mc_latency_s + nbytes / cfg.mc_bandwidth
        prog.append((self._mc_res[mc.index], service,
                     ("mc", mc.index, acting, nbytes, inbound)
                     if self._step_synth is not None else None))
        if inbound:
            prog.extend(self._mesh_prog(mc.coord, cc, nbytes, core=acting))
        else:
            prog.extend(self._mesh_prog(cc, mc.coord, nbytes, core=acting))
        prog.append((None, nbytes / cfg.core_copy_bandwidth, None))
        return prog

    def _read_own_prog(self, core: int, nbytes: int) -> Prog:
        cfg = self.chip.memory.config
        if cfg.local_memory:
            return [(None, nbytes / cfg.local_bandwidth, None)]
        return self._dram_prog(core, core, nbytes, True)

    def _write_own_prog(self, core: int, nbytes: int) -> Prog:
        cfg = self.chip.memory.config
        if cfg.local_memory:
            return [(None, nbytes / cfg.local_bandwidth, None)]
        return self._dram_prog(core, core, nbytes, False)

    def _write_to_prog(self, src: int, dst: int, nbytes: int) -> Prog:
        cfg = self.chip.memory.config
        if cfg.local_memory:
            prog = self._mesh_prog(self._coord(src), self._coord(dst),
                                   nbytes, core=src)
            prog.append((None, nbytes / cfg.local_bandwidth, None))
            return prog
        return self._dram_prog(src, dst, nbytes, False)

    def _udp_prog(self, res: _Res, cfg: Any, nbytes: int) -> Prog:
        frags = 0 if nbytes == 0 else math.ceil(nbytes / cfg.mtu_payload)
        hold = nbytes / cfg.bandwidth + frags * cfg.per_datagram_overhead
        prog: Prog = []
        if hold > 0.0:
            prog.append((res, hold, None))
        prog.append((None, cfg.latency_s, None))
        return prog

    def _chan(self, src: int, dst: int) -> _Chan:
        chan = self._chans.get((src, dst))
        if chan is None:
            chan = self._chans[(src, dst)] = _Chan(src, dst)
            self.stores.append(chan.recv_posted)
            self.stores.append(chan.data_ready)
        return chan

    def _samples_for(self, key: str) -> None:
        self.idle_samples.setdefault(key, [])
        self.busy_samples.setdefault(key, [])

    # -- build ------------------------------------------------------------
    def _build(self) -> None:
        from ..pipeline.runner import DOWNLINK_CONFIG

        runner = self.runner
        placement = runner._build_placement()
        self.placement = placement
        wl = self.workload
        chip = self.chip
        cost = self.cost
        downlink_res = self._new_res()
        frame_bytes = wl.frame_bytes()

        if runner.config == "single_core":
            core = placement.input_cores[0]
            active_cores = [core]
            runner._stage_cores = {"single-core": [core]}
            runner._apply_frequency_plan(chip, active_cores)
            chip.power.set_cores_active(active_cores, True)
            self.num_pipelines = 1
            self._samples_for("single-core")
            single = _SingleCoreActor(
                self, core,
                self._udp_prog(downlink_res, DOWNLINK_CONFIG, frame_bytes))
            self.actors = [single]
            self.trigger = single
        else:
            n = placement.num_pipelines
            self.num_pipelines = n
            active_cores = placement.all_cores()
            first_filters = [chain[0] for chain in placement.filter_cores]
            last_filters = [chain[-1] for chain in placement.filter_cores]
            strip_nbytes = [wl.strip_bytes(p, n) for p in range(n)]
            tcore = placement.transfer_core

            # Stage-key -> cores map in the runner's stage order, then
            # the frequency plan, *then* the compute services below —
            # chip.compute_time must see the planned clocks.
            actors: List[_Actor] = []
            stage_cores: Dict[str, List[int]] = {}

            def _note(key: str, core_id: int) -> None:
                stage_cores.setdefault(key, []).append(core_id)

            from ..pipeline.runner import FILTER_KEYS

            if runner.config == "one_renderer":
                _note("render", placement.input_cores[0])
                prev_of_first = [placement.input_cores[0]] * n
            elif runner.config == "n_renderers":
                for p in range(n):
                    _note("render", placement.input_cores[p])
                prev_of_first = list(placement.input_cores)
            else:  # mcpc_renderer
                _note("connect", placement.input_cores[0])
                prev_of_first = [placement.input_cores[0]] * n
            for chain in placement.filter_cores:
                for j, key in enumerate(FILTER_KEYS):
                    _note(key, chain[j])
            _note("transfer", tcore)
            runner._stage_cores = stage_cores
            runner._apply_frequency_plan(chip, active_cores)
            chip.power.set_cores_active(active_cores, True)

            if runner.config == "one_renderer":
                rcore = placement.input_cores[0]
                self._samples_for("render")
                actors.append(_SingleRendererActor(
                    self, rcore, "render",
                    [self._chan(rcore, dst) for dst in first_filters],
                    [self._write_to_prog(rcore, dst, strip_nbytes[p])
                     for p, dst in enumerate(first_filters)],
                    strip_nbytes))
            elif runner.config == "n_renderers":
                self._samples_for("render")
                for p in range(n):
                    rcore = placement.input_cores[p]
                    actors.append(_StripRendererActor(
                        self, rcore, p,
                        self._chan(rcore, first_filters[p]),
                        self._write_to_prog(rcore, first_filters[p],
                                            strip_nbytes[p]),
                        strip_nbytes[p]))
            else:  # mcpc_renderer
                ccore = placement.input_cores[0]
                queue = _Store(capacity=2,
                               shift=lambda item, j: (item[0] + j, item[1]))
                self.stores.append(queue)
                uplink_cfg = self.mcpc_config.udp
                uplink_res = self._new_res()
                datagrams = (0 if frame_bytes == 0 else
                             math.ceil(frame_bytes / uplink_cfg.mtu_payload))
                self._samples_for("connect")
                actors.append(_ConnectActor(
                    self, ccore, queue,
                    self._mesh_prog(SIF_LOCATION, self._coord(ccore),
                                    frame_bytes, core=ccore),
                    chip.compute_time(ccore,
                                      cost.connect_seconds(datagrams, n)),
                    self._write_own_prog(ccore, frame_bytes),
                    [self._chan(ccore, dst) for dst in first_filters],
                    [self._write_to_prog(ccore, dst, strip_nbytes[p])
                     for p, dst in enumerate(first_filters)],
                    strip_nbytes))
                uplink_hold = (frame_bytes / uplink_cfg.bandwidth
                               + datagrams * uplink_cfg.per_datagram_overhead)
                self._mcpc = _MCPCActor(
                    self, queue,
                    self._udp_prog(uplink_res, uplink_cfg, frame_bytes),
                    uplink_hold + uplink_cfg.latency_s)

            for p, chain in enumerate(placement.filter_cores):
                pixels = wl.viewport(p, n).pixels
                for j, key in enumerate(FILTER_KEYS):
                    core_id = chain[j]
                    prev_core = prev_of_first[p] if j == 0 else chain[j - 1]
                    next_core = (tcore if j == len(FILTER_KEYS) - 1
                                 else chain[j + 1])
                    self._samples_for(key)
                    actors.append(_FilterActor(
                        self, key, f"{key}[{p}]", core_id,
                        self._chan(prev_core, core_id),
                        self._chan(core_id, next_core),
                        self._read_own_prog(core_id, strip_nbytes[p]),
                        chip.compute_time(core_id,
                                          cost.filter_seconds(key, pixels)),
                        self._write_to_prog(core_id, next_core,
                                            strip_nbytes[p]),
                        strip_nbytes[p]))

            self._samples_for("transfer")
            transfer = _TransferActor(
                self, tcore,
                [self._chan(src, tcore) for src in last_filters],
                [self._read_own_prog(tcore, strip_nbytes[p])
                 for p in range(n)],
                chip.compute_time(tcore,
                                  cost.assemble_seconds(wl.image_side ** 2)),
                self._udp_prog(downlink_res, DOWNLINK_CONFIG, frame_bytes))
            actors.append(transfer)
            if runner.config == "mcpc_renderer":
                actors.append(self._mcpc)
            self.actors = actors
            self.trigger = transfer

        self._active_cores = active_cores
        synth = self.synth
        if synth is not None:
            # Track -> core bindings in the runner's stage-start order
            # (the host process never binds, exactly like the event path)
            for actor in self.actors:
                if actor.core_id >= 0:
                    synth.bind(actor.span_key, actor.core_id, self.sim.now)

    # -- scheduler ---------------------------------------------------------
    def _push(self, t: float, actor: _Actor) -> None:
        heappush(self.heap, (t, self._seq, actor))
        self._seq += 1

    def _run_prog(self, actor: _Actor, prog: Prog, i: int) -> bool:
        """Execute a fused step program; False = reparked mid-program.

        Two bodies, one grant discipline: the plain loop is the hot path
        (no synthesis, no per-step branches beyond the kernel's own);
        the synth loop adds the ``synth.step`` emissions.  Any change to
        the grant/hold arithmetic must land in BOTH loops — the
        differential suite will catch a drift, but keep them in sync.
        """
        heap = self.heap
        synth = self._step_synth
        t = actor.t
        n = len(prog)
        if synth is None:
            while i < n:
                res, hold, _ = prog[i]
                if res is None:
                    t += hold
                else:
                    if heap and t > heap[0][0]:
                        actor.t = t
                        actor.pending = (0, prog, i)
                        self._push(t, actor)
                        return False
                    fa = res.free_at
                    if t < fa:
                        grant = fa
                    else:
                        if res.acct:
                            bs = res.busy_since
                            if bs is not None:
                                res.busy_time += fa - bs  # lint: disable=DET007
                            res.busy_since = t
                        grant = t
                    t = grant + hold
                    res.free_at = t
                i += 1
            actor.t = t
            return True
        while i < n:
            res, hold, meta = prog[i]
            if res is None:
                nt = t + hold
                if meta is not None:
                    synth.step(meta, t, t, nt)
                t = nt
            else:
                if heap and t > heap[0][0]:
                    actor.t = t
                    actor.pending = (0, prog, i)
                    self._push(t, actor)
                    return False
                fa = res.free_at
                if t < fa:
                    # queued behind the current holder: granted at the
                    # exact release float, interval stays open
                    grant = fa
                else:
                    if res.acct:
                        bs = res.busy_since
                        if bs is not None:
                            # the event kernel's interval-close add,
                            # reproduced bit-for-bit:
                            res.busy_time += fa - bs  # lint: disable=DET007
                        res.busy_since = t
                    grant = t
                nt = grant + hold
                res.free_at = nt
                if meta is not None:
                    synth.step(meta, t, grant, nt)
                t = nt
            i += 1
        actor.t = t
        return True

    def _drive(self, actor: _Actor) -> None:
        heap = self.heap
        gen = actor.gen
        val = actor.resume
        actor.resume = None
        actor.resume_shift = None
        op: Optional[Op] = None
        pend = actor.pending
        if pend is not None:
            actor.pending = None
            if pend[0] == 0:
                if not self._run_prog(actor, pend[1], pend[2]):
                    return
            elif pend[0] == 1:
                op = pend[1]
            # pend[0] == 2: plain continue
        while True:
            if op is None:
                try:
                    op = gen.send(val)
                except StopIteration:
                    actor.done = True
                    if actor.t > self.end_time:
                        self.end_time = actor.t
                    return
                val = None
                actor.op_i += 1
            kind = op[0]
            if kind == "d":
                actor.t += op[1]
                op = None
                if heap and actor.t > heap[0][0]:
                    actor.pending = (2,)
                    self._push(actor.t, actor)
                    return
            elif kind == "s":
                if not self._run_prog(actor, op[1], 0):
                    return
                op = None
                if heap and actor.t > heap[0][0]:
                    actor.pending = (2,)
                    self._push(actor.t, actor)
                    return
            elif kind == "g":
                if heap and actor.t > heap[0][0]:
                    actor.pending = (1, op)
                    self._push(actor.t, actor)
                    return
                store = op[1]
                if store.items:
                    val = store.items.popleft()
                    while (store.putters
                           and len(store.items) < store.capacity):
                        p_actor, item = store.putters.popleft()
                        store.items.append(item)
                        p_actor.pending = (2,)
                        self._push(actor.t, p_actor)
                    op = None
                else:
                    store.getters.append(actor)
                    return
            elif kind == "p":
                if heap and actor.t > heap[0][0]:
                    actor.pending = (1, op)
                    self._push(actor.t, actor)
                    return
                store = op[1]
                if len(store.items) < store.capacity:
                    if store.getters:
                        getter = store.getters.popleft()
                        getter.resume = op[2]
                        getter.resume_shift = store.shift
                        # the event kernel resumes the woken receiver
                        # before the sender continues — same order here
                        self._push(actor.t, getter)
                        actor.pending = (2,)
                        self._push(actor.t, actor)
                        return
                    store.items.append(op[2])
                    op = None
                else:
                    store.putters.append((actor, op[2]))
                    return
            else:  # pragma: no cover - op vocabulary is closed
                raise AssertionError(f"unknown op {op!r}")

    def _run_loop(self) -> None:
        for actor in self.actors:
            actor.gen = actor.body()
            self._push(0.0, actor)
        heap = self.heap
        while heap:
            t, _, actor = heappop(heap)
            actor.t = t
            self._drive(actor)
        stuck = [a for a in self.actors if not a.done]
        if stuck:  # pragma: no cover - would mirror an event deadlock
            raise RuntimeError(f"batched engine deadlock: {stuck}")

    # -- metric recording --------------------------------------------------
    def record_completion(self, frame: int, t: float) -> None:
        self.completions.append((frame, t))
        birth = self.births.get(frame)
        if birth is not None:
            self.latency_samples.append(t - birth)

    # -- steady-state detection -------------------------------------------
    def _snapshot(self, trig: _Actor) -> _Snapshot:
        T = trig.t
        frames = tuple(a.frame for a in self.actors)
        ops = tuple(a.op_i for a in self.actors)
        deltas = np.array([(a.anchor_t - a.prev_anchor_t)
                           if (a.anchor_t is not None
                               and a.prev_anchor_t is not None)
                           else np.nan
                           for a in self.actors])
        stores = tuple(s.signature() for s in self.stores)
        res_off = np.array([r.free_at - T for r in self._all_res])
        births = self.births
        head = max(frames)
        birth_off = np.array([births.get(f, np.nan) - T
                              for f in range(head - _MAX_K + 1, head + 1)])
        mc_busy = np.array([r.busy_until(T) for r in self._mc_res])
        lens = {("i", k): len(v) for k, v in self.idle_samples.items()}
        lens.update({("b", k): len(v)
                     for k, v in self.busy_samples.items()})
        tel = self.synth.phase_sig() if self.synth is not None else None
        return _Snapshot(T, frames, ops, deltas, stores, res_off, birth_off,
                         mc_busy, lens, tel)

    def _slices_match(self, snap: _Snapshot, prev: _Snapshot,
                      prev2: _Snapshot) -> bool:
        for tag, samples in (("i", self.idle_samples),
                             ("b", self.busy_samples)):
            for key, lst in samples.items():
                k = (tag, key)
                l2, l1, l0 = prev2.lens[k], prev.lens[k], snap.lens[k]
                if l0 - l1 != l1 - l2:
                    return False
                # a period's slice is a handful of floats: plain Python
                # beats numpy's per-call overhead here
                for a, b in zip(lst[l1:l0], lst[l2:l1]):
                    if abs(a - b) > _ATOL + _RTOL * abs(b):
                        return False
        return True

    def _steady(self, snap: _Snapshot, prev: _Snapshot, prev2: _Snapshot,
                k: int) -> Optional[float]:
        """Locked period ``D`` when three snapshots ``k`` frames apart
        agree, else None."""
        delta = snap.T - prev.T
        if delta <= 0.0 or not math.isclose(prev.T - prev2.T, delta,
                                            rel_tol=_RTOL, abs_tol=_ATOL):
            return None
        for new, old in ((snap, prev), (prev, prev2)):
            if any(nf - of != k for nf, of in zip(new.frames, old.frames)):
                return None
        if snap.ops != prev.ops or prev.ops != prev2.ops:
            return None
        atol = _ATOL * max(1.0, delta)
        # every stage's last frame took Δ (k = 1), or the per-frame
        # spacings repeat with the super-period (k > 1)
        spacing = delta if k == 1 else prev.deltas
        if not _close(snap.deltas, spacing, atol).all():
            return None
        if snap.stores != prev.stores:
            return None
        # resources either repeat their phase offset or are long idle
        off_ok = (_close(snap.res_off, prev.res_off, atol)
                  | ((snap.res_off < -delta) & (prev.res_off < -delta)))
        if not off_ok.all():
            return None
        if not _close(snap.birth_off[-k:], prev.birth_off[-k:], atol).all():
            return None
        if not self._slices_match(snap, prev, prev2):
            return None
        if self.synth is not None and not TelemetrySynth.periodic_ok(
                prev2.tel, prev.tel, snap.tel):
            # the telemetry stream itself must repeat before its period
            # can be captured and replayed symbolically
            return None
        return delta

    def on_trigger_anchor(self, trig: _Actor) -> None:
        self.frames_simulated += 1
        snap = self._snapshot(trig)
        hist = self._hist
        hist.append(snap)
        if any(a.done for a in self.actors):
            return
        period: Optional[float] = None
        for k in range(1, _MAX_K + 1):
            if len(hist) < 2 * k + 1:
                return
            period = self._steady(snap, hist[-1 - k], hist[-1 - 2 * k], k)
            if period is not None:
                break
        if period is None:
            return
        # the windowed jump: every stage's longest admissible prefix
        j = min(self.frames - 1 - a.frame for a in self.actors)
        for a in self.actors:
            j = a.max_jump(j, period / k, k)
            if j < max(2, k):
                return
        self._jump(trig, j // k, k, period, snap, hist[-1 - k])

    # -- the wave jump ----------------------------------------------------
    def _jump(self, trig: _Actor, waves: int, k: int, period: float,
              snap: _Snapshot, prev: _Snapshot) -> None:
        """Advance the whole run by ``waves`` locked periods of ``k``
        frames each, ``prev`` being the snapshot one period back."""
        j = waves * k
        s = waves * period
        self.jumps.append((trig.frame, j, period))
        self.strides.append(k)

        # 1. repeat the locked period's metric samples
        for tag, samples in (("i", self.idle_samples),
                             ("b", self.busy_samples)):
            for key, lst in samples.items():
                lk = (tag, key)
                sl = lst[prev.lens[lk]:snap.lens[lk]]
                if sl:
                    lst.extend(sl * waves)

        # 2. actor-specific synthesis (MCPC power segments)
        for a in self.actors:
            a.synthesize(j, k, period)

        # 3. births: frames up to the head frame keep the times they
        # were really born at; every frame past it — skipped, or renamed
        # in flight — continues the locked pattern of the newest births
        births = self.births
        head = max(a.frame for a in self.actors)
        for f in range(head + 1, head + j + 1):
            offset, m = _replica(f - head, k)
            births[f] = births[head + offset] + m * period

        # 4. completions + latencies of the skipped frames
        done = self.completions
        last_f = done[-1][0]
        n = len(done)
        for i in range(1, j + 1):
            offset, m = _replica(i, k)
            f = last_f + i
            t = done[n - 1 + offset][1] + m * period
            done.append((f, t))
            birth = births.get(f)
            if birth is not None:
                self.latency_samples.append(t - birth)

        # 5. resources: accrue the skipped busy time, shift the clocks
        mc_accrued = snap.mc_busy - prev.mc_busy
        for r, accrued in zip(self._mc_res, mc_accrued):
            for _ in range(waves):
                # one add per skipped period, mirroring the event
                # kernel's per-period interval closes bit-for-bit:
                r.busy_time += float(accrued)  # lint: disable=DET007
        for r in self._all_res:
            r.free_at += s
            if r.busy_since is not None:
                # a clock shift on each distinct resource, not a
                # running sum — one add per jump, same as free_at:
                r.busy_since += s  # lint: disable=DET007

        # 6. shift every clock: actors, heap entries, queued store items
        for a in self.actors:
            a.shift(s, j)
        # In place: _drive/_run_prog hold references to this very list.
        self.heap[:] = [(t + s, seq, a) for (t, seq, a) in self.heap]
        heapify(self.heap)
        for store in self.stores:
            if store.shift is not None and store.items:
                store.items = deque(store.shift(item, j)
                                    for item in store.items)
            if store.shift is not None and store.putters:
                store.putters = deque((a, store.shift(item, j))
                                      for a, item in store.putters)

        # 7. telemetry: register the captured period as a periodic block,
        # advance counters in closed form, mark the wave for live sinks
        if self.synth is not None:
            assert prev.tel is not None and snap.tel is not None
            self.synth.jump(waves, period, prev.tel, snap.tel, trig.t,
                            stride=k)

        # re-lock from scratch: the jump stopped short of a cost change
        self._hist.clear()

    # -- result assembly ---------------------------------------------------
    def run(self) -> RunResult:
        runner = self.runner
        self._run_loop()
        end = self.end_time
        if self._step_synth is not None:
            # mirror the event path's teardown: advance the kernel clock
            # to the finish line and power the cores back down, so the
            # power gauge, trace point and closing sample land at the
            # same instant the event engine records them
            self.sim.run(until=end)
            self.chip.power.set_cores_active(self._active_cores, False)

        metrics = RunMetrics()
        metrics.frame_birth = dict(self.births)
        # what record_idle/record_busy would build sample by sample (same
        # keys, same order, same running sums), without the per-sample
        # call and accumulator construction that dominated jumped runs
        for accs, samples in ((metrics.idle, self.idle_samples),
                              (metrics.busy, self.busy_samples)):
            for key, vals in samples.items():
                if not vals:
                    continue
                if min(vals) < 0:
                    raise ValueError(f"{key}: negative stage time")
                acc = accs[key] = StatAccumulator(key)
                acc.extend(vals)
        metrics.frame_completions = list(self.completions)
        metrics.latency.extend(self.latency_samples)

        mcfg = self.mcpc_config
        mcpc_trace = TimeSeries("mcpc_power", initial=mcfg.power_idle_w)
        for start, dur in self.mcpc_segments:
            mcpc_trace.record(start, mcfg.power_render_w)
            mcpc_trace.record(start + dur, mcfg.power_idle_w)
        mcpc_energy = (mcpc_trace.integrate(0.0, end)
                       - mcfg.power_idle_w * (end - 0.0))

        mc_utils = [(r.close() / end if end > 0 else 0.0)
                    for r in self._mc_res]

        runner.last_metrics = metrics
        runner.last_chip = self.chip
        runner.last_viewer = None
        runner.last_trace = (self.synth.build_trace()
                             if self.synth is not None and runner.trace
                             else None)
        runner.last_telemetry = runner.telemetry or Telemetry(enabled=False)

        chip = self.chip
        placement = self.placement
        busy_means = {key: acc.mean for key, acc in metrics.busy.items()}
        return RunResult(
            config=runner.config,
            arrangement=placement.arrangement,
            pipelines=(placement.num_pipelines
                       if runner.config != "single_core" else 0),
            frames=self.frames,
            walkthrough_seconds=end,
            cores_used=(1 if runner.config == "single_core"
                        else placement.cores_used),
            scc_energy_j=chip.power.energy(0.0, end),
            scc_avg_power_w=chip.power.average_power(0.0, end),
            mcpc_energy_above_idle_j=mcpc_energy,
            idle_quartiles=metrics.idle_quartiles(),
            busy_means=busy_means,
            mc_utilizations=mc_utils,
            power_trace=[],
            latency_quartiles=(metrics.latency.quartiles()
                               if len(metrics.latency) else None),
        )
