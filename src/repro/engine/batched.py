"""Batched steady-state engine: frame-wave execution of the pipeline.

The event engine simulates a pipeline run one heap event at a time —
every ``timeout``, resource grant and store hand-off is a push/pop pair.
For the paper's workloads that is mostly wasted motion: after the
warm-up frames fill the pipeline, every stage repeats the *same*
sequence of operations once per frame, at times that advance by one
constant period Δ.  This engine exploits that structure twice:

1. **Coarse operations.**  Each stage node's op program (the stage
   graph's, :mod:`repro.pipeline.describe`) compiles to a generator of
   coarse ops, and one scheduler loop executes them in place: a
   compute, a store get or put, a *fused program* — a whole DRAM
   access (command trip over the mesh, memory controller occupancy,
   payload trip, core-side copy) is one precomputed list of
   ``(resource, hold)`` steps instead of ~10 separate heap events —
   and the compound RCCE send (token wait, write program, data-ready
   put).  Resources are
   plain ``free_at`` floats; a grant is ``max(now, free_at)`` — the
   identical arithmetic the event kernel performs via request/release
   events, so uncontended and FIFO-contended timings are reproduced
   bit-for-bit.

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

Telemetry and Gantt charts do **not** decline: :mod:`repro.engine.telsynth`
re-derives the event engine's span/counter stream from the coarse-op
grant arithmetic (bit-identical floats while executing live), and a wave
jump advances the stream analytically — the captured period becomes a
periodic block on the hub and counters move in closed form, so the jump
stays O(1) regardless of how many frames it skips.  The same scheduler
loop serves plain and telemetry runs: a program step emits only when it
carries metadata, which only detail synthesis builds.  Telemetry never
changes a scheduling decision.

Why frames were not jumped is counted in :attr:`BatchedEngine.lock_misses`.

Pixels never enter either engine: the film is a pure function of the
workload and seed (:func:`repro.pipeline.film.render_film`).  Sanitizers
and sampled power traces decline (see :func:`batched_decline_reason`,
keyed by :data:`BATCHED_DECLINE_REASONS`) and the caller falls back to
the event engine, whose results are then bit-identical by construction.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from heapq import heapify, heappush, heappop
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..host import MCPCConfig
from ..pipeline.describe import PER_FRAME_COSTS
from ..pipeline.metrics import RunMetrics, RunResult
from ..pipeline.stage import compute_cost
from ..scc import SCCChip
from ..scc.topology import NUM_MEMORY_CONTROLLERS, SIF_LOCATION
from ..sim import Simulator, TimeSeries
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
#: (surfaced in ``repro run --json`` and docs/performance.md).  Telemetry
#: (and so the Gantt chart) is deliberately *absent*: telsynth serves it.
BATCHED_DECLINE_REASONS: Dict[str, str] = {
    "sanitizers": ("runtime sanitizers hook the RCCE/MPB model, which "
                   "only the event engine runs"),
    "power_trace": "sampled power traces follow event-time DVFS edges",
}


def batched_decline_code(runner: Any) -> Optional[str]:
    """Decline code for this run (a :data:`BATCHED_DECLINE_REASONS` key),
    or None when the batched engine can serve it."""
    if runner.sanitizers is not None:
        return "sanitizers"
    if runner.power_trace_dt is not None:
        return "power_trace"
    return None


def batched_decline_reason(runner: Any) -> Optional[str]:
    """Why the batched engine cannot serve this run (None = it can).

    Every declined feature needs the full per-event machinery (kernel
    hooks, event-time DVFS edges); the
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


def _shift_tag(item: Tuple[Any, int], j: int) -> Tuple[Any, int]:
    """Renumber a frame-carrying store item ``(bytes, tag)`` by ``j``."""
    return (item[0], item[1] + j)


class _Chan:
    """Rendezvous state of one ordered (src, dst) core pair — mirrors
    ``repro.rcce.comm._Channel`` (a token store plus a message store)."""

    __slots__ = ("recv_posted", "data_ready", "src", "dst")

    def __init__(self, src: int, dst: int) -> None:
        self.recv_posted = _Store()
        self.data_ready = _Store(shift=_shift_tag)
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
# the actor: one per stage node
# ---------------------------------------------------------------------------

def _send_op(chan: _Chan, write_prog: Prog, nbytes: int) -> Op:
    """The compound RCCE send: rendezvous token, deposit payload, signal
    data-ready.

    The scheduler loop runs it in place as its three phases (see
    :meth:`BatchedEngine._run_loop`).  The message carries the sender's
    ``tag``, read when the message is stamped rather than when the send
    starts: a wave jump renumbers in-flight frames (``f -> f+j``), and a
    sender parked mid-send must stamp the *renumbered* tag on the message
    and its telemetry, exactly as the event engine (whose stages would be
    ``j`` frames further along) would have.
    """
    return ("x", ("g", chan.recv_posted), ("s", write_prog), chan, nbytes)


class _Actor:
    """One stage node's compiled op program as a coarse-op generator,
    plus its schedulable state.

    ``steps`` is the program compiled by :meth:`BatchedEngine._compile`:
    one ``(kind, op, src, first)`` per stage op, ``op`` being what the
    body yields (for an input, ``recv`` or ``get``, its post/wait/read
    triple), ``src`` an input's source and ``first`` whether it is the
    first input.  The
    bookkeeping follows the program's shape, as in the event interpreter
    (:class:`repro.pipeline.stage.Stage`): the first input's wait is
    idle, busy runs from the last input to the frame's end, inputs set
    the tag.  Two more step kinds carry the jump rules: ``trigger``
    (the completion stage's snapshot) and the ``hand-send`` /
    ``hand-put`` that closes a per-frame compute's blocking window.

    A per-frame ``compute`` (the renderers) draws its cost from one
    table built with the program (a list for the live loop, an array
    for the admissibility scan).  Each frame draws its cost at its loop
    top, before any snapshot can see it, so the frame in flight at a
    lock already carries its cost forward: a ``j``-frame jump relabels
    it ``frame + j`` and must admit frames ``frame … frame + j``.
    """

    def __init__(self, eng: "BatchedEngine", node: Any, steps: List[Any],
                 costs: List[float], slack: float) -> None:
        self.eng = eng
        #: metrics base key ("render", "sepia", "transfer", ...)
        self.key = node.base
        #: telemetry track (the event stage's per-instance key)
        self.span_key = node.key
        #: the MCPC host has no SCC core (-1)
        self.core_id = -1 if node.core is None else node.core
        self.host = node.core is None
        self.steps = steps
        self.no_input = not node.input_steps
        #: per-frame time after the compute that the blocking window
        #: must also absorb (the MCPC's uplink)
        self.slack = slack
        self.costs = costs
        self.cost_arr = np.array(costs) if costs else np.empty(0)
        #: the latest frames' blocking windows: loop top -> hand-off grant
        #: (durations, so jump-safe), None for a frame that was not blocked
        self.windows: deque = deque(maxlen=_MAX_K)
        self.t = 0.0
        self.frame = 0
        #: frame tag of the message the stage is handling (what its sends
        #: stamp); the jump renumbers it with the frames in flight
        self.tag = 0
        #: op counter since the last anchor (part of the phase signature)
        self.op_i = 0
        self.done = False
        self.resume: Any = None
        #: renumbers ``resume`` across a jump (the shift fn of the store
        #: the pending wake-up value came from)
        self.resume_shift: Optional[Callable[[Any, int], Any]] = None
        #: where a parked actor continues: the op to run again (None =
        #: take the next op), and for a program the step to resume at
        self.op: Optional[Op] = None
        self.pc = 0
        #: the compound send in progress and its next phase
        self.send: Optional[Op] = None
        self.phase = 0
        self.gen: Any = None
        self.anchor_t: Optional[float] = None
        self.prev_anchor_t: Optional[float] = None
        # absolute times a body must never keep in generator locals
        # across a yield — the jump shifts these attributes instead
        self.wait_start: Optional[float] = None
        self.span_start: Optional[float] = None
        #: when the last send's rendezvous token was granted
        self.token_t: Optional[float] = None
        #: when the actor reached the blocking-window hand-off
        self.arr_t: Optional[float] = None
        #: the host's compute in progress (its power segment)
        self.in_compute = False
        self.seg_start: Optional[float] = None
        self.cur_dur = 0.0

    def anchor(self) -> None:
        """Mark the top of a frame loop (the periodicity reference)."""
        self.prev_anchor_t = self.anchor_t
        self.anchor_t = self.t
        self.op_i = 0

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        # the host has no samples: it has no inputs and a host span
        idle = eng.idle_samples.get(self.key, [])
        busy = eng.busy_samples.get(self.key, [])
        births = eng.births
        steps = self.steps
        costs = self.costs
        host = self.host
        no_input = self.no_input
        while self.frame < eng.frames:
            self.anchor()
            if no_input:
                self.span_start = self.t
                self.tag = self.frame
                births.setdefault(self.frame, self.t)
            for kind, op, src, first in steps:
                if kind == "op":
                    yield op
                elif kind == "in":
                    # an input: post the rendezvous token (recv), wait
                    # for the (bytes, tag) item, fetch the strip from the
                    # own partition (recv)
                    post_op, wait_op, read_op = op
                    if post_op is not None:
                        yield post_op
                    self.wait_start = self.t
                    self.tag = (yield wait_op)[1]
                    wait_start = self.wait_start
                    assert wait_start is not None
                    if first:
                        idle.append(_idle_value(self.t, wait_start))
                        if synth is not None:
                            synth.stage_idle(self.span_key, self.t,
                                             wait_start)
                    elif synth is not None:
                        # later inputs' waits are span-only (Fig. 15
                        # idle counts only the first)
                        synth.input_wait(self.span_key, self.t, wait_start,
                                         src)
                    if read_op is not None:
                        yield read_op
                    self.span_start = self.t
                elif kind == "cost":
                    d = costs[self.frame]
                    if host:
                        self.seg_start = self.t
                        self.cur_dur = d
                        self.in_compute = True
                    yield ("d", d)
                    if host:
                        self.in_compute = False
                        # the frame's own cost: a jump may have renamed
                        # this compute (its timing absorbed by the
                        # blocking window)
                        eng.mcpc_segments.append((self.seg_start,
                                                  costs[self.frame]))
                elif kind == "hand-send":
                    self.arr_t = self.t
                    yield op
                    self._window(self.token_t)
                elif kind == "hand-put":
                    self.arr_t = self.t
                    yield ("p", op, (None, self.tag))
                    self._window(self.t)
                elif kind == "put":
                    yield ("p", op, (None, self.tag))
                elif kind == "trigger":
                    eng.on_trigger_anchor(self)
                else:  # done
                    eng.record_completion(self.tag, self.t)
            assert self.span_start is not None
            if host:
                if synth is not None:
                    synth.host_busy(self.span_start, self.t, self.tag)
            else:
                busy.append(self.t - self.span_start)
                if synth is not None:
                    synth.stage_busy(self.span_key, self.span_start, self.t,
                                     self.tag)
            self.frame += 1

    def _window(self, grant: Optional[float]) -> None:
        """Close the blocking window of a hand-off pinned to the
        downstream period: loop top -> grant, None when it did not wait."""
        arr, top = self.arr_t, self.anchor_t
        assert grant is not None and arr is not None and top is not None
        self.windows.append(grant - top if grant > arr else None)

    # -- jump hooks -------------------------------------------------------
    def shift(self, s: float, j: int) -> None:
        """Advance every absolute time by ``s`` and renumber frames."""
        self.t += s
        for attr in ("wait_start", "span_start", "anchor_t",
                     "prev_anchor_t", "token_t", "arr_t", "seg_start"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, v + s)
        self.frame += j
        self.tag += j
        # Frame-tagged values in flight through the scheduler renumber
        # with the jump, exactly like queued store items do:
        if self.resume is not None and self.resume_shift is not None:
            self.resume = self.resume_shift(self.resume, j)
        op = self.op
        if op is not None and op[0] == "p":
            store: _Store = op[1]
            if store.shift is not None and op[2] is not None:
                self.op = ("p", store, store.shift(op[2], j))

    def max_jump(self, limit: int, delta: float, k: int) -> int:
        """Most frames (``<= limit``) a jump locked on a ``k``-frame
        period of mean frame time ``delta`` may skip for this stage.

        Stages with frame-independent costs never limit the jump; a
        per-frame cost scans its table.  A frame whose compute ends
        before its hand-off would have been granted leaves the schedule
        untouched.  Each phase of a super-period has its own window: the
        last k frames cover them all, and the narrowest bounds every
        phase.
        """
        if not self.costs:
            return limit
        recent = list(self.windows)[-k:]
        window: Optional[float] = None
        if len(recent) == k and None not in recent:
            window = min(recent) - self.slack - _RTOL * delta
        return admissible_prefix(self.cost_arr, self.frame, limit + 1, k,
                                 window) - 1

    def synthesize(self, j: int, k: int, period: float) -> None:
        """Power segments for ``j`` skipped host frames.

        Each skipped frame's segment starts where the locked period puts
        it and lasts that frame's real render cost.
        """
        if not self.host:
            return
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

    def __repr__(self) -> str:
        return (f"<_Actor {self.span_key!r} core={self.core_id} "
                f"t={self.t:.6f} frame={self.frame}>")


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
                 mc_busy: np.ndarray, lens: Tuple[int, ...],
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
        #: every sample list's length, in ``BatchedEngine._samples`` order
        self.lens = lens
        #: telsynth phase signature (event count + counter/gauge state)
        self.tel = tel


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class BatchedEngine:
    """Coarse-op scheduler with steady-state frame-wave jumps.

    Construction builds from the runner's stage graph, as
    ``PipelineRunner.run`` does (same nodes in the same order, same
    frequency-plan application), and ``run()`` returns the same
    :class:`RunResult` the event engine would, within the committed
    ``repro diff`` tolerances.
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
        self.heap: List[Tuple[float, int, _Actor]] = []
        self.actors: List[_Actor] = []
        self.stores: List[_Store] = []
        self._link_res: Dict[int, _Res] = {}
        self._mc_res: List[_Res] = [_Res(acct=True)
                                    for _ in range(NUM_MEMORY_CONTROLLERS)]
        self._all_res: List[_Res] = list(self._mc_res)
        self._chans: Dict[Tuple[int, int], _Chan] = {}
        self.idle_samples: Dict[str, List[float]] = {}
        self.busy_samples: Dict[str, List[float]] = {}
        #: every sample list, idle then busy (the snapshots' fixed order)
        self._samples: List[List[float]] = []
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
        #: why frames were not jumped: steady-state rejections by the
        #: criterion that failed first, and ``prefix`` for a lock with no
        #: admissible jump (diagnostics only: not part of the result)
        self.lock_misses: Counter[str] = Counter()
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
        hold = cfg.hold_seconds(nbytes)
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
        graph = runner._stage_graph()
        self.graph = graph
        n = self.num_pipelines = max(graph.pipelines, 1)
        self._strip_bytes = [self.workload.strip_bytes(p, n) for p in range(n)]

        # The frequency plan comes *before* the compute services below —
        # chip.compute_time must see the planned clocks.
        runner._apply_frequency_plan(self.chip, graph)
        self.chip.power.set_cores_active(graph.cores, True)

        # host links: a resource plus its UDP parameters, made in a fixed
        # order (downlink, uplink) for the snapshots' resource vector
        used = {op.arg for node in graph.stages for op in node.program
                if op.kind == "udp"}
        self._links = {
            name: (self._new_res(), cfg)
            for name, cfg in (("downlink", DOWNLINK_CONFIG),
                              ("uplink", self.mcpc_config.udp))
            if name in used}
        self._queues = {
            name: _Store(capacity=capacity, shift=_shift_tag)
            for name, capacity in graph.queues.items()}
        self.stores.extend(self._queues.values())

        self.actors = []
        for node in graph.stages:
            if node.core is not None:
                self._samples_for(node.base)
            self.actors.append(self._compile(node))

        self._samples = (list(self.idle_samples.values())
                         + list(self.busy_samples.values()))
        synth = self.synth
        if synth is not None:
            # Track -> core bindings in the runner's stage-start order
            # (the host process never binds, exactly like the event path)
            for actor in self.actors:
                if actor.core_id >= 0:
                    synth.bind(actor.span_key, actor.core_id, self.sim.now)

    def _compile(self, node: Any) -> _Actor:
        """One stage node's op program as an actor's coarse-op steps.

        Besides the steps, the program's shape fixes the actor's jump
        rules: a ``done`` program is the completion stage, whose
        snapshots (a ``trigger`` step) sit before its first op that can
        wait; a per-frame ``compute`` gets a cost table and a blocking
        window, closed by the first hand-off after it (a ``hand-*``
        step), with ``slack`` the fixed program time in between.
        """
        core = -1 if node.core is None else node.core
        wl = self.workload
        n = self.num_pipelines
        frame_bytes = wl.frame_bytes()
        program = node.program
        inputs = node.input_steps
        steps: List[Tuple[str, Any, Any, bool]] = []
        costs: List[float] = []
        slack = 0.0
        # program positions of the trigger and of the blocking window
        trigger = hand = -1
        if any(op.kind == "done" for op in program):
            trigger = next(i for i, op in enumerate(program)
                           if op.kind != "compute")
        for pc, op in enumerate(program):
            kind, first = op.kind, bool(inputs) and pc == inputs[0]
            if pc == trigger:
                steps.append(("trigger", None, None, False))
            if kind == "recv":
                chan = self._chan(op.arg, core)
                steps.append(("in", (
                    ("p", chan.recv_posted, None), ("g", chan.data_ready),
                    ("s", self._read_own_prog(
                        core, self._strip_bytes[op.strip]))), op.arg, first))
            elif kind == "get":
                steps.append(("in", (None, ("g", self._queues[op.arg]),
                                     None), op.arg, first))
            elif kind == "mesh":
                steps.append(("op", ("s", self._mesh_prog(
                    SIF_LOCATION, self._coord(core), frame_bytes,
                    core=core)), None, False))
            elif kind == "compute":
                fn = compute_cost(op, self.cost, wl, n, self.mcpc_config.udp)
                if op.arg not in PER_FRAME_COSTS:
                    steps.append(("op", (
                        "d", self.chip.compute_time(core, fn(0))), None,
                        False))
                    continue
                if node.core is None:
                    speedup = self.mcpc_config.speedup_vs_scc_core
                    costs = [fn(f) / speedup for f in range(self.frames)]
                else:
                    costs = [self.chip.compute_time(core, fn(f))
                             for f in range(self.frames)]
                steps.append(("cost", None, None, False))
                hand = next((i for i in range(pc + 1, len(program))
                             if program[i].kind in ("send", "put")), -1)
            elif kind == "write_own":
                steps.append(("op", ("s", self._write_own_prog(
                    core, frame_bytes)), None, False))
            elif kind == "send":
                nbytes = self._strip_bytes[op.strip]
                steps.append(("hand-send" if pc == hand else "op", _send_op(
                    self._chan(core, op.arg),
                    self._write_to_prog(core, op.arg, nbytes), nbytes), None,
                    False))
            elif kind == "udp":
                res, cfg = self._links[op.arg]
                prog = self._udp_prog(res, cfg, frame_bytes)
                if pc < hand:
                    # fixed program time between the compute and its
                    # hand-off
                    slack += sum(hold for _, hold, _ in prog)
                steps.append(("op", ("s", prog), None, False))
            elif kind == "put":
                steps.append(("hand-put" if pc == hand else "put",
                               self._queues[op.arg], None, False))
            else:  # done
                steps.append(("done", None, None, False))
        return _Actor(self, node, steps, costs, slack)

    # -- scheduler ---------------------------------------------------------
    def _run_loop(self) -> None:
        """Run every actor to completion: the one scheduler loop.

        It pops the earliest actor (ties in push order) and runs its ops
        in place — computes ``("d", hold)``, fused programs ``("s",
        prog)``, store gets and puts ``("g"/"p", store, …)`` and the
        compound send ``("x", …)`` — until the actor parks.  An actor
        yields the floor whenever its clock passes the next actor's,
        strictly, where the event kernel would interleave: after a
        compute or a program, before a store op and before a resource
        step; a program resumed mid-way goes straight on to the next op.
        ``actor.t`` is written back where the actor parks and before its
        body runs, and re-read after it: a jump inside the trigger's body
        shifts it.
        """
        heap = self.heap
        push = heappush
        pop = heappop
        seq = 0
        for actor in self.actors:
            actor.gen = actor.body()
            push(heap, (0.0, seq, actor))
            seq += 1
        synth = self.synth
        step_synth = self._step_synth
        while heap:
            t, _, actor = pop(heap)
            requeue = True
            op = actor.op
            if op is None:
                pc = -1
                val = actor.resume
                if val is not None:
                    actor.resume = None
                    actor.resume_shift = None
            else:
                # parked before a store op, or mid-program at step pc
                actor.op = None
                pc = actor.pc
                val = None
            while True:
                if op is None:
                    snd = actor.send
                    if snd is None:
                        actor.t = t
                        try:
                            op = actor.gen.send(val)
                        except StopIteration:
                            actor.done = True
                            t = actor.t
                            if t > self.end_time:
                                self.end_time = t
                            requeue = False
                            break
                        t = actor.t
                        val = None
                    else:
                        chan = snd[3]
                        phase = actor.phase
                        if phase == 1:
                            # token granted: deposit the payload
                            actor.token_t = t
                            if synth is not None:
                                assert actor.wait_start is not None
                                synth.rendezvous(chan.src, chan.dst,
                                                 actor.wait_start, t, snd[4],
                                                 actor.tag)
                            actor.phase = 2
                            op = snd[2]
                        elif phase == 2:
                            # payload written: signal data-ready
                            actor.phase = 3
                            op = ("p", chan.data_ready, (snd[4], actor.tag))
                        else:
                            if synth is not None:
                                synth.delivered(snd[4])
                            actor.send = None
                            continue
                    actor.op_i += 1
                    pc = -1
                kind = op[0]
                if kind == "s":
                    prog = op[1]
                    n = len(prog)
                    i = 0 if pc < 0 else pc
                    while i < n:
                        res, hold, meta = prog[i]
                        if res is None:
                            nt = t + hold
                            if meta is not None and step_synth is not None:
                                step_synth.step(meta, t, t, nt)
                        else:
                            if heap and t > heap[0][0]:
                                break
                            fa = res.free_at
                            if t < fa:
                                # queued behind the current holder: granted
                                # at the exact release float, interval
                                # stays open
                                grant = fa
                            else:
                                if res.acct:
                                    bs = res.busy_since
                                    if bs is not None:
                                        # the event kernel's interval-close
                                        # add, reproduced bit-for-bit:
                                        res.busy_time += fa - bs  # lint: disable=DET007
                                    res.busy_since = t
                                grant = t
                            nt = grant + hold
                            res.free_at = nt
                            if meta is not None and step_synth is not None:
                                step_synth.step(meta, t, grant, nt)
                        t = nt
                        i += 1
                    else:
                        op = None
                        if pc < 0 and heap and t > heap[0][0]:
                            break
                        continue
                    # reparked mid-program
                    actor.op = op
                    actor.pc = i
                    break
                if kind == "d":
                    t += op[1]
                    op = None
                    if heap and t > heap[0][0]:
                        break
                    continue
                if kind == "x":
                    # the send starts with the rendezvous token wait
                    actor.send = op
                    actor.phase = 1
                    actor.wait_start = t
                    op = op[1]
                    continue
                # a store op waits its turn
                if heap and t > heap[0][0]:
                    actor.op = op
                    break
                store = op[1]
                if kind == "g":
                    items = store.items
                    if items:
                        val = items.popleft()
                        putters = store.putters
                        while putters and len(items) < store.capacity:
                            p_actor, item = putters.popleft()
                            items.append(item)
                            push(heap, (t, seq, p_actor))
                            seq += 1
                        op = None
                        continue
                    store.getters.append(actor)
                    requeue = False
                    break
                if kind == "p":
                    if len(store.items) < store.capacity:
                        getters = store.getters
                        if getters:
                            getter = getters.popleft()
                            getter.resume = op[2]
                            getter.resume_shift = store.shift
                            # the event kernel resumes the woken receiver
                            # before the sender continues — same order here
                            push(heap, (t, seq, getter))
                            seq += 1
                            break
                        store.items.append(op[2])
                        op = None
                        continue
                    store.putters.append((actor, op[2]))
                    requeue = False
                    break
                raise AssertionError(  # pragma: no cover - closed vocabulary
                    f"unknown op {op!r}")
            actor.t = t
            if requeue:
                push(heap, (t, seq, actor))
                seq += 1
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
        stores = tuple([(len(s.items), len(s.getters), len(s.putters))
                        for s in self.stores])
        res_off = np.array([r.free_at for r in self._all_res]) - T
        births = self.births
        head = max(frames)
        birth_off = np.array([births.get(f, np.nan) - T
                              for f in range(head - _MAX_K + 1, head + 1)])
        mc_busy = np.array([r.busy_until(T) for r in self._mc_res])
        lens = tuple([len(v) for v in self._samples])
        tel = self.synth.phase_sig() if self.synth is not None else None
        return _Snapshot(T, frames, ops, deltas, stores, res_off, birth_off,
                         mc_busy, lens, tel)

    def _slices_match(self, snap: _Snapshot, prev: _Snapshot,
                      prev2: _Snapshot) -> bool:
        for lst, l2, l1, l0 in zip(self._samples, prev2.lens, prev.lens,
                                   snap.lens):
            if l0 - l1 != l1 - l2:
                return False
            # a period's slice is a handful of floats: plain Python
            # beats numpy's per-call overhead here
            for a, b in zip(lst[l1:l0], lst[l2:l1]):
                if abs(a - b) > _ATOL + _RTOL * abs(b):
                    return False
        return True

    def _steady_miss(self, snap: _Snapshot, prev: _Snapshot,
                     prev2: _Snapshot, k: int) -> Optional[str]:
        """The first steady-state criterion three snapshots ``k`` frames
        apart fail, or None when they agree: a lock on the period
        ``D = snap.T - prev.T``."""
        delta = snap.T - prev.T
        if delta <= 0.0 or not math.isclose(prev.T - prev2.T, delta,
                                            rel_tol=_RTOL, abs_tol=_ATOL):
            return "period"
        for new, old in ((snap, prev), (prev, prev2)):
            if any(nf - of != k for nf, of in zip(new.frames, old.frames)):
                return "frames"
        if snap.ops != prev.ops or prev.ops != prev2.ops:
            return "ops"
        atol = _ATOL * max(1.0, delta)
        # every stage's last frame took Δ (k = 1), or the per-frame
        # spacings repeat with the super-period (k > 1)
        spacing = delta if k == 1 else prev.deltas
        if not _close(snap.deltas, spacing, atol).all():
            return "spacing"
        if snap.stores != prev.stores:
            return "stores"
        # resources either repeat their phase offset or are long idle
        off_ok = (_close(snap.res_off, prev.res_off, atol)
                  | ((snap.res_off < -delta) & (prev.res_off < -delta)))
        if not off_ok.all():
            return "resources"
        if not _close(snap.birth_off[-k:], prev.birth_off[-k:], atol).all():
            return "births"
        if not self._slices_match(snap, prev, prev2):
            return "samples"
        if self.synth is not None and not TelemetrySynth.periodic_ok(
                prev2.tel, prev.tel, snap.tel):
            # the telemetry stream itself must repeat before its period
            # can be captured and replayed symbolically
            return "telemetry"
        return None

    def on_trigger_anchor(self, trig: _Actor) -> None:
        self.frames_simulated += 1
        snap = self._snapshot(trig)
        hist = self._hist
        hist.append(snap)
        if any(a.done for a in self.actors):
            return
        for k in range(1, _MAX_K + 1):
            if len(hist) < 2 * k + 1:
                return
            prev = hist[-1 - k]
            miss = self._steady_miss(snap, prev, hist[-1 - 2 * k], k)
            if miss is None:
                break
            self.lock_misses[miss] += 1
        else:
            return
        period = snap.T - prev.T
        # the windowed jump: every stage's longest admissible prefix
        j = min(self.frames - 1 - a.frame for a in self.actors)
        for a in self.actors:
            j = a.max_jump(j, period / k, k)
            if j < max(2, k):
                self.lock_misses["prefix"] += 1
                return
        self._jump(trig, j // k, k, period, snap, prev)

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
        for lst, lo, hi in zip(self._samples, prev.lens, snap.lens):
            sl = lst[lo:hi]
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
        # In place: the scheduler loop holds this very list.
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
            self.chip.power.set_cores_active(self.graph.cores, False)

        metrics = RunMetrics()
        metrics.frame_birth = dict(self.births)
        metrics.record_stage_samples(self.idle_samples, self.busy_samples)
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
        runner.last_telemetry = runner.telemetry or Telemetry(enabled=False)

        # the engine is single-use: dropping the spent actors (each holds
        # the engine) lets refcounting free the run's whole state now
        # instead of at the next full GC pass
        self.actors = []
        chip = self.chip
        graph = self.graph
        busy_means = {key: acc.mean for key, acc in metrics.busy.items()}
        return RunResult(
            config=runner.config,
            arrangement=graph.arrangement,
            pipelines=graph.pipelines,
            frames=self.frames,
            walkthrough_seconds=end,
            cores_used=len(graph.cores),
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
