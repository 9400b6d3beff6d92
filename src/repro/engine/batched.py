"""Batched steady-state engine: frame-wave execution of the pipeline.

The event engine simulates a pipeline run one heap event at a time —
every ``timeout``, resource grant and store hand-off is a push/pop pair.
For the paper's workloads that is mostly wasted motion: after the
warm-up frames fill the pipeline, every stage repeats the *same*
sequence of operations once per frame, at times that advance by one
constant period Δ.  This engine exploits that structure twice:

1. **Coarse operations.**  Each stage node's op program (the stage
   graph's, :mod:`repro.pipeline.describe`) compiles to a flat list of
   one frame's coarse ops, which one scheduler loop steps in place with
   a program counter: a compute, a store get or put, a *fused program* —
   a whole DRAM access (command trip over the mesh, memory controller
   occupancy, payload trip, core-side copy) is one precomputed list of
   ``(resource, hold)`` steps instead of ~10 separate heap events.  An
   RCCE send is three such ops (token wait, write program, data-ready
   put); the per-frame bookkeeping (idle and busy samples, births, the
   snapshot trigger) sits between them as ops that take no time.
   Resources are plain ``free_at`` floats; a grant is ``max(now,
   free_at)`` — the identical arithmetic the event kernel performs via
   request/release events, so uncontended and FIFO-contended timings
   are reproduced bit-for-bit.

2. **Windowed frame-wave jumps.**  The completion stage (transfer, or
   the lone single-core stage) takes a snapshot every frame, as plain
   tuples built at C speed: per-stage frame counts, op counts and last
   frame times, every store's item/getter/putter counts, every
   resource's ``free_at``, the memory controllers' busy totals and every
   sample list's length.  The checks read them lazily, cheapest first:
   the period from the snapshots' times alone, then the counts, then
   float by float (``|a - b| <= atol + rtol·|b|``, NaN never matching)
   the frame times, resource offsets, the newest frames' birth offsets
   and the last period's metric samples.  Three snapshots ``k`` frames
   apart that agree *lock* a period ``D`` of ``k`` frames (``k ≤ 8``;
   ``k = 1`` is the plain period ``Δ``, larger ``k`` a super-period such
   as a transfer period alternating between two floats).  The engine then advances
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
carries metadata and a stage only through its telemetry ops, and both
are compiled only where a reader of the hub reads them.  Telemetry never
changes a scheduling decision.

Why frames were not jumped is counted in :attr:`BatchedEngine.lock_misses`.

The engine builds no simulator and no event-time chip: it reads the
static chip (:class:`SCCTopology`, :func:`xy_route`, :class:`SCCConfig`)
and keeps its own DVFS and power models.

Pixels never enter either engine: the film is a pure function of the
workload and seed (:func:`repro.pipeline.film.render_film`).  The
engine declines no run.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from heapq import heapify, heappop, heappush, heappushpop
from itertools import repeat
from operator import attrgetter, sub
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..host import MCPCConfig
from ..pipeline.describe import PER_FRAME_COSTS
from ..pipeline.metrics import RunMetrics, RunResult
from ..pipeline.stage import compute_cost, cost_table
from ..scc import DVFSController, PowerModel, SCCConfig, SCCTopology
from ..scc.mesh import link_tag, xy_route
from ..scc.topology import NUM_MEMORY_CONTROLLERS, SIF_LOCATION, Coord
from ..sim import TimeSeries, running_sum
from ..telemetry import Telemetry
from .telsynth import Emit, StepMeta, TelemetrySynth, make_synth

__all__ = ["BatchedEngine"]

#: relative tolerance for "two periods look identical" float comparisons
_RTOL = 1e-9
_ATOL = 1e-12
#: longest super-period (in frames) the detector tries to lock
_MAX_K = 8

Op = Tuple[Any, ...]
Prog = List[Tuple[Optional["_Res"], float, Optional[StepMeta]]]

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
    """FIFO store with the event kernel's rendezvous wake order.

    A ``tagged`` store carries frame tags (a message's or a queue item's
    frame), which a wave jump renumbers; an untagged one carries the
    RCCE rendezvous tokens (None)."""

    __slots__ = ("capacity", "items", "getters", "putters", "tagged")

    def __init__(self, capacity: Optional[int] = None,
                 tagged: bool = False) -> None:
        self.capacity: float = math.inf if capacity is None else capacity
        self.items: deque = deque()
        self.getters: deque = deque()
        self.putters: deque = deque()
        self.tagged = tagged


class _Chan:
    """Rendezvous state of one ordered (src, dst) core pair — mirrors
    ``repro.rcce.comm._Channel`` (a token store plus a message store)."""

    __slots__ = ("recv_posted", "data_ready")

    def __init__(self) -> None:
        self.recv_posted = _Store()
        self.data_ready = _Store(tagged=True)


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


_frame_of = attrgetter("frame")
_ops_of = attrgetter("op_i")
_delta_of = attrgetter("delta")
_free_at_of = attrgetter("free_at")


def _replicate(last: List[float], n: int, period: float) -> np.ndarray:
    """Items ``1 … n`` past a locked period of ``k = len(last)`` frames
    whose items were ``last`` (oldest first): item ``i`` repeats item
    ``(i - 1) mod k`` of the period, ``ceil(i / k)`` periods later."""
    waves = np.arange(1, -(-n // len(last)) + 1) * period
    with np.errstate(all="ignore"):
        items: np.ndarray = (np.array(last) + waves[:, None]).ravel()[:n]
    return items


# ---------------------------------------------------------------------------
# the actor: one per stage node
# ---------------------------------------------------------------------------

class _Actor:
    """One stage node's op program, compiled to a flat per-frame op list,
    plus its schedulable state.

    ``code`` is one frame of the program as :meth:`BatchedEngine._compile`
    builds it, from ``top`` (the loop top) to ``end``; the scheduler loop
    steps it with the program counter ``pc``.  Its ops are of two sorts.
    *Coarse ops* take simulated time, count in ``op_i`` and are where the
    actor may yield the floor: a fused program ``("s", prog)``, a compute
    ``("d", hold)`` or a per-frame one (``c``, and ``h`` on the MCPC host),
    a store get ``("g", store)`` or put ``("p", store)``.  An RCCE send is
    three of them: the rendezvous token's get, the write program and the
    data-ready put.  *Bookkeeping ops* run in place at the actor's clock:
    the loop ``top`` and ``end``, an input's idle sample (``in``), the
    busy span's start (``span``),
    the token grant (``tok``), the blocking window's start and end
    (``arr``, ``win``), the host compute's power segment (``hc``), the
    completion stage's snapshot (``trig``), its completion record
    (``done``) and the telemetry ops (``tel``, an emitter called with the
    actor and its clock).  The bookkeeping follows the program's
    shape, as in the event interpreter
    (:class:`repro.pipeline.stage.Stage`): the first input's wait is idle,
    busy runs from the last input to the frame's end, inputs set the tag.

    A per-frame ``compute`` (the renderers) draws its cost from one
    table built with the program (a list for the live loop, an array
    for the admissibility scan).  Each frame draws its cost when its
    compute starts, before any snapshot can see it, so the frame in
    flight at a lock already carries its cost forward: a ``j``-frame
    jump relabels it ``frame + j`` and must admit frames ``frame …
    frame + j``.
    """

    def __init__(self, eng: "BatchedEngine", node: Any, code: List[Op],
                 costs: np.ndarray, slack: float) -> None:
        self.eng = eng
        #: telemetry track (the event stage's per-instance key)
        self.span_key = node.key
        #: the MCPC host has no SCC core (-1)
        self.core_id = -1 if node.core is None else node.core
        self.host = node.core is None
        self.code = code
        self.no_input = not node.input_steps
        # the host has no samples: it has no inputs and a host span
        self.idle: List[float] = eng.idle_samples.get(node.base, [])
        self.busy: List[float] = eng.busy_samples.get(node.base, [])
        #: per-frame time after the compute that the blocking window
        #: must also absorb (the MCPC's uplink)
        self.slack = slack
        self.costs: List[float] = costs.tolist()
        self.cost_arr = costs
        #: the latest frames' blocking windows: loop top -> hand-off grant
        #: (durations, so jump-safe), None for a frame that was not blocked
        self.windows: deque = deque(maxlen=_MAX_K)
        self.t = 0.0
        self.frame = 0
        #: frame tag of the message the stage is handling (what its sends
        #: stamp); the jump renumbers it with the frames in flight
        self.tag = 0
        #: coarse ops since the last anchor (part of the phase signature)
        self.op_i = 0
        #: where a parked actor continues: the next op in ``code``; or the
        #: op it parked in (None = none), a store op to run again or a
        #: program to resume at ``step``
        self.pc = 0
        self.op: Optional[Op] = None
        self.step = 0
        self.anchor_t: Optional[float] = None
        self.prev_anchor_t: Optional[float] = None
        #: ``anchor_t - prev_anchor_t``, the last frame's time (NaN before
        #: the second frame)
        self.delta = math.nan
        # absolute times: the jump shifts these attributes
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

    def close_window(self, grant: Optional[float]) -> None:
        """Close the blocking window of a hand-off pinned to the
        downstream period: loop top -> grant, None when it did not wait."""
        arr, top = self.arr_t, self.anchor_t
        assert grant is not None and arr is not None and top is not None
        self.windows.append(grant - top if grant > arr else None)

    # -- jump hooks -------------------------------------------------------
    def shift(self, s: float, j: int) -> None:
        """Advance every absolute time by ``s`` and renumber frames."""
        self.t += s
        if self.wait_start is not None:
            self.wait_start += s
        if self.span_start is not None:
            self.span_start += s
        if self.token_t is not None:
            self.token_t += s
        if self.arr_t is not None:
            self.arr_t += s
        if self.seg_start is not None:
            self.seg_start += s
        top, prev = self.anchor_t, self.prev_anchor_t
        if top is not None:
            top = self.anchor_t = top + s
        if prev is not None:
            prev = self.prev_anchor_t = prev + s
        if top is not None and prev is not None:
            # recomputed from the shifted clocks, as a snapshot reads it
            self.delta = top - prev
        # the frame in flight renumbers with the jump, as queued store
        # items do; a put reads the tag when it runs, so a parked one
        # stamps the renumbered frame
        self.frame += j
        self.tag += j

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
        starts = _replicate([start for start, _ in segs[-k:]], last, period)
        costs = self.cost_arr[a0 + 1:a0 + last + 1]
        segs.extend(zip(starts.tolist(), costs.tolist()))

    def __repr__(self) -> str:
        return (f"<_Actor {self.span_key!r} core={self.core_id} "
                f"t={self.t:.6f} frame={self.frame}>")


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

class _Snapshot:
    """Phase signature of the run at one completion-stage snapshot.

    Plain tuples, built at C speed from the live state and compared
    value by value only when the cheaper criteria before them pass."""

    __slots__ = ("T", "frames", "ops", "deltas", "stores", "free_at", "head",
                 "mc_busy", "lens", "tel")

    def __init__(self, T: float, frames: Tuple[int, ...],
                 ops: Tuple[int, ...], deltas: Tuple[float, ...],
                 stores: Tuple[int, ...], free_at: Tuple[float, ...],
                 mc_busy: List[float], lens: Tuple[int, ...],
                 tel: Optional[Any] = None) -> None:
        self.T = T
        #: per stage: frame, coarse ops since its loop top, last frame time
        #: (NaN before its second frame)
        self.frames = frames
        self.ops = ops
        self.deltas = deltas
        #: every store's item, getter and putter count
        self.stores = stores
        #: every resource's ``free_at``, and the memory controllers' busy
        #: seconds up to T
        self.free_at = free_at
        self.mc_busy = mc_busy
        #: the newest frame in flight: a jump continues the pattern of
        #: the births up to it, so they must repeat too (a birth, once
        #: recorded, never changes, so the check reads them later)
        self.head = max(frames)
        #: every sample list's length, in ``BatchedEngine._samples`` order
        self.lens = lens
        #: telsynth phase signature (event count + counter/gauge state)
        self.tel = tel


def _close_all(xs: Iterable[float], ys: Iterable[float], atol: float) -> bool:
    """Every pair within ``atol + _RTOL·|y|`` (a NaN never matches)."""
    for x, y in zip(xs, ys):
        if not abs(x - y) <= atol + _RTOL * abs(y):
            return False
    return True


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
        self.chip_config = chip_config = runner.chip_config or SCCConfig()
        self.topology = SCCTopology()
        #: telemetry synthesis (None on the plain fast path); the hub
        #: also goes to DVFS and power, which emit their usual events
        #: from the real frequency-plan/power calls where a reader reads
        #: them
        self.synth: Optional[TelemetrySynth] = make_synth(runner)
        hub = self.synth.hub if self.synth is not None else None
        #: the clock DVFS and power read: 0 while the run is built and
        #: its end at teardown (a list cell: the clocks hold no engine)
        now = self._now = [0.0]
        self.dvfs = DVFSController(self.topology, telemetry=hub,
                                   clock=lambda: now[0])
        self.power = PowerModel(self.topology, self.dvfs, chip_config.power,
                                telemetry=hub, clock=lambda: now[0])
        self.heap: List[Tuple[float, int, _Actor]] = []
        self.actors: List[_Actor] = []
        self.stores: List[_Store] = []
        self._link_res: Dict[Tuple[Coord, Coord], _Res] = {}
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
        #: actors that have run their last frame
        self.finished = 0
        self._build()

    # -- program construction ---------------------------------------------
    def _link(self, hop: Tuple[Coord, Coord]) -> _Res:
        res = self._link_res.get(hop)
        if res is None:
            res = self._link_res[hop] = self._new_res()
        return res

    def _new_res(self) -> _Res:
        res = _Res()
        self._all_res.append(res)
        return res

    def _mesh_prog(self, src: Coord, dst: Coord, nbytes: int,
                   core: Optional[int] = None) -> Prog:
        cfg = self.chip_config.mesh
        route = xy_route(src, dst)
        hold = nbytes / cfg.link_bandwidth + cfg.hop_latency_s
        synth = self.synth
        if not route or not cfg.model_contention:
            # one step: the local crossing, or the whole route
            meta = synth.mesh_step(nbytes) if synth is not None else None
            return [(None, len(route) * hold if route
                     else cfg.hop_latency_s, meta)]
        if synth is None:
            return [(self._link(hop), hold, None) for hop in route]
        # The head step carries the transfer-entry counters; every link
        # step emits its own per-link counters and queue/xfer spans.
        return [(self._link(hop), hold,
                 synth.link_step(link_tag(*hop), nbytes, core, i == 0))
                for i, hop in enumerate(route)]

    def _coord(self, core_id: int) -> Coord:
        return self.topology.core(core_id).coord

    def _dram_prog(self, acting: int, owner: int, nbytes: int,
                   inbound: bool) -> Prog:
        cfg = self.chip_config.memory
        if nbytes == 0:
            return []
        cc = self._coord(acting)
        mc = self.topology.core(owner).memory_controller
        mc_coord = self.topology.mc_coord(mc)
        prog = self._mesh_prog(cc, mc_coord, cfg.command_bytes, core=acting)
        service = cfg.mc_latency_s + nbytes / cfg.mc_bandwidth
        prog.append((self._mc_res[mc], service,
                     None if self.synth is None
                     else self.synth.mc_step(mc, acting, nbytes, inbound)))
        src, dst = (mc_coord, cc) if inbound else (cc, mc_coord)
        prog.extend(self._mesh_prog(src, dst, nbytes, core=acting))
        prog.append((None, nbytes / cfg.core_copy_bandwidth, None))
        return prog

    def _own_prog(self, core: int, nbytes: int, inbound: bool) -> Prog:
        """A read (``inbound``) or write of the core's own partition."""
        cfg = self.chip_config.memory
        if cfg.local_memory:
            return [(None, nbytes / cfg.local_bandwidth, None)]
        return self._dram_prog(core, core, nbytes, inbound)

    def _write_to_prog(self, src: int, dst: int, nbytes: int) -> Prog:
        cfg = self.chip_config.memory
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
            chan = self._chans[(src, dst)] = _Chan()
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
        # their scaling must see the planned clocks.
        runner._apply_frequency_plan(self.dvfs, graph)
        self.power.set_cores_active(graph.cores, True)

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
            name: _Store(capacity=capacity, tagged=True)
            for name, capacity in graph.queues.items()}
        self.stores.extend(self._queues.values())

        self.actors = []
        for node in graph.stages:
            if node.core is not None:
                self._samples_for(node.base)
            self.actors.append(self._compile(node))

        self._samples = (list(self.idle_samples.values())
                         + list(self.busy_samples.values()))
        #: every store's items, getters and putters (the snapshots' order)
        self._deques = [q for store in self.stores
                        for q in (store.items, store.getters, store.putters)]
        #: per super-period k, every stage's frame advance in a lock
        self._strides = {k: (k,) * len(self.actors)
                         for k in range(1, _MAX_K + 1)}
        synth = self.synth
        if synth is not None:
            # Track -> core bindings in the runner's stage-start order
            # (the host process never binds, exactly like the event path)
            for actor in self.actors:
                if actor.core_id >= 0:
                    synth.bind(actor.span_key, actor.core_id, 0.0)

    def _compile(self, node: Any) -> _Actor:
        """One stage node's op program as an actor's per-frame op list.

        Besides the ops, the program's shape fixes the actor's jump
        rules: a ``done`` program is the completion stage, whose
        snapshots (a ``trig`` op) sit before its first op that can
        wait; a per-frame ``compute`` gets a cost table and a blocking
        window, closed by the first hand-off after it (``arr`` ...
        ``win``), with ``slack`` the fixed program time in between.
        A telemetry op is compiled only where a reader of the hub reads
        what it emits.
        """
        core = -1 if node.core is None else node.core
        wl = self.workload
        n = self.num_pipelines
        synth = self.synth
        frame_bytes = wl.frame_bytes()
        program = node.program
        inputs = node.input_steps
        code: List[Op] = [("top",)]

        def tel(emit: Optional[Emit]) -> None:
            if emit is not None:
                code.append(("tel", emit))

        costs = np.empty(0)
        slack = 0.0
        # program positions of the trigger and of the blocking window
        trigger = hand = -1
        if any(op.kind == "done" for op in program):
            trigger = next(i for i, op in enumerate(program)
                           if op.kind != "compute")
        for pc, op in enumerate(program):
            kind = op.kind
            if pc == trigger:
                code.append(("trig",))
            if kind in ("recv", "get"):
                # an input: post the rendezvous token (recv), wait for the
                # tagged item, fetch the strip from the own partition
                # (recv); the busy span starts after it
                if kind == "recv":
                    chan = self._chan(op.arg, core)
                    code.append(("p", chan.recv_posted))
                    code.append(("g", chan.data_ready))
                else:
                    code.append(("g", self._queues[op.arg]))
                if pc == inputs[0]:
                    code.append(("in",))
                    if synth is not None:
                        tel(synth.idle(node.key))
                elif synth is not None:
                    # later inputs' waits are span-only (Fig. 15 idle
                    # counts only the first)
                    tel(synth.wait(node.key, op.arg))
                if kind == "recv":
                    code.append(("s", self._own_prog(
                        core, self._strip_bytes[op.strip], True)))
                code.append(("span",))
            elif kind == "mesh":
                code.append(("s", self._mesh_prog(
                    SIF_LOCATION, self._coord(core), frame_bytes,
                    core=core)))
            elif kind == "compute":
                if op.arg not in PER_FRAME_COSTS:
                    fn = compute_cost(op, self.cost, wl, n,
                                      self.mcpc_config.udp)
                    code.append(("d", fn(0) * self.dvfs.scaling_factor(core)))
                    continue
                table = cost_table(op, self.cost, wl, n)[:self.frames]
                if node.core is None:
                    costs = table / self.mcpc_config.speedup_vs_scc_core
                    code.extend((("h",), ("hc",)))
                else:
                    # the same scaling, element-wise
                    costs = table * self.dvfs.scaling_factor(core)
                    code.append(("c",))
                hand = next((i for i in range(pc + 1, len(program))
                             if program[i].kind in ("send", "put")), -1)
            elif kind == "write_own":
                code.append(("s", self._own_prog(core, frame_bytes, False)))
            elif kind == "send":
                # the RCCE send: rendezvous token, deposit the payload,
                # signal data-ready with the sender's tag
                nbytes = self._strip_bytes[op.strip]
                chan = self._chan(core, op.arg)
                if pc == hand:
                    code.append(("arr",))
                code.append(("g", chan.recv_posted))
                if pc == hand:
                    code.append(("tok",))
                if synth is not None:
                    tel(synth.rendezvous(core, op.arg, nbytes))
                code.append(("s", self._write_to_prog(core, op.arg, nbytes)))
                code.append(("p", chan.data_ready))
                if synth is not None:
                    tel(synth.delivered(nbytes))
                if pc == hand:
                    code.append(("win", True))
            elif kind == "udp":
                res, cfg = self._links[op.arg]
                prog = self._udp_prog(res, cfg, frame_bytes)
                if pc < hand:
                    # fixed program time between the compute and its
                    # hand-off
                    slack += sum(hold for _, hold, _ in prog)
                code.append(("s", prog))
            elif kind == "put":
                if pc == hand:
                    code.append(("arr",))
                code.append(("p", self._queues[op.arg]))
                if pc == hand:
                    code.append(("win", False))
            else:  # done
                code.append(("done",))
        if synth is not None:
            tel(synth.busy(node.key, node.core is None))
        code.append(("end",))
        return _Actor(self, node, code, costs, slack)

    # -- scheduler ---------------------------------------------------------
    def _run_loop(self) -> None:
        """Run every actor to completion: the one scheduler loop.

        It takes the earliest actor (ties in push order) and steps its op
        list in place (see :class:`_Actor`) until the actor parks.  An
        actor yields the floor whenever its clock passes the next actor's,
        strictly, where the event kernel would interleave: after a
        compute or a program, before a store op and before a resource
        step; a program resumed mid-way goes straight on to the next op,
        and bookkeeping never yields.  ``actor.t`` is written back where
        the actor parks and around a snapshot, and re-read after it: a
        jump inside the snapshot shifts it.
        """
        heap = self.heap
        push = heappush
        pop = heappop
        pushpop = heappushpop
        seq = 0
        for actor in self.actors:
            push(heap, (0.0, seq, actor))
            seq += 1
        frames = self.frames
        births = self.births
        inf = math.inf
        t, _, actor = pop(heap)
        while True:
            # the next actor's clock: this one yields the floor past it
            nxt = heap[0][0] if heap else inf
            code = actor.code
            pc = actor.pc
            op = actor.op
            if op is not None:
                # parked in a store op waiting its turn, or mid-program
                actor.op = None
                i = actor.step
            requeue = True
            while True:
                if op is None:
                    op = code[pc]
                    pc += 1
                    fresh = True
                else:
                    fresh = False
                kind = op[0]
                if kind == "s":
                    if fresh:
                        actor.op_i += 1
                        i = 0
                    prog = op[1]
                    n = len(prog)
                    while i < n:
                        res, hold, meta = prog[i]
                        if res is None:
                            nt = t + hold
                            if meta is not None:
                                meta(t, t, nt)
                        else:
                            if t > nxt:
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
                            if meta is not None:
                                meta(t, grant, nt)
                        t = nt
                        i += 1
                    else:
                        op = None
                        if fresh and t > nxt:
                            break
                        continue
                    # reparked mid-program
                    actor.op = op
                    actor.step = i
                    break
                if kind == "g":
                    if fresh:
                        actor.op_i += 1
                        actor.wait_start = t
                    # a store op waits its turn
                    if t > nxt:
                        actor.op = op
                        break
                    store = op[1]
                    op = None
                    items = store.items
                    if items:
                        item = items.popleft()
                        if item is not None:
                            actor.tag = item
                        putters = store.putters
                        while putters and len(items) < store.capacity:
                            p_actor, item = putters.popleft()
                            items.append(item)
                            push(heap, (t, seq, p_actor))
                            seq += 1
                            nxt = t
                        continue
                    store.getters.append(actor)
                    requeue = False
                    break
                if kind == "p":
                    if fresh:
                        actor.op_i += 1
                    if t > nxt:
                        actor.op = op
                        break
                    store = op[1]
                    op = None
                    item = actor.tag if store.tagged else None
                    if len(store.items) < store.capacity:
                        getters = store.getters
                        if getters:
                            getter = getters.popleft()
                            if item is not None:
                                getter.tag = item
                            # the event kernel resumes the woken receiver
                            # before the sender continues — same order here
                            push(heap, (t, seq, getter))
                            seq += 1
                            break
                        store.items.append(item)
                        continue
                    store.putters.append((actor, item))
                    requeue = False
                    break
                if kind == "d" or kind == "c" or kind == "h":
                    actor.op_i += 1
                    if kind == "d":
                        t += op[1]
                    else:
                        d = actor.costs[actor.frame]
                        if kind == "h":
                            actor.seg_start = t
                            actor.cur_dur = d
                            actor.in_compute = True
                        t += d
                    op = None
                    if t > nxt:
                        break
                    continue
                # bookkeeping, in place
                if kind == "end":
                    if not actor.host:
                        span_start = actor.span_start
                        assert span_start is not None
                        actor.busy.append(t - span_start)
                    actor.frame += 1
                    # straight on to the next loop top
                    pc = 1
                    kind = "top"
                if kind == "top":
                    frame = actor.frame
                    if frame >= frames:
                        self.finished += 1
                        if t > self.end_time:
                            self.end_time = t
                        requeue = False
                        break
                    # the periodicity reference
                    prev = actor.prev_anchor_t = actor.anchor_t
                    actor.anchor_t = t
                    if prev is not None:
                        actor.delta = t - prev
                    actor.op_i = 0
                    if actor.no_input:
                        actor.span_start = t
                        actor.tag = frame
                        births.setdefault(frame, t)
                elif kind == "span":
                    actor.span_start = t
                elif kind == "in":
                    wait_start = actor.wait_start
                    assert wait_start is not None
                    actor.idle.append(_idle_value(t, wait_start))
                elif kind == "trig":
                    actor.t = t
                    self.on_trigger_anchor(actor)
                    # a jump shifts every clock
                    t = actor.t
                    nxt = heap[0][0] if heap else inf
                elif kind == "done":
                    self.record_completion(actor.tag, t)
                elif kind == "tok":
                    # token granted: the payload goes next
                    actor.token_t = t
                elif kind == "arr":
                    actor.arr_t = t
                elif kind == "win":
                    actor.close_window(actor.token_t if op[1] else t)
                elif kind == "hc":
                    actor.in_compute = False
                    seg_start = actor.seg_start
                    assert seg_start is not None
                    # the frame's own cost: a jump may have renamed this
                    # compute (its timing absorbed by the blocking window)
                    self.mcpc_segments.append((seg_start,
                                               actor.costs[actor.frame]))
                elif kind == "tel":
                    op[1](actor, t)
                else:  # pragma: no cover - closed vocabulary
                    raise AssertionError(f"unknown op {op!r}")
                op = None
            actor.t = t
            actor.pc = pc
            if requeue:
                # push, then pop the earliest: one sift, or none when the
                # actor is still first
                t, _, actor = pushpop(heap, (t, seq, actor))
                seq += 1
            elif heap:
                t, _, actor = pop(heap)
            else:
                break
        if self.finished < len(self.actors):  # pragma: no cover
            # would mirror an event deadlock
            stuck = [a for a in self.actors if a.frame < frames]
            raise RuntimeError(f"batched engine deadlock: {stuck}")

    # -- metric recording --------------------------------------------------
    def record_completion(self, frame: int, t: float) -> None:
        self.completions.append((frame, t))
        birth = self.births.get(frame)
        if birth is not None:
            self.latency_samples.append(t - birth)

    # -- steady-state detection -------------------------------------------
    def _snapshot(self, trig: _Actor) -> _Snapshot:
        actors = self.actors
        T = trig.t
        tel = self.synth.phase_sig() if self.synth is not None else None
        return _Snapshot(T, tuple(map(_frame_of, actors)),
                         tuple(map(_ops_of, actors)),
                         tuple(map(_delta_of, actors)),
                         tuple(map(len, self._deques)),
                         tuple(map(_free_at_of, self._all_res)),
                         [r.busy_until(T) for r in self._mc_res],
                         tuple(map(len, self._samples)), tel)

    def _slices_match(self, snap: _Snapshot, prev: _Snapshot,
                      prev2: _Snapshot) -> bool:
        for lst, l2, l1, l0 in zip(self._samples, prev2.lens, prev.lens,
                                   snap.lens):
            if l0 - l1 != l1 - l2:
                return False
            if not _close_all(lst[l1:l0], lst[l2:l1], _ATOL):
                return False
        return True

    def _births_off(self, snap: _Snapshot, k: int) -> List[float]:
        """The last ``k`` births up to the snapshot's head frame, relative
        to its T (NaN = none)."""
        births, T = self.births, snap.T
        return [births.get(f, math.nan) - T
                for f in range(snap.head - k + 1, snap.head + 1)]

    def _steady_miss(self, snap: _Snapshot, prev: _Snapshot,
                     prev2: _Snapshot, k: int) -> Optional[str]:
        """The first criterion after ``period`` that three snapshots ``k``
        frames apart fail, or None when they agree: a lock on the period
        ``D = snap.T - prev.T``."""
        delta = snap.T - prev.T
        ks = self._strides[k]
        if (tuple(map(sub, snap.frames, prev.frames)) != ks
                or tuple(map(sub, prev.frames, prev2.frames)) != ks):
            return "frames"
        if snap.ops != prev.ops or prev.ops != prev2.ops:
            return "ops"
        atol = _ATOL * max(1.0, delta)
        # every stage's last frame took Δ (k = 1), or the per-frame
        # spacings repeat with the super-period (k > 1)
        spacing: Iterable[float] = repeat(delta) if k == 1 else prev.deltas
        if not _close_all(snap.deltas, spacing, atol):
            return "spacing"
        if snap.stores != prev.stores:
            return "stores"
        # resources either repeat their phase offset or are long idle
        T0, T1 = snap.T, prev.T
        for a, b in zip(snap.free_at, prev.free_at):
            a -= T0
            b -= T1
            if (not abs(a - b) <= atol + _RTOL * abs(b)
                    and not (a < -delta and b < -delta)):
                return "resources"
        if not _close_all(self._births_off(snap, k),
                          self._births_off(prev, k), atol):
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
        """Snapshot the run at the completion stage's frame; on a lock of
        the smallest ``k`` that agrees, jump as far as every stage
        admits."""
        self.frames_simulated += 1
        hist = self._hist
        snap = self._snapshot(trig)
        hist.append(snap)
        if self.finished:
            return
        T = snap.T
        n = len(hist)
        for k in range(1, _MAX_K + 1):
            if n < 2 * k + 1:
                return
            prev = hist[-1 - k]
            prev2 = hist[-1 - 2 * k]
            # the first criterion, from the snapshots' T alone
            period = T - prev.T
            if period <= 0.0 or not math.isclose(
                    prev.T - prev2.T, period, rel_tol=_RTOL, abs_tol=_ATOL):
                self.lock_misses["period"] += 1
                continue
            miss = self._steady_miss(snap, prev, prev2, k)
            if miss is None:
                break
            self.lock_misses[miss] += 1
        else:
            return
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

        # 3. births, completions and latencies of the skipped frames
        self._skip_frames(j, k, period)

        # 4. resources: accrue the skipped busy time, shift the clocks:
        # one add per skipped period, in order, mirroring the event
        # kernel's per-period interval closes bit-for-bit
        mcs = self._mc_res
        accrued = np.subtract(snap.mc_busy, prev.mc_busy)[:, None]
        busy = running_sum([r.busy_time for r in mcs],
                           np.broadcast_to(accrued, (len(mcs), waves)))
        for r, total in zip(mcs, busy.tolist()):
            r.busy_time = total
        for r in self._all_res:
            r.free_at += s
            if r.busy_since is not None:
                # a clock shift on each distinct resource, not a
                # running sum — one add per jump, same as free_at:
                r.busy_since += s  # lint: disable=DET007

        # 5. shift every clock: actors, heap entries, queued store items
        for a in self.actors:
            a.shift(s, j)
        # In place: the scheduler loop holds this very list.
        self.heap[:] = [(t + s, seq, a) for (t, seq, a) in self.heap]
        heapify(self.heap)
        # (in place: the snapshots count the items of these very deques)
        for store in self.stores:
            if not store.tagged:
                continue
            items, putters = store.items, store.putters
            for _ in range(len(items)):
                items.append(items.popleft() + j)
            for _ in range(len(putters)):
                a, item = putters.popleft()
                putters.append((a, item + j))

        # 6. telemetry: register the captured period as a periodic block,
        # advance counters in closed form, mark the wave for live sinks
        if self.synth is not None:
            assert prev.tel is not None and snap.tel is not None
            self.synth.jump(waves, period, prev.tel, snap.tel, trig.t,
                            stride=k)

        # re-lock from scratch: the jump stopped short of a cost change
        self._hist.clear()

    def _skip_frames(self, j: int, k: int, period: float) -> None:
        """The frame records of a ``j``-frame jump locked on a ``k``-frame
        period: births, completions and latencies."""
        # births: frames up to the head frame keep the times they were
        # really born at; every frame past it — skipped, or renamed in
        # flight — continues the locked pattern of the newest births
        births = self.births
        head = max(a.frame for a in self.actors)
        births.update(zip(range(head + 1, head + j + 1), _replicate(
            [births[f] for f in range(head - k + 1, head + 1)], j,
            period).tolist()))
        # the skipped frames complete in the locked pattern of the newest
        # completions (a birth is a clock reading, never NaN: NaN marks a
        # frame without one)
        done = self.completions
        last_f = done[-1][0]
        frames = range(last_f + 1, last_f + j + 1)
        times = _replicate([t for _, t in done[-k:]], j, period)
        done.extend(zip(frames, times.tolist()))
        born = np.fromiter(map(births.get, frames, repeat(math.nan)),
                           float, j)
        latency = times - born
        self.latency_samples.extend(latency[~np.isnan(born)].tolist())

    # -- result assembly ---------------------------------------------------
    def run(self) -> RunResult:
        runner = self.runner
        self._run_loop()
        end = self.end_time
        # the event path's teardown: the cores power down at the finish
        # line, where the event engine's power trace (and telemetry) ends
        self._now[0] = end
        self.power.set_cores_active(self.graph.cores, False)

        metrics = RunMetrics()
        metrics.frame_birth = dict(self.births)
        metrics.record_stage_samples(self.idle_samples, self.busy_samples)
        metrics.frame_completions = list(self.completions)
        metrics.latency.extend(self.latency_samples)

        mcfg = self.mcpc_config
        mcpc_trace = TimeSeries("mcpc_power", initial=mcfg.power_idle_w)
        # each segment switches the host to rendering power at its start
        # and back to idle at its end
        times = np.array(self.mcpc_segments).reshape(-1, 2)
        times[:, 1] += times[:, 0]
        watts = np.empty_like(times)
        watts[:] = (mcfg.power_render_w, mcfg.power_idle_w)
        mcpc_trace.extend(times.ravel(), watts.ravel())
        mcpc_energy = (mcpc_trace.integrate(0.0, end)
                       - mcfg.power_idle_w * (end - 0.0))

        mc_utils = [(r.close() / end if end > 0 else 0.0)
                    for r in self._mc_res]

        runner.last_metrics = metrics
        runner.last_chip = None
        runner.last_telemetry = runner.telemetry or Telemetry(enabled=False)

        # the engine is single-use: dropping the spent actors (each holds
        # the engine) lets refcounting free the run's whole state now
        # instead of at the next full GC pass
        self.actors = []
        return runner._result(self.graph, end, metrics, self.power,
                              mcpc_energy, mc_utils)
