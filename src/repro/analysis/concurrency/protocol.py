"""Static pipeline deadlock checking over a channel-protocol IR.

The RCCE layer (:mod:`repro.rcce.comm`) gives every ``send``/``recv``
pair rendezvous semantics: ``recv`` posts a token for the channel and
blocks until data arrives; ``send`` blocks until the matching token is
posted, then transfers through the receiver's DRAM partition and
completes.  A pipeline arrangement is therefore a closed system of
blocking operations whose deadlock-freedom is decidable without running
the simulator: the per-process operation sequences are finite and the
channel state is bounded, so exhaustive abstract execution of one
protocol is exact — if the abstract run gets stuck, the real run
deadlocks on the same wait-for cycle, and vice versa.

:mod:`repro.pipeline.protocol` extracts the IR from a runner
configuration (read off the stage graph both engines build from,
without executing anything); this module executes the IR abstractly:

``CON004``
    the abstract run reaches a state where unfinished processes exist
    but none can step — a guaranteed deadlock.  The diagnostic names
    the wait-for cycle (or the unmatched channel when a peer simply
    finished early, e.g. a reversed channel direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Op", "Process", "ProtocolModel", "ProtocolIssue",
           "SimOutcome", "simulate", "check_protocol"]


@dataclass(frozen=True)
class Op:
    """One blocking operation in a process's per-iteration sequence."""

    #: ``"send"`` / ``"recv"`` (rendezvous channels), ``"put"`` /
    #: ``"get"`` (bounded host queues)
    kind: str
    #: channel endpoints (core ids) for send/recv
    src: int = -1
    dst: int = -1
    #: queue name for put/get
    queue: str = ""

    @property
    def channel(self) -> Tuple[int, int]:
        return (self.src, self.dst)

    def describe(self) -> str:
        if self.kind in ("send", "recv"):
            return f"{self.kind}({self.src}->{self.dst})"
        return f"{self.kind}({self.queue!r})"


@dataclass(frozen=True)
class Process:
    """One participant: ``ops`` repeated ``iterations`` times."""

    name: str
    ops: Tuple[Op, ...]
    iterations: int = 1


@dataclass(frozen=True)
class ProtocolModel:
    """A closed arrangement: processes plus the bounded queues."""

    name: str
    processes: Tuple[Process, ...]
    #: queue name -> capacity (the MCPC SIF socket is capacity 2)
    queues: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ProtocolIssue:
    """One static diagnostic against a protocol."""

    rule: str  # "CON004"
    message: str


@dataclass
class _Cursor:
    """Abstract program counter of one process."""

    proc: Process
    iteration: int = 0
    op_index: int = 0
    #: a recv posts its token exactly once, then waits for data
    posted: bool = False

    @property
    def done(self) -> bool:
        return (self.iteration >= self.proc.iterations
                or not self.proc.ops)

    @property
    def current(self) -> Op:
        return self.proc.ops[self.op_index]

    def advance(self) -> None:
        self.op_index += 1
        self.posted = False
        if self.op_index >= len(self.proc.ops):
            self.op_index = 0
            self.iteration += 1


@dataclass(frozen=True)
class SimOutcome:
    """Result of one abstract execution."""

    deadlocked: bool
    #: steps executed before completion or the stuck state
    steps: int
    #: blocked process -> what it is waiting on (stuck states only)
    blocked: Dict[str, str] = field(default_factory=dict)
    #: process names forming the wait-for cycle, when one exists
    wait_cycle: List[str] = field(default_factory=list)


def simulate(model: ProtocolModel) -> SimOutcome:
    """Execute the protocol abstractly until completion or no progress.

    Channel state is two counters per ``(src, dst)`` pair: posted recv
    tokens and undelivered payloads; a send needs a token.  Queue state
    is one occupancy counter bounded by the declared capacity.
    """
    cursors = [_Cursor(proc) for proc in model.processes]
    tokens: Dict[Tuple[int, int], int] = {}
    data: Dict[Tuple[int, int], int] = {}
    depth: Dict[str, int] = {name: 0 for name in model.queues}
    steps = 0

    def step(cur: _Cursor) -> bool:
        nonlocal steps
        op = cur.current
        if op.kind == "recv":
            changed = False
            if not cur.posted:
                # Posting the token is non-blocking and unblocks the
                # peer's send: it counts as progress even though this
                # process stays parked waiting for the payload.
                tokens[op.channel] = tokens.get(op.channel, 0) + 1
                cur.posted = True
                changed = True
            if data.get(op.channel, 0) > 0:
                data[op.channel] -= 1
                cur.advance()
                steps += 1
                return True
            return changed
        if op.kind == "send":
            if tokens.get(op.channel, 0) <= 0:
                return False
            tokens[op.channel] -= 1
            data[op.channel] = data.get(op.channel, 0) + 1
            cur.advance()
            steps += 1
            return True
        if op.kind == "put":
            if depth[op.queue] >= model.queues[op.queue]:
                return False
            depth[op.queue] += 1
            cur.advance()
            steps += 1
            return True
        if op.kind == "get":
            if depth[op.queue] <= 0:
                return False
            depth[op.queue] -= 1
            cur.advance()
            steps += 1
            return True
        raise ValueError(f"unknown op kind {op.kind!r}")

    progressed = True
    while progressed:
        progressed = False
        for cur in cursors:
            # run each process as far as it can go this round
            while not cur.done and step(cur):
                progressed = True

    stuck = [cur for cur in cursors if not cur.done]
    if not stuck:
        return SimOutcome(deadlocked=False, steps=steps)
    blocked = {cur.proc.name: cur.current.describe() for cur in stuck}
    return SimOutcome(deadlocked=True, steps=steps, blocked=blocked,
                      wait_cycle=_wait_cycle(model, stuck))


def _peer_of(model: ProtocolModel, stuck: List[_Cursor],
             cur: _Cursor) -> Optional[str]:
    """Which (unfinished) process the blocked op is waiting on."""
    op = cur.current
    if op.kind in ("send", "recv"):
        want = "recv" if op.kind == "send" else "send"
        for other in stuck:
            if other is cur:
                continue
            if any(o.kind == want and o.channel == op.channel
                   for o in other.proc.ops):
                return other.proc.name
    else:
        want = "get" if op.kind == "put" else "put"
        for other in stuck:
            if other is cur:
                continue
            if any(o.kind == want and o.queue == op.queue
                   for o in other.proc.ops):
                return other.proc.name
    return None


def _wait_cycle(model: ProtocolModel,
                stuck: List[_Cursor]) -> List[str]:
    """A cycle in the blocked-process wait-for graph, if one exists."""
    waits: Dict[str, str] = {}
    for cur in stuck:
        peer = _peer_of(model, stuck, cur)
        if peer is not None:
            waits[cur.proc.name] = peer
    for start in sorted(waits):
        seen: List[str] = []
        node = start
        while node in waits and node not in seen:
            seen.append(node)
            node = waits[node]
        if node in seen:
            return seen[seen.index(node):]
    return []


def check_protocol(model: ProtocolModel) -> List[ProtocolIssue]:
    """All static diagnostics for one protocol (empty == proven safe).

    At most one CON004 per protocol: the stuck state is a single global
    fact.
    """
    issues: List[ProtocolIssue] = []
    outcome = simulate(model)
    if outcome.deadlocked:
        if outcome.wait_cycle:
            cyc = outcome.wait_cycle
            detail = " -> ".join(cyc + [cyc[0]])
            shape = f"wait-for cycle {detail}"
        else:
            waiting = "; ".join(f"{name} blocked at {what}"
                                for name, what in
                                sorted(outcome.blocked.items()))
            shape = f"unmatched rendezvous ({waiting})"
        issues.append(ProtocolIssue(
            rule="CON004",
            message=(f"{model.name}: guaranteed deadlock — {shape}; "
                     f"abstract execution stalled after "
                     f"{outcome.steps} steps with "
                     f"{len(outcome.blocked)} process(es) blocked")))
    return issues
