"""The hand-off protocol of a stage graph: proved and timed.

This is the pipeline-side hook for the static deadlock checker
(:mod:`repro.analysis.concurrency.protocol`): it reads the per-frame
operations off the stage graph both engines build from
(:func:`repro.pipeline.describe.describe`) — each stage's op program
projected onto its blocking hand-offs (``recv``, ``send``, ``get``,
``put``), in program order — without building a simulator, chip
model or workload.  The result is a :class:`ProtocolModel` whose
abstract execution is exact for rendezvous semantics, so ``repro
lint`` can prove the paper's three arrangements deadlock-free on every
run, and ``repro analyze --concurrency`` can render the channel
wait-for graph for the exact configuration being analysed.

With nothing shared a run is a timed event graph (Baccelli et al.,
*Synchronization and Linearity*, 1992), which :func:`evaluate` times
with the event kernel's own additions and maxima, bit for bit
(``tests/cluster/event_oracle.py``).  The Mogon cluster runs on it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.concurrency.protocol import Op, Process, ProtocolModel
from .arrangements import Placement
from .describe import (FILTER_KEYS, ConfigDescription, StageNode, StageOp,
                       describe)

__all__ = ["extract_protocol", "channel_edges", "evaluate"]


def _process(node: StageNode, frames: int) -> Process:
    """One stage node's program projected onto its blocking hand-offs."""
    name = (f"filter[{node.pipeline}].{node.base}"
            if node.pipeline is not None and node.base in FILTER_KEYS
            else node.key)
    ops = []
    for op in node.program:
        if op.kind == "recv":
            ops.append(Op("recv", src=op.arg, dst=node.core))
        elif op.kind == "send":
            ops.append(Op("send", src=node.core, dst=op.arg))
        elif op.kind in ("get", "put"):
            ops.append(Op(op.kind, queue=op.arg))
    return Process(name=name, ops=tuple(ops), iterations=frames)


def extract_protocol(config: Union[str, ConfigDescription],
                     pipelines: int = 1, arrangement: str = "ordered",
                     placement: Optional[Placement] = None,
                     frames: int = 2) -> ProtocolModel:
    """The channel-protocol IR for one runner configuration or graph.

    ``frames`` bounds the abstract execution; rendezvous channels are
    unbuffered, so any wiring deadlock manifests within the first
    couple of frames — 2 is enough, and keeps ``repro lint`` fast.
    """
    graph = (config if isinstance(config, ConfigDescription) else
             describe(config, pipelines, arrangement, placement))
    return ProtocolModel(
        name=f"{graph.config}/{graph.arrangement} x{graph.pipelines}",
        processes=tuple(_process(node, frames) for node in graph.stages),
        queues=graph.queues)


def channel_edges(model: ProtocolModel) -> List[Tuple[str, str, str]]:
    """``(sender_process, receiver_process, channel)`` display edges.

    The wait-for summary ``repro analyze --concurrency`` renders: every
    rendezvous channel as a sender->receiver edge, plus queue edges.
    """
    first: Dict[Tuple[str, Any], str] = {}  # (op kind, end) -> process
    for proc in model.processes:
        for op in proc.ops:
            end = op.queue if op.kind in ("put", "get") else op.channel
            first.setdefault((op.kind, end), proc.name)
    edges: List[Tuple[str, str, str]] = []
    for tx, rx in (("send", "recv"), ("put", "get")):
        for end in sorted({e for kind, e in first if kind in (tx, rx)}):
            label = f"queue:{end}" if tx == "put" else f"{end[0]}->{end[1]}"
            edges.append((first.get((tx, end), "?"),
                          first.get((rx, end), "?"), label))
    return edges


def evaluate(graph: ConfigDescription, frames: int,
             costs: Callable[[StageOp], Sequence[List[float]]]
             ) -> Tuple[float, Dict[str, List[float]], Dict[str, List[float]]]:
    """Run ``graph`` for ``frames`` frames: ``(makespan, idle, busy)``.

    Walks the (frame, node) grid in hand-off order (nodes must come
    producer before consumer), keeping each node's time ``t``.  A
    ``get`` takes frame ``f`` at ``max(t, hand-off of f)``; a ``put``
    hands it on at ``max(t, take of f - depth)`` for a queue of capacity
    ``depth``; ``costs(op)`` gives the seconds each op adds before that,
    one per-frame list per addition, in program order.  Nodes that both
    take and hand on frames record per base key and frame their idle
    (loop top to first take) and busy time (first take to frame end).
    A graph out of hand-off order, or with a queue nobody takes from,
    raises ``ValueError``.
    """
    taken = {op.arg for node in graph.stages for op in node.program
             if op.kind == "get"}
    puts: Dict[str, List[float]] = {}  # the queues earlier ops put to
    # takes[q][f] is the take of frame f - depth: ``depth`` zeros first
    takes = {q: [0.0] * depth for q, depth in graph.queues.items()}
    idle: Dict[str, List[float]] = {}
    busy: Dict[str, List[float]] = {}
    nodes = []
    for node in graph.stages:
        # (x, None) adds x[f]; (x, y) waits for x[f] and appends to y
        steps = []
        for op in node.program:
            steps.extend((x, None) for x in costs(op))
            if op.kind == "get":
                if op.arg not in puts:
                    raise ValueError(f"node {node.key!r} gets from queue "
                                     f"{op.arg!r} before any node puts to it")
                steps.append((puts[op.arg], takes[op.arg]))
            elif op.kind == "put":
                if op.arg not in taken:
                    raise ValueError(f"node {node.key!r} puts to queue "
                                     f"{op.arg!r}, which no node takes from")
                steps.append((takes[op.arg], puts.setdefault(op.arg, [])))
        gets = [takes[op.arg] for op in node.program if op.kind == "get"]
        if gets and any(op.kind == "put" for op in node.program):
            nodes.append((steps, gets[0], idle.setdefault(node.base, []),
                          busy.setdefault(node.base, [])))
        else:
            nodes.append((steps, None, [], []))
    free = [0.0] * len(nodes)
    for f in range(frames):
        for i, (steps, first, idle_f, busy_f) in enumerate(nodes):
            t = top = free[i]
            for x, y in steps:
                if y is None:
                    t += x[f]
                else:
                    u = x[f]
                    if u > t:
                        t = u
                    y.append(t)
            if first is not None:
                g = first[-1]
                idle_f.append(g - top)
                busy_f.append(t - g)
            free[i] = t
    return max(free), idle, busy
