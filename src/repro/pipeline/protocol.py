"""Extract the channel protocol of a pipeline arrangement — statically.

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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.concurrency.protocol import Op, Process, ProtocolModel
from .arrangements import Placement
from .describe import FILTER_KEYS, StageNode, describe

__all__ = ["extract_protocol", "channel_edges"]


def _process(node: StageNode, frames: int) -> Process:
    """One stage node's program projected onto its blocking hand-offs."""
    name = (f"filter[{node.pipeline}].{node.base}"
            if node.base in FILTER_KEYS else node.key)
    ops = []
    for op in node.program:
        if op.kind == "recv":
            ops.append(Op("recv", src=op.arg, dst=node.core))
        elif op.kind == "send":
            ops.append(Op("send", src=node.core, dst=op.arg))
        elif op.kind in ("get", "put"):
            ops.append(Op(op.kind, queue=op.arg))
    return Process(name=name, ops=tuple(ops), iterations=frames)


def extract_protocol(config: str, pipelines: int,
                     arrangement: str = "ordered",
                     placement: Optional[Placement] = None,
                     frames: int = 2) -> ProtocolModel:
    """The channel-protocol IR for one runner configuration.

    ``frames`` bounds the abstract execution; rendezvous channels are
    unbuffered, so any wiring deadlock manifests within the first
    couple of frames — 2 is enough, and keeps ``repro lint`` fast.
    """
    graph = describe(config, pipelines, arrangement, placement)
    return ProtocolModel(
        name=f"{config}/{arrangement} x{pipelines}",
        processes=tuple(_process(node, frames) for node in graph.stages),
        queues=graph.queues)


def channel_edges(model: ProtocolModel) -> List[Tuple[str, str, str]]:
    """``(sender_process, receiver_process, channel)`` display edges.

    The wait-for summary ``repro analyze --concurrency`` renders: every
    rendezvous channel as a sender->receiver edge, plus queue edges.
    """
    senders = {}
    receivers = {}
    for proc in model.processes:
        for op in proc.ops:
            if op.kind == "send":
                senders.setdefault(op.channel, proc.name)
            elif op.kind == "recv":
                receivers.setdefault(op.channel, proc.name)
    edges: List[Tuple[str, str, str]] = []
    for channel in sorted(set(senders) | set(receivers)):
        label = f"{channel[0]}->{channel[1]}"
        edges.append((senders.get(channel, "?"),
                      receivers.get(channel, "?"), label))
    putters = {}
    getters = {}
    for proc in model.processes:
        for op in proc.ops:
            if op.kind == "put":
                putters.setdefault(op.queue, proc.name)
            elif op.kind == "get":
                getters.setdefault(op.queue, proc.name)
    for queue in sorted(set(putters) | set(getters)):
        edges.append((putters.get(queue, "?"), getters.get(queue, "?"),
                      f"queue:{queue}"))
    return edges
