"""RCCE-flavoured message passing over the simulated SCC.

Intel's RCCE library gives each core a rank and provides blocking,
MPI-like ``send``/``recv``.  Every message takes the path the paper
describes for its frame strips: "the message actually has to travel
first to the receiver processor's memory partition.  The data must then
be retrieved from memory by the receiver."  The sender deposits the
payload into the receiver's private partition (occupying the receiver's
memory controller); the receiver then reads it back through the same
controller before working on it.  The tiles' message-passing buffers
are not modelled, because no message uses them.

Both calls are *blocking* with rendezvous semantics: ``send`` completes
only when the matching ``recv`` has been posted and the payload handed
over — matching RCCE's synchronous model and making deadlocks (unmatched
communication) show up as :class:`~repro.sim.DeadlockError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Tuple

from ..scc.chip import SCCChip
from ..sim import Store

__all__ = ["Message", "RCCEComm"]


@dataclass
class Message:
    """One delivered message: who sent how many bytes, and its tag."""

    src: int
    dst: int
    nbytes: int
    tag: int = 0


class _Channel:
    """Rendezvous state for one ordered (src, dst) pair."""

    __slots__ = ("recv_posted", "data_ready", "spans")

    def __init__(self, sim, spans: bool) -> None:
        # Store of posted receives (tokens) and of ready messages.
        self.recv_posted = Store(sim, name="recv_posted")
        self.data_ready = Store(sim, name="data_ready")
        #: True when a reader reads the sender's rendezvous spans
        self.spans = spans


class RCCEComm:
    """Blocking point-to-point messaging on the chip.

    Parameters
    ----------
    chip:
        The simulated SCC whose mesh and memory carry the traffic.
    """

    def __init__(self, chip: SCCChip) -> None:
        self.chip = chip
        self.sim = chip.sim
        self._channels: Dict[Tuple[int, int], _Channel] = {}
        #: True when the hub counts delivered messages
        self._count = chip.telemetry.keeps("rcce")
        #: messages fully delivered (monitoring)
        self.messages_delivered = 0
        #: payload bytes fully delivered (monitoring)
        self.bytes_delivered = 0

    def _channel(self, src: int, dst: int) -> _Channel:
        key = (src, dst)
        chan = self._channels.get(key)
        if chan is None:
            # Core-id validation happens once per pair, on channel creation.
            self.chip.topology.core(src)
            self.chip.topology.core(dst)
            chan = self._channels[key] = _Channel(
                self.sim, self.chip.telemetry.wants("rcce", "rendezvous",
                                                    f"core{src}"))
        return chan

    # -- point to point -----------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int, *,
             tag: int = 0) -> Generator[Any, Any, None]:
        """Blocking send; use as ``yield from comm.send(...)``.

        Completes when the receiver has posted the matching ``recv`` and
        the payload has been deposited where the receiver will read it.
        """
        if src == dst:
            raise ValueError("a core cannot send to itself")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        chan = self._channel(src, dst)
        tel = self.chip.telemetry
        # Rendezvous: wait until the receiver is ready (RCCE is synchronous).
        if chan.spans:
            t0 = self.sim.now
            yield chan.recv_posted.get()
            t1 = self.sim.now
            if t1 > t0:
                # The sender sat blocked on its downstream neighbour; the
                # insight engine charges this window as blocked time.
                tel.span("rcce", f"core{src}", "rendezvous", t0, t1,
                         src=src, dst=dst, tag=tag, bytes=nbytes)
        else:
            yield chan.recv_posted.get()

        yield from self.chip.memory.write_to(src, dst, nbytes)

        msg = Message(src, dst, nbytes, tag=tag)
        yield chan.data_ready.put(msg)
        self.messages_delivered += 1
        self.bytes_delivered += nbytes
        if self._count:
            tel.counters.inc("rcce.messages")
            tel.counters.inc("rcce.bytes", nbytes)
            tel.counters.inc("rcce.via_dram.messages")

    def recv(self, dst: int, src: int,
             idle_cb=None) -> Generator[Any, Any, Message]:
        """Blocking receive; returns the :class:`Message`.

        Use as ``msg = yield from comm.recv(dst, src)``.  ``idle_cb`` (if
        given) is called with the seconds spent *waiting* for the data to
        arrive — excluding the subsequent fetch from the local partition
        — which is how the paper's Fig. 15 idle times are defined.
        """
        chan = self._channel(src, dst)
        yield chan.recv_posted.put(None)
        wait_start = self.sim.now
        msg = yield chan.data_ready.get()
        if idle_cb is not None:
            idle_cb(self.sim.now - wait_start)
        # Fetch the strip back out of the private partition.
        yield from self.chip.memory.read_own(dst, msg.nbytes)
        return msg

    def __repr__(self) -> str:
        return (
            f"<RCCEComm delivered={self.messages_delivered} msgs "
            f"{self.bytes_delivered} B>"
        )
