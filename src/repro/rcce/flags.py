"""RCCE flag variables — the chip's low-level synchronization primitive.

Real RCCE synchronizes through *flags*: single-byte variables living in
a core's MPB window (padded to a 32-byte cache line).  A producer
``RCCE_flag_write``s over the mesh; the consumer spins on its local copy
(``RCCE_wait_until``).  The paper's stages hand frames over with exactly
this pattern, and its power model's "polling cores burn power" behaviour
comes from those spin loops.

Here a flag is event-based (waiters sleep until the write arrives — the
DES equivalent of spinning, with identical timing) while the *write*
pays the real cost: one cache-line message across the mesh to the
owner's tile.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ..scc.chip import SCCChip
from ..scc.topology import CACHE_LINE_BYTES
from ..sim import Event

__all__ = ["FlagVariable", "FlagAllocator"]


class FlagVariable:
    """One flag in ``owner``'s MPB window.

    Values are small ints (RCCE uses 0/1); :meth:`wait_until` resumes
    when the flag holds the awaited value — immediately if it already
    does.
    """

    def __init__(self, chip: SCCChip, owner: int, initial: int = 0) -> None:
        chip.topology.core(owner)  # validate
        self.chip = chip
        self.owner = owner
        self._value = int(initial)
        self._waiters: List[Tuple[int, Event]] = []
        #: number of remote writes (monitoring)
        self.writes = 0

    @property
    def value(self) -> int:
        return self._value

    def write(self, writer: int, value: int) -> Generator[Any, Any, None]:
        """Set the flag from ``writer`` (one cache line over the mesh).

        Use as ``yield from flag.write(core, 1)``.  Writing from the
        owner itself is a local store (no mesh traffic).
        """
        src = self.chip.topology.core(writer).coord
        dst = self.chip.topology.core(self.owner).coord
        if writer != self.owner:
            yield from self.chip.mesh.transfer(src, dst, CACHE_LINE_BYTES)
        self.writes += 1
        self._value = int(value)
        still_waiting: List[Tuple[int, Event]] = []
        for awaited, event in self._waiters:
            if awaited == self._value:
                event.succeed(self._value)
            else:
                still_waiting.append((awaited, event))
        self._waiters = still_waiting

    def wait_until(self, value: int) -> Generator[Any, Any, int]:
        """Suspend until the flag equals ``value``; returns the value.

        Use as ``v = yield from flag.wait_until(1)``.
        """
        if self._value == int(value):
            return self._value
        event = Event(self.chip.sim)
        self._waiters.append((int(value), event))
        result = yield event
        return result

    def __repr__(self) -> str:
        return (f"<FlagVariable owner={self.owner} value={self._value} "
                f"waiters={len(self._waiters)}>")


class FlagAllocator:
    """Tracks flag allocations against each core's MPB space.

    RCCE reserves one cache line per flag inside the owner's 8 KiB
    window; allocating past the window fails, exactly like
    ``RCCE_flag_alloc`` running out of MPB space.
    """

    def __init__(self, chip: SCCChip) -> None:
        self.chip = chip
        self._allocated: Dict[int, int] = {}

    def alloc(self, owner: int, initial: int = 0) -> FlagVariable:
        """Allocate a flag in ``owner``'s window."""
        mpb = self.chip.mpb.of(owner)
        used = self._allocated.get(owner, 0)
        if used + CACHE_LINE_BYTES > mpb.capacity:
            raise MemoryError(
                f"core {owner}: MPB window exhausted "
                f"({used} B of {mpb.capacity} B in flags)")
        self._allocated[owner] = used + CACHE_LINE_BYTES
        return FlagVariable(self.chip, owner, initial)

    def allocated_bytes(self, owner: int) -> int:
        """Flag bytes currently allocated in ``owner``'s window."""
        return self._allocated.get(owner, 0)
