"""Shared resources for the discrete-event kernel.

Two primitives cover everything the SCC model needs:

* :class:`Resource` — ``capacity`` interchangeable servers with a FIFO wait
  queue.  Used for memory-controller ports, mesh links and router buffers.
* :class:`Store` — a FIFO buffer of Python objects with optional capacity.
  Used for stage input queues and UDP sockets.

All waiting is fair (strict FIFO) and deterministic; combined with the
kernel's deterministic tie-breaking this makes every simulation replayable
bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Deque, Generator, List, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

__all__ = ["Request", "Release", "Resource", "Store"]


class Request(Event):
    """Event returned by :meth:`Resource.request`.

    Succeeds when a unit of the resource is granted.  Must be paired with
    :meth:`Resource.release` (or used via the ``with``-style helper in
    process code: ``req = res.request(); yield req; ...; res.release(req)``).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Flat initialisation (no super() chain): one Request per link hop
        # and memory access makes this a hot allocation.
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self.resource = resource


class Release(Event):
    """Event returned by :meth:`Resource.release`; succeeds immediately."""

    __slots__ = ()


class Resource:
    """``capacity`` fungible servers with a FIFO queue.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Number of simultaneous holders (>= 1).
    name:
        Optional label for diagnostics and monitoring.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name or "resource"
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()
        # Monitoring hooks: total grant count and busy-time integral.
        self.grants = 0
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        # The one Release instance every release() returns: a release
        # completes synchronously, so the event is born processed and
        # carries no per-call state.
        self._released = rel = Release(sim)
        rel._ok = True
        rel._value = None
        rel.callbacks = None

    # -- introspection -----------------------------------------------------
    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiters)

    # -- operations -----------------------------------------------------------
    def request(self) -> Request:
        """Ask for one unit; the returned event succeeds when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> Release:
        """Return a previously granted unit."""
        if request.resource is not self:
            raise ValueError("request belongs to a different resource")
        try:
            self._users.remove(request)
        except ValueError:
            raise RuntimeError("releasing a request that was never granted")
        if self._waiters:
            self._grant(self._waiters.popleft())
        elif not self._users and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        # A release completes synchronously, so the returned event is
        # already processed (``callbacks is None``).  Yielding it resumes
        # the process immediately instead of burning a calendar hop on an
        # event nobody else can observe.
        return self._released

    def _grant(self, req: Request) -> None:
        sim = self.sim
        if not self._users and self._busy_since is None:
            self._busy_since = sim._now
        self._users.append(req)
        self.grants += 1
        # req.succeed(None) inlined, guards elided: a Request reaching
        # here is untriggered by construction.  1 == PRIORITY_NORMAL.  The
        # value stays None rather than the request itself: a request
        # referencing itself is a cycle only the cyclic GC can free.
        req._value = None
        req._scheduled = True
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, req))

    @property
    def utilization_until_now(self) -> float:
        """Fraction of elapsed time the resource was busy (>=1 holder)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / self.sim.now if self.sim.now > 0 else 0.0

    def acquire(self, hold: float) -> Generator[Event, Any, None]:
        """Convenience process fragment: request, hold for ``hold``, release.

        Use as ``yield from resource.acquire(duration)``.
        """
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(hold)
        finally:
            self.release(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {self.count}/{self.capacity} "
            f"queued={self.queue_length}>"
        )


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: Any) -> None:
        # Flat initialisation (no super() chain): allocated per hand-off.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self.item = item


class _StoreGet(Event):
    __slots__ = ()


class Store:
    """A FIFO buffer of arbitrary items with optional finite capacity.

    ``put`` blocks (the returned event stays pending) while the store is
    full; ``get`` blocks while it is empty.  Used to model bounded queues
    between pipeline stages and network sockets.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 name: Optional[str] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self.items: Deque[Any] = deque()
        self._putters: Deque[_StorePut] = deque()
        self._getters: Deque[_StoreGet] = deque()
        #: total number of items that have passed through (monitoring)
        self.total_put = 0
        #: high-water mark of queue occupancy (monitoring)
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> _StorePut:
        """Insert ``item``; the event succeeds once there is room."""
        event = _StorePut(self.sim, item)
        if len(self.items) < self.capacity:
            self._commit_put(event)
        else:
            self._putters.append(event)
        return event

    def get(self) -> _StoreGet:
        """Remove the oldest item; the event succeeds with the item."""
        event = _StoreGet(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
            self._drain_putters()
        else:
            self._getters.append(event)
        return event

    def _commit_put(self, event: _StorePut) -> None:
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(event.item)
        else:
            self.items.append(event.item)
            self.max_occupancy = max(self.max_occupancy, len(self.items))
        event.succeed()

    def _drain_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            self._commit_put(self._putters.popleft())

    def __repr__(self) -> str:
        return f"<Store {self.name!r} len={len(self.items)}/{self.capacity}>"
