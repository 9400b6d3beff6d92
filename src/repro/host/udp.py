"""UDP-like channel between the MCPC and the SCC (and between cluster
nodes).

The paper streams every frame over UDP — MCPC→SCC through the PCIe
system interface in the heterogeneous configuration, and SCC→MCPC for
the visualization client.  Two properties matter for the results:

* **fragmentation** — "due to the size of the send and receive buffers,
  the images cannot be sent as a single message.  The images must be
  divided into multiple sub-images and sent one after another."  Each
  datagram pays a fixed per-packet overhead, which is what curves the
  Fig. 12 line and puts a floor under the connector stage's service time.
* **bandwidth** — the link is a single-server resource, so concurrent
  transfers (e.g. frames to several pipelines) serialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..sim import Resource, Simulator

__all__ = ["UDPConfig", "UDPChannel"]


@dataclass(frozen=True)
class UDPConfig:
    """Link parameters.

    Defaults model the dev kit's MCPC↔SCC path (PCIe with the slow SIF
    and kernel UDP stacks on both ends): an effective 10 MB/s with ~50 µs
    of per-datagram processing, 1472-byte payloads (Ethernet-style MTU
    minus headers, which the SCC-side driver mirrors).
    """

    #: payload bytes per datagram
    mtu_payload: int = 1472
    #: serialized bandwidth of the link in bytes/second
    bandwidth: float = 10e6
    #: fixed per-datagram cost (syscalls, driver, SIF crossing) in seconds
    per_datagram_overhead: float = 50e-6
    #: one-way propagation latency in seconds
    latency_s: float = 100e-6

    def __post_init__(self) -> None:
        if self.mtu_payload <= 0:
            raise ValueError("mtu_payload must be > 0")

    def datagrams_for(self, nbytes: int) -> int:
        """Number of datagrams a payload fragments into."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return 0
        return math.ceil(nbytes / self.mtu_payload)

    def hold_seconds(self, nbytes: int) -> float:
        """Time a payload holds the link: serialization plus the
        per-datagram cost of every fragment (no latency)."""
        return (nbytes / self.bandwidth
                + self.datagrams_for(nbytes) * self.per_datagram_overhead)


class UDPChannel:
    """A point-to-point UDP-like pipe with fragmentation and contention."""

    def __init__(self, sim: Simulator, config: Optional[UDPConfig] = None,
                 name: str = "udp") -> None:
        self.sim = sim
        self.config = config or UDPConfig()
        self.name = name
        self._link = Resource(sim, capacity=1, name=f"{name}-link")
        self.datagrams_sent = 0
        self.bytes_sent = 0

    # -- analytic ------------------------------------------------------------
    def datagrams_for(self, nbytes: int) -> int:
        """Number of datagrams a payload fragments into."""
        return self.config.datagrams_for(nbytes)

    def transfer_time_uncontended(self, nbytes: int) -> float:
        """Zero-load time to push ``nbytes`` through the channel."""
        return self.config.hold_seconds(nbytes) + self.config.latency_s

    # -- simulated ------------------------------------------------------------
    def transfer(self, nbytes: int) -> Generator[Any, Any, None]:
        """Process fragment moving ``nbytes``; holds the link while
        serializing (datagrams of one message are sent back-to-back)."""
        cfg = self.config
        self.datagrams_sent += cfg.datagrams_for(nbytes)
        self.bytes_sent += nbytes
        hold = cfg.hold_seconds(nbytes)
        if hold > 0.0:
            yield from self._link.acquire(hold)
        yield self.sim.timeout(cfg.latency_s)

    @property
    def utilization(self) -> float:
        """Busy fraction of the link so far."""
        return self._link.utilization_until_now

    def __repr__(self) -> str:
        return (
            f"<UDPChannel {self.name!r} sent={self.bytes_sent} B "
            f"in {self.datagrams_sent} datagrams>"
        )
