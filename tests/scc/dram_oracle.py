"""Test-only bank-level DDR3 timing — the detailed model under a controller.

The flow-level :class:`~repro.scc.memory.MemorySystem` charges a flat
``bytes / mc_bandwidth``.  This oracle models what sets that bandwidth:
a DDR3-800 device with banks, open rows, and the tRCD/tRP/CL/burst
timing walk.  Streaming a frame strip is row-hit dominated, so the
effective bandwidth approaches the device peak and the flat per-byte
cost is a faithful, conservative summary
(``tests/scc/test_dram.py`` quantifies both regimes and
``tests/integration/test_cross_model_agreement.py`` checks that
``MemoryConfig.mc_bandwidth`` stays below it).  Scattered bursts (the
octree walk's random rows) miss the row buffer on every access.

Timing parameters follow DDR3-800 (5-5-5): 400 MHz command clock,
8n-prefetch bursts of 8 over an 8-byte device interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["DRAMTimings", "DRAMBankModel", "AccessStats"]


@dataclass(frozen=True)
class DRAMTimings:
    """DDR3-800 5-5-5 timing set (times in seconds)."""

    #: command-clock period (400 MHz for DDR3-800)
    t_ck: float = 2.5e-9
    #: RAS-to-CAS delay, cycles
    t_rcd: int = 5
    #: row precharge, cycles
    t_rp: int = 5
    #: CAS latency, cycles
    cl: int = 5
    #: burst length (column accesses per burst)
    burst_length: int = 8
    #: device data-bus width in bytes (x64 DIMM)
    bus_bytes: int = 8
    #: banks per rank
    banks: int = 8
    #: row (page) size in bytes
    row_bytes: int = 8192

    @property
    def burst_bytes(self) -> int:
        """Bytes delivered per burst (BL8 on a 64-bit bus = 64 B)."""
        return self.burst_length * self.bus_bytes

    @property
    def burst_time_s(self) -> float:
        """Data-bus occupancy of one burst (BL/2 command clocks, DDR)."""
        return (self.burst_length / 2) * self.t_ck

    @property
    def row_miss_penalty_s(self) -> float:
        """Extra time for a row conflict: precharge + activate."""
        return (self.t_rp + self.t_rcd) * self.t_ck

    @property
    def peak_bandwidth(self) -> float:
        """Row-hit streaming bandwidth in bytes/second."""
        return self.burst_bytes / self.burst_time_s


@dataclass
class AccessStats:
    """Counters from a sequence of accesses."""

    bursts: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_time_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        if total == 0:
            raise ValueError("no accesses recorded")
        return self.row_hits / total

    @property
    def effective_bandwidth(self) -> float:
        """Bytes/second over the recorded accesses."""
        if self.total_time_s <= 0:
            raise ValueError("no time recorded")
        return self.bursts * 64 / self.total_time_s  # informational


class DRAMBankModel:
    """Open-page DDR3 device: per-bank open-row tracking.

    The model is *analytic-in-the-loop*: :meth:`access` returns the time
    one burst takes given the bank state, without a DES (controller
    queueing lives in :class:`~repro.scc.memory.MemoryController`).
    """

    def __init__(self, timings: Optional[DRAMTimings] = None) -> None:
        self.timings = timings or DRAMTimings()
        if self.timings.banks < 1 or self.timings.row_bytes < 1:
            raise ValueError("banks and row_bytes must be positive")
        self._open_rows: Dict[int, int] = {}
        self.stats = AccessStats()

    # -- address mapping -----------------------------------------------------
    def locate(self, address: int) -> Tuple[int, int]:
        """``(bank, row)`` of an address (row-interleaved banks)."""
        if address < 0:
            raise ValueError("address must be >= 0")
        t = self.timings
        row_global = address // t.row_bytes
        return row_global % t.banks, row_global // t.banks

    # -- timing ------------------------------------------------------------
    def access(self, address: int) -> float:
        """One burst at ``address``; returns its service time.

        Row hits cost only the data-bus burst (the controller pipelines
        CAS latency under back-to-back bursts); a row transition pays
        precharge + activate + the first CAS serially.
        """
        t = self.timings
        bank, row = self.locate(address)
        open_row = self._open_rows.get(bank)
        time = t.burst_time_s
        if open_row == row:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
            time += t.row_miss_penalty_s + t.cl * t.t_ck
            self._open_rows[bank] = row
        self.stats.bursts += 1
        self.stats.total_time_s += time
        return time

    def stream_time(self, start: int, nbytes: int) -> float:
        """Total service time of a sequential transfer."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        t = self.timings
        total = 0.0
        addr = start
        end = start + nbytes
        while addr < end:
            total += self.access(addr)
            addr += t.burst_bytes
        return total

    def random_access_time(self, addresses) -> float:
        """Total service time of scattered bursts (octree-walk style)."""
        return sum(self.access(a) for a in addresses)

    def effective_stream_bandwidth(self, nbytes: int = 1 << 20) -> float:
        """Measured sequential bandwidth from a cold start."""
        model = DRAMBankModel(self.timings)
        time = model.stream_time(0, nbytes)
        return nbytes / time

    def reset(self) -> None:
        """Close all rows and clear statistics."""
        self._open_rows.clear()
        self.stats = AccessStats()
