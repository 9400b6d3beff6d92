"""Test-only exact set-associative cache (P54C L1 / SCC L2 geometry).

The timing model charges the filter stages a flat per-pixel cost that
does not depend on the strip size.  That is the paper's Fig. 12 result:
it expected processing time to jump once a strip stopped fitting the
256 KiB L2, and found no jump.  This address-accurate LRU simulator pins
the reason the flat cost is right:

1. the filter stages *stream* — one pass over the strip — so their miss
   rate is one compulsory miss per 32-byte line (4 B pixel / 32 B line =
   12.5 %), whether the working set is 10 KB or 640 KB;
2. only *re-use* (a second pass) would reward fitting in L2: a repeat
   pass hits every line while the strip fits and re-misses every line
   (LRU thrash) once it does not;
3. the macro pipeline never takes a second pass — each strip moves on
   to the next core — so Fig. 12 stays smooth.

``tests/scc/test_cache.py`` and
``tests/integration/test_cross_model_agreement.py`` drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.scc.topology import CACHE_LINE_BYTES, CACHE_WAYS, L2_BYTES

__all__ = ["CacheStats", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        return self.misses / self.accesses


class SetAssociativeCache:
    """Exact LRU set-associative cache with write-back/write-allocate.

    Parameters
    ----------
    size_bytes:
        Total capacity (must be ``ways * line_bytes * n_sets``).
    ways:
        Associativity.
    line_bytes:
        Cache-line size.
    """

    def __init__(
        self,
        size_bytes: int = L2_BYTES,
        ways: int = CACHE_WAYS,
        line_bytes: int = CACHE_LINE_BYTES,
    ) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError(
                f"size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // (ways * line_bytes)
        # Per set: list of (tag, dirty) in LRU order (front = LRU).
        self._sets: List[List[Tuple[int, bool]]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def access(self, address: int, write: bool = False) -> bool:
        """Touch one address; returns True on hit.

        On a miss the line is allocated (write-allocate); a dirty victim
        increments ``stats.writebacks``.
        """
        if address < 0:
            raise ValueError("address must be >= 0")
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        for i, (t, dirty) in enumerate(ways):
            if t == tag:
                ways.pop(i)
                ways.append((tag, dirty or write))
                self.stats.hits += 1
                return True
        # Miss: allocate, evicting LRU if the set is full.
        self.stats.misses += 1
        if len(ways) >= self.ways:
            _, victim_dirty = ways.pop(0)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
        ways.append((tag, write))
        return False

    def access_range(self, start: int, nbytes: int, write: bool = False,
                     stride: int = 1) -> CacheStats:
        """Touch ``nbytes`` starting at ``start`` with byte ``stride``.

        Returns the stats delta for this range (total stats also update).
        """
        if stride <= 0:
            raise ValueError("stride must be > 0")
        before = (self.stats.hits, self.stats.misses)
        addr = start
        end = start + nbytes
        while addr < end:
            self.access(addr, write)
            addr += stride
        delta = CacheStats()
        delta.hits = self.stats.hits - before[0]
        delta.misses = self.stats.misses - before[1]
        return delta

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines."""
        dirty = sum(1 for ways in self._sets for (_, d) in ways if d)
        self._sets = [[] for _ in range(self.n_sets)]
        return dirty

    @property
    def resident_bytes(self) -> int:
        """Bytes currently cached."""
        return sum(len(ways) for ways in self._sets) * self.line_bytes
