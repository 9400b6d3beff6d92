"""Test-only scalar oracle for the batched engine's jump bookkeeping.

This is the per-frame loop the wave jump built its frame records with
before :meth:`BatchedEngine._skip_frames` and :meth:`_Actor.synthesize`
became array operations: every skipped item ``i`` of a ``k``-frame
locked period is the item ``offset`` periods before the last observed
one, repeated ``m`` periods later, one Python step per skipped frame.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["replica", "skip_frames", "host_segments", "accrue"]


def replica(i: int, k: int) -> Tuple[int, int]:
    """Skipped item ``i`` (1-based) of a ``k``-frame locked period is
    item ``offset`` (``-k < offset <= 0``, relative to the last observed
    one) repeated ``m`` periods later."""
    m = -(-i // k)
    return i - m * k, m


def skip_frames(births: Dict[int, float], done: List[Tuple[int, float]],
                latencies: List[float], head: int, j: int, k: int,
                period: float) -> None:
    """Births, completions and latencies of ``j`` skipped frames."""
    for f in range(head + 1, head + j + 1):
        offset, m = replica(f - head, k)
        births[f] = births[head + offset] + m * period
    last_f = done[-1][0]
    n = len(done)
    for i in range(1, j + 1):
        offset, m = replica(i, k)
        f = last_f + i
        t = done[n - 1 + offset][1] + m * period
        done.append((f, t))
        birth = births.get(f)
        if birth is not None:
            latencies.append(t - birth)


def host_segments(segs: List[Tuple[float, float]], costs: np.ndarray,
                  a0: int, last: int, k: int, period: float) -> None:
    """Power segments of ``last`` skipped host frames after frame
    ``a0``, whose segment is ``segs[-1]``."""
    n = len(segs)
    for i in range(1, last + 1):
        offset, m = replica(i, k)
        segs.append((segs[n - 1 + offset][0] + m * period,
                     costs.item(a0 + i)))


def accrue(busy: float, accrued: float, waves: int) -> float:
    """A memory controller's busy time after ``waves`` skipped periods,
    one add per period."""
    for _ in range(waves):
        busy += accrued
    return busy
