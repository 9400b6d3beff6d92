"""Tests for the exact cache oracle, including the Fig. 12 streaming
argument (see ``tests/scc/cache_oracle.py``)."""

import pytest
from hypothesis import given, settings, strategies as st

from .cache_oracle import SetAssociativeCache


def test_geometry_validation():
    with pytest.raises(ValueError):
        SetAssociativeCache(size_bytes=0)
    with pytest.raises(ValueError):
        SetAssociativeCache(size_bytes=1000, ways=3, line_bytes=32)


def test_default_is_scc_l2():
    c = SetAssociativeCache()
    assert c.size_bytes == 256 * 1024
    assert c.ways == 4
    assert c.line_bytes == 32
    assert c.n_sets == 2048


def test_cold_miss_then_hit():
    c = SetAssociativeCache(size_bytes=1024, ways=2, line_bytes=32)
    assert c.access(0) is False
    assert c.access(0) is True
    assert c.access(31) is True   # same line
    assert c.access(32) is False  # next line
    assert c.stats.hits == 2 and c.stats.misses == 2


def test_negative_address_rejected():
    c = SetAssociativeCache(size_bytes=1024, ways=2, line_bytes=32)
    with pytest.raises(ValueError):
        c.access(-1)


def test_lru_eviction_order():
    # 1 set, 2 ways, 32B lines: set size 64B cache.
    c = SetAssociativeCache(size_bytes=64, ways=2, line_bytes=32)
    c.access(0)      # line A
    c.access(64)     # line B (same set)
    c.access(0)      # A becomes MRU
    c.access(128)    # evicts B (LRU)
    assert c.access(0) is True
    assert c.access(64) is False  # B was evicted
    assert c.stats.evictions >= 1


def test_writeback_counted_for_dirty_victims():
    c = SetAssociativeCache(size_bytes=64, ways=2, line_bytes=32)
    c.access(0, write=True)
    c.access(64)
    c.access(128)  # evicts dirty line 0
    assert c.stats.writebacks == 1


def test_flush_reports_dirty_lines():
    c = SetAssociativeCache(size_bytes=1024, ways=2, line_bytes=32)
    c.access(0, write=True)
    c.access(100, write=False)
    assert c.flush() == 1
    assert c.resident_bytes == 0
    assert c.access(0) is False  # everything gone


def test_access_range_stride():
    c = SetAssociativeCache(size_bytes=4096, ways=4, line_bytes=32)
    delta = c.access_range(0, 1024, stride=32)
    assert delta.misses == 32 and delta.hits == 0
    delta2 = c.access_range(0, 1024, stride=32)
    assert delta2.hits == 32 and delta2.misses == 0
    with pytest.raises(ValueError):
        c.access_range(0, 10, stride=0)


def test_working_set_within_capacity_fully_hits_on_repass():
    """A working set smaller than the cache is fully resident."""
    c = SetAssociativeCache(size_bytes=8192, ways=4, line_bytes=32)
    c.access_range(0, 4096, stride=32)
    again = c.access_range(0, 4096, stride=32)
    assert again.misses == 0


def test_working_set_exceeding_capacity_thrashes_on_repass():
    """Sequential streaming beyond capacity re-misses everything (LRU)."""
    c = SetAssociativeCache(size_bytes=1024, ways=4, line_bytes=32)
    c.access_range(0, 4096, stride=32)
    again = c.access_range(0, 4096, stride=32)
    assert again.hits == 0


def test_streaming_miss_rate_independent_of_working_set():
    """The Fig. 12 effect: single-pass streaming misses once per line
    whether or not the strip fits in L2."""
    for nbytes in (8 * 1024, 64 * 1024, 512 * 1024):
        c = SetAssociativeCache()  # 256 KiB L2
        delta = c.access_range(0, nbytes, stride=4)  # pixel-wise pass
        assert delta.miss_rate == pytest.approx(4 / 32)


def test_stats_miss_rate_requires_accesses():
    c = SetAssociativeCache()
    with pytest.raises(ValueError):
        _ = c.stats.miss_rate


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
@settings(max_examples=30)
def test_occupancy_never_exceeds_capacity(addresses):
    c = SetAssociativeCache(size_bytes=2048, ways=2, line_bytes=32)
    for a in addresses:
        c.access(a)
    assert c.resident_bytes <= c.size_bytes
    assert c.stats.accesses == len(addresses)


@given(st.lists(st.integers(0, 4096), min_size=1, max_size=200))
@settings(max_examples=30)
def test_immediate_reaccess_always_hits(addresses):
    c = SetAssociativeCache(size_bytes=2048, ways=2, line_bytes=32)
    for a in addresses:
        c.access(a)
        assert c.access(a) is True

