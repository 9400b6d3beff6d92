"""Tests for the bank-level DRAM oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from .dram_oracle import AccessStats, DRAMBankModel, DRAMTimings


def test_timings_derived_quantities():
    t = DRAMTimings()
    assert t.burst_bytes == 64
    assert t.burst_time_s == pytest.approx(4 * 2.5e-9)
    assert t.row_miss_penalty_s == pytest.approx(10 * 2.5e-9)
    # DDR3-800 x64 peak: 6.4 GB/s.
    assert t.peak_bandwidth == pytest.approx(6.4e9)


def test_locate_interleaves_banks():
    m = DRAMBankModel()
    bank0, row0 = m.locate(0)
    bank1, row1 = m.locate(8192)       # next row -> next bank
    assert bank0 == 0 and bank1 == 1
    assert row0 == row1 == 0
    bank8, row8 = m.locate(8 * 8192)   # wraps to bank 0, row 1
    assert bank8 == 0 and row8 == 1
    with pytest.raises(ValueError):
        m.locate(-1)


def test_first_access_is_a_row_miss_then_hits():
    m = DRAMBankModel()
    t_miss = m.access(0)
    t_hit = m.access(64)
    assert m.stats.row_misses == 1 and m.stats.row_hits == 1
    assert t_miss - t_hit == pytest.approx(
        m.timings.row_miss_penalty_s + m.timings.cl * m.timings.t_ck)


def test_row_conflict_in_same_bank():
    m = DRAMBankModel()
    m.access(0)                      # bank 0 row 0
    t = m.access(8 * 8192)           # bank 0 row 1 -> conflict
    assert m.stats.row_misses == 2
    assert t > m.timings.burst_time_s


def test_streaming_is_row_hit_dominated():
    """Sequential transfers hit the open row ~99% of the time — the
    justification for the flat mc_bandwidth in the flow model."""
    m = DRAMBankModel()
    m.stream_time(0, 1 << 20)
    assert m.stats.hit_rate > 0.98


def test_stream_bandwidth_near_peak():
    m = DRAMBankModel()
    bw = m.effective_stream_bandwidth(1 << 20)
    assert bw > 0.7 * m.timings.peak_bandwidth
    # And comfortably above the flow model's 300 MB/s controller rate,
    # so the flat rate is conservative.
    assert bw > 300e6


def test_random_access_much_slower_than_streaming():
    """Octree-walk style scattered bursts: every access conflicts."""
    t = DRAMTimings()
    seq = DRAMBankModel(t)
    seq_time = seq.stream_time(0, 64 * 1024)
    rnd = DRAMBankModel(t)
    # 1024 bursts, each in a fresh row of the same bank.
    addresses = [i * t.banks * t.row_bytes for i in range(1024)]
    rnd_time = rnd.random_access_time(addresses)
    assert rnd.stats.hit_rate == 0.0
    assert rnd_time > 1.5 * seq_time


def test_stats_validation():
    stats = AccessStats()
    with pytest.raises(ValueError):
        _ = stats.hit_rate
    with pytest.raises(ValueError):
        _ = stats.effective_bandwidth


def test_stream_validation_and_reset():
    m = DRAMBankModel()
    with pytest.raises(ValueError):
        m.stream_time(0, -1)
    m.stream_time(0, 4096)
    assert m.stats.bursts == 64
    m.reset()
    assert m.stats.bursts == 0
    # After reset the first access misses again.
    m.access(0)
    assert m.stats.row_misses == 1


def test_model_validation():
    with pytest.raises(ValueError):
        DRAMBankModel(DRAMTimings(banks=0))


@given(st.integers(0, 1 << 30))
@settings(max_examples=50)
def test_locate_stable_and_in_range(address):
    m = DRAMBankModel()
    bank, row = m.locate(address)
    assert 0 <= bank < m.timings.banks
    assert row >= 0
    assert m.locate(address) == (bank, row)


@given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=200))
@settings(max_examples=30)
def test_access_times_positive_and_accounted(addresses):
    m = DRAMBankModel()
    total = sum(m.access(a) for a in addresses)
    assert total == pytest.approx(m.stats.total_time_s)
    assert m.stats.bursts == len(addresses)
    assert m.stats.row_hits + m.stats.row_misses == len(addresses)
