"""Cross-model agreement: the fidelity ladder must be self-consistent.

The timing model is the flow-level mesh and a flat memory-controller
rate.  Test-only oracles model the same hardware in more detail (a
flit-level wormhole mesh, bank-level DDR3 timing, an exact
set-associative cache).  These tests pin the ladder together: each
cheaper model must agree with its more detailed sibling in the regime
where the pipeline actually operates.
"""

import pytest

from repro.scc import Mesh, MeshConfig, MemoryConfig
from repro.sim import Simulator
from ..scc.cache_oracle import SetAssociativeCache
from ..scc.dram_oracle import DRAMBankModel
from ..scc.wormhole_oracle import WormholeConfig, WormholeMesh


def test_flow_mesh_bandwidth_is_conservative_vs_dram_banks():
    """The flat 300 MB/s controller rate must under-state what the
    bank-level model delivers for the pipeline's streaming pattern —
    the flow model never flatters the hardware."""
    bank_bw = DRAMBankModel().effective_stream_bandwidth(1 << 20)
    assert MemoryConfig().mc_bandwidth < bank_bw


def test_streaming_miss_rate_is_flat_across_strip_sizes():
    """For every Fig. 12 strip size, in or out of the 256 KiB L2, a
    streaming pass misses exactly once per 32-byte line: the flat
    per-pixel filter cost has no cache cliff to model."""
    for side in (50, 150, 250, 400):
        cache = SetAssociativeCache()
        nbytes = side * side * 4
        delta = cache.access_range(0, nbytes, stride=4)
        assert delta.misses == -(-nbytes // 32), side
        assert delta.miss_rate == pytest.approx(4 / 32, rel=0.01), side


def test_wormhole_and_flow_agree_on_strip_transfer_times():
    """A strip-sized message (91 KB, the 7-pipeline strip) crosses the
    chip in nearly the same time under both mesh models."""
    cfg_w = WormholeConfig(flit_bytes=16, cycle_s=1.25e-9, router_cycles=4)
    cfg_f = MeshConfig(hop_latency_s=4 * 1.25e-9,
                       link_bandwidth=16 / 1.25e-9)
    nbytes = 91_432
    for src, dst in (((0, 0), (5, 0)), ((0, 0), (5, 3)), ((2, 1), (3, 1))):
        t_w = WormholeMesh(Simulator(), cfg_w).transfer_time_uncontended(
            src, dst, nbytes)
        t_f = Mesh(Simulator(), cfg_f).transfer_time_uncontended(
            src, dst, nbytes)
        hops = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        # Flow over-counts serialization per hop; both are microseconds,
        # i.e. three orders below the 5+ ms copy cost they accompany.
        # One flit of rounding slack on the wormhole side.
        assert t_w <= t_f + cfg_w.cycle_s * 2
        assert t_f <= hops * t_w * 1.01
        assert t_f < 100e-6


def test_mesh_time_negligible_vs_handoff_budget():
    """The justification for not modeling flits in the hot path: the
    mesh leg of a strip hand-off is a small fraction of the
    copy+controller leg."""
    mem = MemoryConfig()
    strip = 91_432
    copy_leg = strip / mem.core_copy_bandwidth + strip / mem.mc_bandwidth
    mesh_leg = Mesh(Simulator()).transfer_time_uncontended((0, 0), (5, 3),
                                                           strip)
    # The flow model charges serialization per hop (conservative), yet
    # even the worst-case corner-to-corner path stays a small fraction
    # of the copy+controller budget and far below one millisecond.
    assert mesh_leg < 0.15 * copy_leg
    assert mesh_leg < 0.5e-3
