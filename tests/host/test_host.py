"""Tests for the MCPC and the UDP channel."""

import pytest

from repro.host import MCPC, MCPCConfig, UDPChannel, UDPConfig
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# UDP channel
# ---------------------------------------------------------------------------

def test_fragmentation_count():
    ch = UDPChannel(Simulator(), UDPConfig(mtu_payload=1000))
    assert ch.datagrams_for(0) == 0
    assert ch.datagrams_for(1) == 1
    assert ch.datagrams_for(1000) == 1
    assert ch.datagrams_for(1001) == 2
    with pytest.raises(ValueError):
        ch.datagrams_for(-1)


def test_transfer_time_includes_per_datagram_overhead():
    cfg = UDPConfig(mtu_payload=1000, bandwidth=1e6,
                    per_datagram_overhead=0.01, latency_s=0.1)
    ch = UDPChannel(Simulator(), cfg)
    # 2500 bytes -> 3 datagrams
    t = ch.transfer_time_uncontended(2500)
    assert t == pytest.approx(2500 / 1e6 + 3 * 0.01 + 0.1)


def test_transfer_advances_clock():
    sim = Simulator()
    cfg = UDPConfig(mtu_payload=1000, bandwidth=1e6,
                    per_datagram_overhead=0.0, latency_s=0.5)
    ch = UDPChannel(sim, cfg)

    def proc():
        yield from ch.transfer(1_000_000)

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(1.0 + 0.5)
    assert ch.bytes_sent == 1_000_000
    assert ch.datagrams_sent == 1000


def test_concurrent_transfers_serialize_on_link():
    sim = Simulator()
    cfg = UDPConfig(mtu_payload=10**9, bandwidth=1e6,
                    per_datagram_overhead=0.0, latency_s=0.0)
    ch = UDPChannel(sim, cfg)
    done = []

    def proc(tag):
        yield from ch.transfer(1_000_000)
        done.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert done[0][1] == pytest.approx(1.0)
    assert done[1][1] == pytest.approx(2.0)


def test_zero_bytes_costs_only_latency():
    sim = Simulator()
    ch = UDPChannel(sim, UDPConfig(latency_s=0.25))

    def proc():
        yield from ch.transfer(0)

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(0.25)


def test_udp_validation():
    with pytest.raises(ValueError):
        UDPChannel(Simulator(), UDPConfig(mtu_payload=0))
    sim = Simulator()
    ch = UDPChannel(sim)

    def proc():
        yield from ch.transfer(-1)

    sim.process(proc())
    with pytest.raises(ValueError):
        sim.run()


# ---------------------------------------------------------------------------
# MCPC
# ---------------------------------------------------------------------------

def test_mcpc_render_speedup_matches_paper():
    """94 s of SCC render time maps to ~3.3 s on the Xeon."""
    mcpc = MCPC(Simulator())
    assert mcpc.compute_time(94.0) == pytest.approx(3.3, rel=0.01)


def test_mcpc_compute_advances_clock_and_tracks_power():
    sim = Simulator()
    mcpc = MCPC(sim, MCPCConfig(speedup_vs_scc_core=10.0))

    def proc():
        yield from mcpc.compute(50.0)  # 5 s of host time

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(5.0)
    assert mcpc.busy_seconds == pytest.approx(5.0)
    # Energy: 5 s at 80 W.
    assert mcpc.energy(0.0, 5.0) == pytest.approx(400.0)
    assert mcpc.energy_above_idle(0.0, 5.0) == pytest.approx(5.0 * 28.0)


def test_mcpc_idle_power_52w():
    sim = Simulator()
    mcpc = MCPC(sim)

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run()
    assert mcpc.energy() == pytest.approx(520.0)


def test_mcpc_negative_duration_rejected():
    mcpc = MCPC(Simulator())
    with pytest.raises(ValueError):
        mcpc.compute_time(-1.0)


def test_paper_hybrid_energy_arithmetic():
    """3.3 s · 28 W = 92.4 J of host energy above idle (§VI-B)."""
    sim = Simulator()
    mcpc = MCPC(sim)

    def proc():
        yield from mcpc.compute(94.0)

    sim.process(proc())
    sim.run()
    assert mcpc.energy_above_idle() == pytest.approx(3.3 * 28.0, rel=0.02)

