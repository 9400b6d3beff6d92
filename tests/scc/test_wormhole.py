"""Tests for the wormhole mesh and its agreement with the flow model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scc import Mesh, MeshConfig
from repro.scc.topology import GRID_HEIGHT, GRID_WIDTH
from .wormhole_oracle import WormholeConfig, WormholeMesh
from repro.sim import Simulator

coords = st.tuples(st.integers(0, GRID_WIDTH - 1),
                   st.integers(0, GRID_HEIGHT - 1))


def run_transfer(mesh_like, src, dst, nbytes):
    sim = mesh_like.sim
    done = {}

    def proc():
        yield from mesh_like.transfer(src, dst, nbytes)
        done["t"] = sim.now

    sim.process(proc())
    sim.run()
    return done["t"]


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        WormholeMesh(Simulator(), WormholeConfig(flit_bytes=0))


def test_flit_count():
    w = WormholeMesh(Simulator())
    assert w.flits_for(0) == 1    # header-only message
    assert w.flits_for(16) == 1
    assert w.flits_for(17) == 2
    with pytest.raises(ValueError):
        w.flits_for(-1)


def test_zero_load_latency_formula():
    cfg = WormholeConfig(flit_bytes=16, cycle_s=1e-6, router_cycles=4)
    w = WormholeMesh(Simulator(), cfg)
    # 3 hops, 160 bytes = 10 flits: 3*4us head + 10us body
    t = run_transfer(w, (0, 0), (3, 0), 160)
    assert t == pytest.approx(12e-6 + 10e-6)
    assert t == pytest.approx(w.transfer_time_uncontended((0, 0), (3, 0),
                                                          160))


def test_same_router_transfer():
    cfg = WormholeConfig(cycle_s=1e-6, router_cycles=4)
    w = WormholeMesh(Simulator(), cfg)
    assert run_transfer(w, (2, 2), (2, 2), 10_000) == pytest.approx(4e-6)


def test_negative_bytes_rejected():
    w = WormholeMesh(Simulator())
    sim = w.sim

    def proc():
        yield from w.transfer((0, 0), (1, 0), -1)

    sim.process(proc())
    with pytest.raises(ValueError):
        sim.run()


def test_worm_blocks_shared_link():
    """Two worms over the same link serialize (wormhole span holding)."""
    cfg = WormholeConfig(flit_bytes=16, cycle_s=1e-6, router_cycles=1)
    sim = Simulator()
    w = WormholeMesh(sim, cfg)
    done = []

    def sender(tag):
        yield from w.transfer((0, 0), (2, 0), 1600)  # 100 flits
        done.append((tag, sim.now))

    sim.process(sender("a"))
    sim.process(sender("b"))
    sim.run()
    # Second worm finishes roughly one body time after the first.
    assert done[1][1] - done[0][1] >= 100e-6 * 0.9


def test_head_of_line_blocking_across_crossing_paths():
    """A worm crossing a busy link waits even though the rest of its
    path is free — the effect the flow model approximates."""
    cfg = WormholeConfig(flit_bytes=16, cycle_s=1e-6, router_cycles=1)
    sim = Simulator()
    w = WormholeMesh(sim, cfg)
    done = {}

    def long_worm():
        yield from w.transfer((0, 0), (5, 0), 16_000)  # 1000 flits east
        done["long"] = sim.now

    def crossing():
        yield sim.timeout(5e-6)  # start mid-worm
        yield from w.transfer((2, 0), (2, 3), 160)
        done["cross"] = sim.now

    sim.process(long_worm())
    sim.process(crossing())
    sim.run()
    # Wait: the crossing worm's first hop (2,0)->(2,1) does NOT share a
    # link with the eastbound worm, so it must NOT be delayed.
    assert done["cross"] < done["long"]


def test_utilization_reported():
    cfg = WormholeConfig(cycle_s=1e-6, router_cycles=1)
    sim = Simulator()
    w = WormholeMesh(sim, cfg)
    run_transfer(w, (0, 0), (1, 0), 1600)
    assert w.link_utilization((0, 0), (1, 0)) > 0
    with pytest.raises(ValueError):
        w.link_utilization((0, 0), (5, 5))


# ---------------------------------------------------------------------------
# agreement with the flow-level model
# ---------------------------------------------------------------------------

def matched_models():
    """Flow mesh and wormhole mesh with equivalent raw parameters."""
    cfg_w = WormholeConfig(flit_bytes=16, cycle_s=1.25e-9, router_cycles=4)
    # Equivalent flow model: bandwidth = flit/cycle, hop latency = 4 cycles.
    cfg_f = MeshConfig(hop_latency_s=4 * 1.25e-9,
                       link_bandwidth=16 / 1.25e-9)
    return cfg_f, cfg_w


@given(coords, coords, st.integers(0, 4096))
@settings(max_examples=50, deadline=None)
def test_zero_load_latency_agreement(src, dst, nbytes):
    """Uncontended, the flow model tracks the wormhole model within the
    serialization-counting difference (bounded by 2x + one flit)."""
    cfg_f, cfg_w = matched_models()
    flow = Mesh(Simulator(), cfg_f)
    worm = WormholeMesh(Simulator(), cfg_w)
    t_flow = flow.transfer_time_uncontended(src, dst, nbytes)
    t_worm = worm.transfer_time_uncontended(src, dst, nbytes)
    hops = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
    if hops == 0:
        return
    # Flow pays serialization per hop; wormhole streams it once (plus
    # a mandatory head flit that the flow model omits for 0..16 bytes).
    assert t_worm <= t_flow + 1.25e-9 + 1e-12
    assert t_flow <= hops * t_worm + 16 * 1.25e-9


def test_contention_ordering_agreement():
    """Both models agree on who wins a contended link and that the
    loser is pushed back by about one message time."""
    cfg_f, cfg_w = matched_models()

    def race(mesh_like):
        sim = mesh_like.sim
        finish = {}

        def sender(tag, delay):
            yield sim.timeout(delay)
            yield from mesh_like.transfer((0, 0), (1, 0), 8192)
            finish[tag] = sim.now

        sim.process(sender("first", 0.0))
        sim.process(sender("second", 1e-9))
        sim.run()
        return finish

    f = race(Mesh(Simulator(), cfg_f))
    w = race(WormholeMesh(Simulator(), cfg_w))
    assert f["first"] < f["second"]
    assert w["first"] < w["second"]
    # The push-back magnitudes agree within 2x.
    gap_f = f["second"] - f["first"]
    gap_w = w["second"] - w["first"]
    assert 0.5 <= gap_f / gap_w <= 2.0
