"""Tests for DVFS control and the calibrated power model."""

import pytest

from repro.scc import (
    DVFSController,
    PowerConfig,
    PowerModel,
    SCCChip,
    SCCTopology,
    required_voltage,
)
from repro.sim import Simulator


@pytest.fixture()
def topo():
    return SCCTopology()


@pytest.fixture()
def dvfs(topo):
    return DVFSController(topo)


# ---------------------------------------------------------------------------
# voltage table / frequency control
# ---------------------------------------------------------------------------

def test_paper_operating_points():
    assert required_voltage(400.0) == pytest.approx(0.7)
    assert required_voltage(533.0) == pytest.approx(1.1)
    assert required_voltage(800.0) == pytest.approx(1.3)


def test_voltage_table_bounds():
    with pytest.raises(ValueError):
        required_voltage(0.0)
    with pytest.raises(ValueError):
        required_voltage(1300.0)


def test_default_frequency_everywhere(dvfs):
    for core in range(48):
        assert dvfs.core_frequency(core) == 533.0
        assert dvfs.core_voltage(core) == pytest.approx(1.1)


def test_set_tile_frequency_moves_both_cores(dvfs):
    dvfs.set_tile_frequency(0, 800.0)
    assert dvfs.core_frequency(0) == 800.0
    assert dvfs.core_frequency(1) == 800.0
    assert dvfs.core_frequency(2) == 533.0


def test_set_core_frequency_drags_sibling(dvfs):
    dvfs.set_core_frequency(10, 400.0)
    assert dvfs.core_frequency(11) == 400.0


def test_island_voltage_follows_fastest_tile(dvfs, topo):
    tile = topo.tiles[0]
    domain = tile.voltage_domain
    assert dvfs.island_voltage(domain) == pytest.approx(1.1)
    dvfs.set_tile_frequency(0, 800.0)
    assert dvfs.island_voltage(domain) == pytest.approx(1.3)
    # other tiles at 533 keep the island at 1.3 only while tile 0 is fast
    dvfs.set_tile_frequency(0, 533.0)
    assert dvfs.island_voltage(domain) == pytest.approx(1.1)


def test_island_voltage_cannot_drop_below_fastest(dvfs, topo):
    """Slowing one tile to 400 does not lower the island while a sibling
    tile still needs 1.1 V — the paper's Fig. 18 granularity problem."""
    domain0_tiles = [t.tile_id for t in topo.voltage_domain_tiles(0)]
    dvfs.set_tile_frequency(domain0_tiles[0], 400.0)
    assert dvfs.island_voltage(0) == pytest.approx(1.1)
    for t in domain0_tiles:
        dvfs.set_tile_frequency(t, 400.0)
    assert dvfs.island_voltage(0) == pytest.approx(0.7)


def test_invalid_tile_rejected(dvfs):
    with pytest.raises(ValueError):
        dvfs.set_tile_frequency(99, 533.0)
    with pytest.raises(ValueError):
        dvfs.tile_frequency(-1)


def test_scaling_factor(dvfs):
    dvfs.set_tile_frequency(0, 800.0)
    assert dvfs.scaling_factor(0) == pytest.approx(533.0 / 800.0)
    assert dvfs.scaling_factor(47) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# power model — calibration anchors from the paper
# ---------------------------------------------------------------------------

def make_power():
    sim = Simulator()
    topo = SCCTopology()
    dvfs = DVFSController(topo)
    return sim, PowerModel(topo, dvfs, PowerConfig(),
                           clock=lambda: sim.now), dvfs


def test_idle_power_is_22w():
    _, power, _ = make_power()
    assert power.current_power() == pytest.approx(22.0)


def test_27_active_cores_draw_about_50w():
    """MCPC config, 5 pipelines = 27 cores -> paper reports ~50 W."""
    _, power, _ = make_power()
    power.set_cores_active(range(27), True)
    assert power.current_power() == pytest.approx(50.0, abs=1.5)


def test_43_active_cores_draw_about_58w():
    """n-renderer config, 7 pipelines = 43 cores -> paper reports ~58 W."""
    _, power, _ = make_power()
    power.set_cores_active(range(43), True)
    assert power.current_power() == pytest.approx(58.0, abs=1.5)


def test_power_linear_in_active_cores():
    _, power, _ = make_power()
    readings = []
    for n in (7, 12, 17, 22, 27):
        power.set_cores_active(range(48), False)
        power.set_cores_active(range(n), True)
        readings.append(power.current_power())
    diffs = [b - a for a, b in zip(readings, readings[1:])]
    assert all(d == pytest.approx(diffs[0], rel=1e-6) for d in diffs)


def test_raising_blur_island_costs_4_to_5_watts():
    """§VI-D: 533->800 MHz on one tile adds ~4-5 W."""
    _, power, dvfs = make_power()
    power.set_cores_active(range(7), True)
    base = power.current_power()
    dvfs.set_tile_frequency(11, 800.0)  # a tile outside cores 0..6
    power.set_core_active(22, True)     # pretend blur moved to core 22
    power.set_core_active(2, False)
    boosted = power.current_power()
    assert 3.0 <= boosted - base <= 5.5


def test_downclocking_saves_power():
    _, power, dvfs = make_power()
    power.set_cores_active(range(8), True)  # cores 0..7 = tiles 0..3 = island 0+1
    base = power.current_power()
    for t in (0, 1, 2, 3):
        dvfs.set_tile_frequency(t, 400.0)
    assert power.current_power() < base


def test_energy_integrates_trace():
    sim, power, _ = make_power()

    def workload():
        power.set_cores_active(range(10), True)
        yield sim.timeout(10.0)
        power.set_cores_active(range(10), False)
        yield sim.timeout(5.0)

    sim.process(workload())
    sim.run()
    p_active = 22.0 + 14.5 + 10 * 0.5
    expected = p_active * 10.0 + 22.0 * 5.0
    assert power.energy() == pytest.approx(expected, rel=1e-6)
    assert power.average_power() == pytest.approx(expected / 15.0, rel=1e-6)


def test_average_power_empty_interval_rejected():
    _, power, _ = make_power()
    with pytest.raises(ValueError):
        power.average_power(0.0, 0.0)


def test_invalid_core_rejected():
    _, power, _ = make_power()
    with pytest.raises(ValueError):
        power.set_core_active(48, True)


# ---------------------------------------------------------------------------
# chip assembly
# ---------------------------------------------------------------------------

def test_chip_assembles_and_scales_compute():
    chip = SCCChip()
    assert chip.num_cores == 48
    assert chip.dvfs.core_frequency(0) == 533.0
    assert chip.compute_time(0, 1.0) == pytest.approx(1.0)
    chip.dvfs.set_core_frequency(0, 800.0)
    assert chip.compute_time(0, 1.0) == pytest.approx(533.0 / 800.0)
    with pytest.raises(ValueError):
        chip.compute_time(0, -1.0)


def test_chip_power_tracks_dvfs_changes():
    chip = SCCChip()
    before = chip.power.current_power()
    chip.dvfs.set_tile_frequency(5, 800.0)
    after = chip.power.current_power()
    assert after > before  # leakage at 1.3 V even with no active cores
