"""Dynamic voltage/frequency control of the SCC.

Frequency is settable **per tile** (dividers off the 1.6 GHz global
clock); supply voltage only **per 2x2-tile voltage island** (RPC
registers).  Raising one tile's frequency therefore drags its island's
other seven cores to the higher voltage — the inefficiency the paper's
Figure 18 discusses, and what makes the "slow down the stages after blur"
trick (Fig. 17) pay off.

The controller keeps the invariant: *island voltage = the minimum voltage
that supports the fastest tile in the island*, per the frequency/voltage
table below (SCC Programmer's Guide operating points, matching the
paper's quoted pairs: 400 MHz @ 0.7 V, 533 MHz @ 1.1 V, 800 MHz @ 1.3 V).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry import NULL_TELEMETRY, Telemetry
from .topology import NUM_TILES, SCCTopology

__all__ = [
    "DEFAULT_FREQUENCY_MHZ",
    "VOLTAGE_TABLE",
    "required_voltage",
    "DVFSController",
]

#: the paper runs everything at 533 MHz unless stated otherwise
DEFAULT_FREQUENCY_MHZ = 533.0

#: minimal supply voltage per frequency ceiling (MHz -> volts)
VOLTAGE_TABLE: Tuple[Tuple[float, float], ...] = (
    (400.0, 0.7),
    (533.0, 1.1),
    (800.0, 1.3),
    (1198.0, 1.3),
)


def required_voltage(freq_mhz: float) -> float:
    """Minimum island voltage able to sustain ``freq_mhz``."""
    if freq_mhz <= 0:
        raise ValueError("frequency must be > 0")
    for ceiling, volts in VOLTAGE_TABLE:
        if freq_mhz <= ceiling:
            return volts
    raise ValueError(
        f"{freq_mhz} MHz exceeds the SCC maximum of {VOLTAGE_TABLE[-1][0]} MHz"
    )


class DVFSController:
    """Per-tile frequency and per-island voltage state.

    Parameters
    ----------
    topology:
        Chip structure (defines the tile→island mapping).

    Notes
    -----
    ``on_change`` callbacks (the power model subscribes) fire after every
    successful frequency update, with no arguments — subscribers re-read
    the state they need.
    """

    def __init__(self, topology: SCCTopology,
                 telemetry: Optional[Telemetry] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.topology = topology
        self._tile_freq: Dict[int, float] = {
            t: DEFAULT_FREQUENCY_MHZ for t in range(NUM_TILES)
        }
        #: each voltage island's tile ids, resolved on first use
        self._island_tiles: Dict[int, List[int]] = {}
        self._listeners: List[Callable[[], None]] = []
        self.telemetry = telemetry or NULL_TELEMETRY
        #: time source for telemetry events (the chip wires ``sim.now``)
        self._clock = clock or (lambda: 0.0)

    # -- queries ------------------------------------------------------------
    def tile_frequency(self, tile_id: int) -> float:
        """Clock of ``tile_id`` in MHz."""
        try:
            return self._tile_freq[tile_id]
        except KeyError:
            raise ValueError(f"no tile {tile_id}")

    def core_frequency(self, core_id: int) -> float:
        """Clock of ``core_id`` in MHz (cores share their tile's clock)."""
        return self._tile_freq[self.topology.core(core_id).tile.tile_id]

    def island_voltage(self, domain: int) -> float:
        """Current supply voltage of voltage island ``domain``."""
        tiles = self._island_tiles.get(domain)
        if tiles is None:
            tiles = self._island_tiles[domain] = [
                t.tile_id for t in self.topology.voltage_domain_tiles(domain)]
        return max(required_voltage(self._tile_freq[t]) for t in tiles)

    def core_voltage(self, core_id: int) -> float:
        """Supply voltage seen by ``core_id`` (its island's voltage)."""
        return self.island_voltage(
            self.topology.core(core_id).tile.voltage_domain
        )

    # -- control ------------------------------------------------------------
    def set_tile_frequency(self, tile_id: int, freq_mhz: float) -> float:
        """Set one tile's clock; returns the resulting island voltage.

        Raises on frequencies outside the SCC's range.  The island
        voltage rises automatically if needed (and falls when the fastest
        tile in the island slows down).
        """
        required_voltage(freq_mhz)  # validate range
        if tile_id not in self._tile_freq:
            raise ValueError(f"no tile {tile_id}")
        self._tile_freq[tile_id] = float(freq_mhz)
        for listener in self._listeners:
            listener()
        volts = self.island_voltage(
            self.topology.tiles[tile_id].voltage_domain)
        tel = self.telemetry
        if tel.enabled:
            tel.counters.inc("dvfs.changes")
            tel.counters.set_gauge(f"dvfs.tile{tile_id}.mhz", freq_mhz)
            tel.emit("dvfs", "set_frequency", self._clock(),
                     track="frequency", tile=tile_id, mhz=freq_mhz,
                     volts=volts)
        return volts

    def set_core_frequency(self, core_id: int, freq_mhz: float) -> float:
        """Set the clock of the tile that hosts ``core_id``.

        This is the granularity trap the paper describes: the sibling
        core changes speed too, and the whole island changes voltage.
        """
        tile_id = self.topology.core(core_id).tile.tile_id
        return self.set_tile_frequency(tile_id, freq_mhz)

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after every frequency change."""
        self._listeners.append(listener)

    def scaling_factor(self, core_id: int,
                       baseline_mhz: float = DEFAULT_FREQUENCY_MHZ) -> float:
        """Compute-time multiplier vs the 533 MHz baseline (<1 = faster)."""
        return baseline_mhz / self.core_frequency(core_id)
