"""Static layout of the Single-chip Cloud Computer.

The SCC (Intel Labs, 2010) arranges 48 P54C cores as 24 *tiles* on a
6x4 mesh of routers.  Each tile holds two cores, a router, and 16 KiB of
message-passing buffer (MPB).  Four DDR3 memory controllers sit on the
mesh boundary; every core's private DRAM partition lives behind the
controller of its quadrant.  A *system interface* (SIF) router connects
the chip to the management PC (MCPC) over PCIe.

This module is purely geometric/structural — no simulation state.  All
coordinates are ``(x, y)`` with ``x`` the column (0..5, west to east) and
``y`` the row (0..3, south to north), matching the EAS figures and the
paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "GRID_WIDTH",
    "GRID_HEIGHT",
    "NUM_TILES",
    "CORES_PER_TILE",
    "NUM_CORES",
    "NUM_MEMORY_CONTROLLERS",
    "MC_LOCATIONS",
    "SIF_LOCATION",
    "L1_BYTES",
    "L2_BYTES",
    "CACHE_WAYS",
    "CACHE_LINE_BYTES",
    "Coord",
    "Tile",
    "Core",
    "SCCTopology",
    "manhattan",
]

#: router grid dimensions (columns x rows)
GRID_WIDTH = 6
GRID_HEIGHT = 4
NUM_TILES = GRID_WIDTH * GRID_HEIGHT
CORES_PER_TILE = 2
NUM_CORES = NUM_TILES * CORES_PER_TILE
NUM_MEMORY_CONTROLLERS = 4

#: router coordinates the four DDR3 controllers attach to (EAS rev. 1.1)
MC_LOCATIONS: Tuple[Tuple[int, int], ...] = ((0, 0), (5, 0), (0, 2), (5, 2))

#: router coordinate of the system interface to the MCPC (PCIe)
SIF_LOCATION: Tuple[int, int] = (3, 0)

#: per-core caches: 16 KiB L1, 256 KiB L2, both 4-way set associative
L1_BYTES = 16 * 1024
L2_BYTES = 256 * 1024
CACHE_WAYS = 4
CACHE_LINE_BYTES = 32

Coord = Tuple[int, int]


def manhattan(a: Coord, b: Coord) -> int:
    """Manhattan (hop) distance between two router coordinates."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class Tile:
    """One tile: a router plus two cores and the tile-local MPB.

    Attributes
    ----------
    tile_id:
        Row-major index, ``tile_id = y * GRID_WIDTH + x``.
    x, y:
        Router coordinates on the mesh.
    """

    tile_id: int
    x: int
    y: int

    @property
    def coord(self) -> Coord:
        return (self.x, self.y)

    @property
    def core_ids(self) -> Tuple[int, int]:
        """The two cores on this tile (RCCE numbering: 2t and 2t+1)."""
        return (2 * self.tile_id, 2 * self.tile_id + 1)

    @property
    def voltage_domain(self) -> int:
        """Voltage-island index.

        The SCC groups tiles into six 2x2-tile voltage domains (RPC
        register spec); frequency is per-tile but supply voltage can only
        be set per domain — the reason the paper's DVFS experiment pays
        for eight cores when accelerating one blur core (its Fig. 18).
        """
        return (self.y // 2) * (GRID_WIDTH // 2) + (self.x // 2)


@dataclass(frozen=True)
class Core:
    """One P54C core.

    Attributes
    ----------
    core_id:
        Global index 0..47 (RCCE rank order).
    tile:
        The tile the core sits on.
    """

    core_id: int
    tile: Tile

    @property
    def coord(self) -> Coord:
        """Router coordinate (shared with the sibling core)."""
        return self.tile.coord

    @property
    def sibling_id(self) -> int:
        """Core id of the other core on the same tile."""
        return self.core_id ^ 1

    @property
    def memory_controller(self) -> int:
        """Index (0..3) of the MC that owns this core's private partition.

        The chip is split into four quadrants; each quadrant's twelve
        cores map to the controller on its corner (EAS default LUT
        configuration).
        """
        west = self.tile.x < GRID_WIDTH // 2
        south = self.tile.y < GRID_HEIGHT // 2
        if south:
            return 0 if west else 1
        return 2 if west else 3


@dataclass
class SCCTopology:
    """The full static structure: 24 tiles, 48 cores, 4 MCs, one SIF.

    Instances are cheap and immutable in practice; simulation state (link
    occupancy, MC queues, frequencies) lives in the dynamic models that
    take a topology as input.
    """

    tiles: List[Tile] = field(default_factory=list)
    cores: List[Core] = field(default_factory=list)
    _tile_by_coord: Dict[Coord, Tile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tiles:
            for tile_id in range(NUM_TILES):
                x, y = tile_id % GRID_WIDTH, tile_id // GRID_WIDTH
                tile = Tile(tile_id, x, y)
                self.tiles.append(tile)
                self._tile_by_coord[(x, y)] = tile
            for core_id in range(NUM_CORES):
                self.cores.append(Core(core_id, self.tiles[core_id // 2]))

    # -- lookups ------------------------------------------------------------
    def core(self, core_id: int) -> Core:
        """The :class:`Core` with the given global id."""
        if not 0 <= core_id < NUM_CORES:
            raise ValueError(f"core id {core_id} out of range 0..{NUM_CORES - 1}")
        return self.cores[core_id]

    def tile_at(self, coord: Coord) -> Tile:
        """The tile whose router sits at ``coord``."""
        try:
            return self._tile_by_coord[coord]
        except KeyError:
            raise ValueError(f"no tile at {coord!r}")

    def mc_coord(self, mc_index: int) -> Coord:
        """Router coordinate of memory controller ``mc_index``."""
        if not 0 <= mc_index < NUM_MEMORY_CONTROLLERS:
            raise ValueError(f"MC index {mc_index} out of range")
        return MC_LOCATIONS[mc_index]

    def cores_of_mc(self, mc_index: int) -> List[Core]:
        """All cores whose private partition lives behind ``mc_index``."""
        return [c for c in self.cores if c.memory_controller == mc_index]

    def hops(self, core_a: int, core_b: int) -> int:
        """Router hops between two cores (0 when they share a tile)."""
        return manhattan(self.core(core_a).coord, self.core(core_b).coord)

    def hops_to_mc(self, core_id: int, mc_index: int) -> int:
        """Router hops from a core to a memory controller."""
        return manhattan(self.core(core_id).coord, self.mc_coord(mc_index))

    def voltage_domain_tiles(self, domain: int) -> List[Tile]:
        """All tiles in a 2x2 voltage island."""
        tiles = [t for t in self.tiles if t.voltage_domain == domain]
        if not tiles:
            raise ValueError(f"no such voltage domain: {domain}")
        return tiles

    def ascii_map(self) -> str:
        """A small ASCII rendering of the chip (debugging aid)."""
        rows = []
        for y in reversed(range(GRID_HEIGHT)):
            cells = []
            for x in range(GRID_WIDTH):
                tile = self._tile_by_coord[(x, y)]
                tag = f"T{tile.tile_id:02d}"
                if (x, y) in MC_LOCATIONS:
                    tag += "*"
                elif (x, y) == SIF_LOCATION:
                    tag += "&"
                else:
                    tag += " "
                cells.append(tag)
            rows.append(" ".join(cells))
        rows.append("(* = memory controller, & = system interface)")
        return "\n".join(rows)
