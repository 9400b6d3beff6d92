"""Simulated Intel Single-chip Cloud Computer (SCC).

The substrate of the reproduction: a 48-core / 24-tile chip on a 6x4
mesh with four memory controllers, per-tile frequency and per-island
voltage control, and a calibrated power model.  The tiles'
message-passing buffers are not modelled: every message travels
through the receiver's DRAM partition, as the paper's pipeline sends
them.  See DESIGN.md §2 for the substitution argument (real silicon →
discrete-event model).
"""

from .chip import SCCChip, SCCConfig
from .dvfs import (
    DEFAULT_FREQUENCY_MHZ,
    DVFSController,
    VOLTAGE_TABLE,
    required_voltage,
)
from .memory import MemoryConfig, MemoryController, MemorySystem
from .mesh import Link, Mesh, MeshConfig, xy_route
from .power import PowerConfig, PowerModel
from .topology import (
    CACHE_LINE_BYTES,
    CACHE_WAYS,
    CORES_PER_TILE,
    GRID_HEIGHT,
    GRID_WIDTH,
    L1_BYTES,
    L2_BYTES,
    MC_LOCATIONS,
    NUM_CORES,
    NUM_MEMORY_CONTROLLERS,
    NUM_TILES,
    SIF_LOCATION,
    Core,
    SCCTopology,
    Tile,
    manhattan,
)

__all__ = [
    "SCCChip",
    "SCCConfig",
    "SCCTopology",
    "Tile",
    "Core",
    "manhattan",
    "Mesh",
    "MeshConfig",
    "Link",
    "xy_route",
    "MemorySystem",
    "MemoryConfig",
    "MemoryController",
    "DVFSController",
    "required_voltage",
    "VOLTAGE_TABLE",
    "DEFAULT_FREQUENCY_MHZ",
    "PowerModel",
    "PowerConfig",
    "GRID_WIDTH",
    "GRID_HEIGHT",
    "NUM_TILES",
    "NUM_CORES",
    "CORES_PER_TILE",
    "NUM_MEMORY_CONTROLLERS",
    "MC_LOCATIONS",
    "SIF_LOCATION",
    "L1_BYTES",
    "L2_BYTES",
    "CACHE_WAYS",
    "CACHE_LINE_BYTES",
]
