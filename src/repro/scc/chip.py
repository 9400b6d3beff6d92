"""Assembly of the full SCC developer-kit chip model.

:class:`SCCChip` wires the static topology to the dynamic subsystems
(mesh, memory, DVFS, power) over one shared simulator.  Everything
higher up — RCCE, the pipeline runner, the benches — talks to this one
object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import Simulator
from ..telemetry import NULL_TELEMETRY, Telemetry
from .dvfs import DVFSController
from .memory import MemoryConfig, MemorySystem
from .mesh import Mesh, MeshConfig
from .power import PowerConfig, PowerModel
from .topology import NUM_CORES, SCCTopology

__all__ = ["SCCConfig", "SCCChip"]


@dataclass
class SCCConfig:
    """Bundle of all subsystem configurations.

    Benches construct variants of this to run ablations (e.g. the
    local-memory experiment flips ``memory.local_memory``).
    """

    mesh: MeshConfig = field(default_factory=MeshConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    power: PowerConfig = field(default_factory=PowerConfig)


class SCCChip:
    """The simulated Single-chip Cloud Computer.

    Parameters
    ----------
    sim:
        The simulator the chip lives in (shared with host models).
    config:
        Subsystem parameters; defaults reproduce the paper's setup.

    Attributes
    ----------
    topology, mesh, memory, dvfs, power:
        The assembled subsystems.
    """

    def __init__(self, sim: Optional[Simulator] = None,
                 config: Optional[SCCConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.sim = sim or Simulator()
        self.config = config or SCCConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        tel = self.telemetry
        self.topology = SCCTopology()
        self.mesh = Mesh(self.sim, self.config.mesh, telemetry=tel)
        self.memory = MemorySystem(self.sim, self.topology, self.mesh,
                                   self.config.memory, telemetry=tel)
        # the clock closes over the simulator, not the chip: a chip that
        # its own controller references lives on until a full GC pass
        sim = self.sim
        self.dvfs = DVFSController(self.topology, telemetry=tel,
                                   clock=lambda: sim.now)
        self.power = PowerModel(self.topology, self.dvfs, self.config.power,
                                telemetry=tel, clock=lambda: sim.now)

    @property
    def num_cores(self) -> int:
        return NUM_CORES

    def compute_time(self, core_id: int, seconds_at_533: float) -> float:
        """Scale a 533 MHz compute duration to the core's actual clock.

        All stage cost models are expressed at the paper's default
        533 MHz; this converts them for DVFS experiments.
        """
        if seconds_at_533 < 0:
            raise ValueError("duration must be >= 0")
        return seconds_at_533 * self.dvfs.scaling_factor(core_id)

    def __repr__(self) -> str:
        return f"<SCCChip cores={NUM_CORES} t={self.sim.now:.3f}s>"
