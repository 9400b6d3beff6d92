"""Pipeline placements on the SCC grid (paper §IV-A, Figs 3-5).

Three arrangements are compared:

* **unordered** — stages take core ids in ascending numerical order, so
  pipelines wrap across rows of the chip mid-stream (Fig. 3);
* **ordered** — each pipeline runs west→east along one mesh row, giving
  one-way communication flow (Fig. 4);
* **flipped** — like ordered, but every second pipeline runs east→west,
  spreading the heavy head-of-pipeline stages over both sides' memory
  controllers (Fig. 5).

The paper's headline negative result is that the choice does not matter
— because all traffic bounces through the memory controllers anyway.
The placements below are faithful enough that the DES can demonstrate
that: ordered/flipped genuinely change the mesh paths and the MC mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..scc.topology import CORES_PER_TILE, GRID_HEIGHT, GRID_WIDTH, NUM_CORES

__all__ = ["ARRANGEMENTS", "Placement", "make_placement",
           "max_pipelines", "FILTERS_PER_PIPELINE", "dvfs_study_placement"]

ARRANGEMENTS = ("unordered", "ordered", "flipped")

#: sepia, blur, scratch, flicker, swap
FILTERS_PER_PIPELINE = 5


@dataclass
class Placement:
    """Core assignment for one configuration.

    ``input_cores`` holds the render stage cores (one per pipeline for
    the n-renderer configuration) or the single renderer / connect core.
    ``filter_cores[p][j]`` is pipeline ``p``'s j-th filter stage.
    """

    arrangement: str
    input_cores: List[int]
    filter_cores: List[List[int]]
    transfer_core: int

    def all_cores(self) -> List[int]:
        """Every core the configuration occupies (no duplicates)."""
        cores = list(self.input_cores)
        for chain in self.filter_cores:
            cores.extend(chain)
        cores.append(self.transfer_core)
        return cores

    def validate(self) -> None:
        cores = self.all_cores()
        if len(set(cores)) != len(cores):
            raise ValueError("placement assigns a core twice")
        for c in cores:
            if not 0 <= c < NUM_CORES:
                raise ValueError(f"core id {c} out of range")

    @property
    def num_pipelines(self) -> int:
        return len(self.filter_cores)

    @property
    def cores_used(self) -> int:
        return len(self.all_cores())


def max_pipelines(per_pipeline_input: bool,
                  arrangement: str = "unordered") -> int:
    """Largest pipeline count that ``arrangement`` can place on 48 cores.

    With a renderer per pipeline each pipeline needs 6 cores plus the
    shared transfer core: 7 pipelines (the paper's maximum).  With a
    shared input stage (single renderer or connect), 5 cores per
    pipeline plus 2 shared: 9 — the paper sweeps up to 8.  The
    row-aligned arrangements (ordered, flipped) give each pipeline one
    mesh row of one core layer, so they place at most 4 x 2 = 8.
    """
    if arrangement not in ARRANGEMENTS:
        raise ValueError(f"unknown arrangement {arrangement!r}; "
                         f"choose from {ARRANGEMENTS}")
    if per_pipeline_input:
        limit = (NUM_CORES - 1) // (FILTERS_PER_PIPELINE + 1)
    else:
        limit = (NUM_CORES - 2) // FILTERS_PER_PIPELINE
    if arrangement != "unordered":
        limit = min(limit, GRID_HEIGHT * CORES_PER_TILE)
    return limit


def dvfs_study_placement() -> Placement:
    """The paper's §VI-D frequency-tuning placement (its Fig. 18).

    One pipeline fed by the MCPC, with stages laid out so that voltage
    islands can be controlled independently:

    * connect and sepia share island 0 (stay at 533 MHz / 1.1 V);
    * **blur sits alone in island 3** — raising it to 800 MHz / 1.3 V
      drags only unused cores along ("it must be placed in a separated
      tile");
    * scratch, flicker, swap and transfer fill island 4 exactly, so the
      whole island can drop to 400 MHz / 0.7 V in the mixed experiment.
    """
    connect = _tile_core(0, 0, 0)   # island 0
    sepia = _tile_core(1, 0, 0)     # island 0
    blur = _tile_core(0, 2, 0)      # island 3, alone
    scratch = _tile_core(2, 2, 0)   # island 4
    flicker = _tile_core(3, 2, 0)   # island 4
    swap = _tile_core(2, 3, 0)      # island 4
    transfer = _tile_core(3, 3, 0)  # island 4
    placement = Placement(
        "dvfs-study",
        input_cores=[connect],
        filter_cores=[[sepia, blur, scratch, flicker, swap]],
        transfer_core=transfer,
    )
    placement.validate()
    return placement


class _CorePool:
    """Deterministic claim-with-fallback allocator."""

    def __init__(self) -> None:
        self.used: Set[int] = set()

    def claim(self, preferred: Optional[int] = None) -> int:
        if preferred is not None and 0 <= preferred < NUM_CORES \
                and preferred not in self.used:
            self.used.add(preferred)
            return preferred
        for c in range(NUM_CORES):
            if c not in self.used:
                self.used.add(c)
                return c
        raise ValueError("out of cores: configuration too large for the SCC")


def _tile_core(x: int, y: int, layer: int) -> int:
    """Core id of tile (x, y), core ``layer`` (0 or 1)."""
    return 2 * (y * GRID_WIDTH + x) + layer


def make_placement(arrangement: str, num_pipelines: int,
                   per_pipeline_input: bool) -> Placement:
    """Build the placement for a configuration.

    Parameters
    ----------
    arrangement:
        One of :data:`ARRANGEMENTS`.
    num_pipelines:
        Parallel pipelines (1..:func:`max_pipelines` for the arrangement).
    per_pipeline_input:
        True for the n-renderer configuration (a render core in front of
        every pipeline), False when a single shared stage (renderer or
        connect) feeds all pipelines.
    """
    limit = max_pipelines(per_pipeline_input, arrangement)
    if not 1 <= num_pipelines <= limit:
        raise ValueError(
            f"num_pipelines must be in 1..{limit} for this configuration "
            f"({arrangement})")

    pool = _CorePool()
    if arrangement == "unordered":
        placement = _unordered(pool, num_pipelines, per_pipeline_input)
    else:
        placement = _row_aligned(pool, num_pipelines, per_pipeline_input,
                                 flipped=(arrangement == "flipped"))
    placement.validate()
    return placement


def _unordered(pool: _CorePool, n: int, per_pipeline_input: bool) -> Placement:
    """Sequential core ids in stage order — the SCC's native numbering."""
    input_cores: List[int] = []
    filter_cores: List[List[int]] = []
    if not per_pipeline_input:
        input_cores.append(pool.claim())
    for _ in range(n):
        if per_pipeline_input:
            input_cores.append(pool.claim())
        filter_cores.append([pool.claim() for _ in range(FILTERS_PER_PIPELINE)])
    transfer = pool.claim()
    return Placement("unordered", input_cores, filter_cores, transfer)


def _row_aligned(pool: _CorePool, n: int, per_pipeline_input: bool,
                 flipped: bool) -> Placement:
    """Pipelines along mesh rows; ``flipped`` reverses odd pipelines."""
    name = "flipped" if flipped else "ordered"
    input_cores: List[int] = []
    filter_cores: List[List[int]] = []

    # Shared stages sit in the east column (kept free of filters below)
    # near the system interface at (3, 0).
    if not per_pipeline_input:
        input_cores.append(pool.claim(_tile_core(5, 0, 0)))
        transfer_pref = _tile_core(5, 1, 0)
    else:
        transfer_pref = _tile_core(5, 0, 1)

    stages_per_pipeline = FILTERS_PER_PIPELINE + (1 if per_pipeline_input else 0)
    for p in range(n):
        row = p % GRID_HEIGHT
        layer = p // GRID_HEIGHT
        columns = list(range(stages_per_pipeline))
        if flipped and p % 2 == 1:
            columns = list(reversed(columns))
        cores = [pool.claim(_tile_core(x, row, layer)) for x in columns]
        if per_pipeline_input:
            input_cores.append(cores[0])
            filter_cores.append(cores[1:])
        else:
            filter_cores.append(cores)
    transfer = pool.claim(transfer_pref)
    return Placement(name, input_cores, filter_cores, transfer)
