"""The paper's §VI findings, each written down once.

The first half holds the reference values transcribed from the paper.
They are data: the reproduction targets the *shape* (who wins, by what
factor, where curves flatten or cross), not exact seconds measured on
2012 silicon.

The second half is :data:`FINDINGS`, one :class:`Finding` per claim: the
runs it reads, an extractor, the paper's value and the band the model
must land in.  Three readers share that one table: the golden test
``tests/golden/test_paper_document.py``, the numeric tables of
EXPERIMENTS.md (between ``<!-- paper:NAME -->`` markers, rewritten by
``pytest tests/golden --update-goldens``) and ``python -m repro paper``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis import analyze_telemetry, verdict_from_result
from ..cluster import CLUSTER_CONFIGURATIONS, ClusterRunner
from ..pipeline import FILTER_KEYS, CostModel, PipelineRunner, default_workload
from ..pipeline.arrangements import ARRANGEMENTS, dvfs_study_placement
from ..scc import MemoryConfig, MeshConfig, SCCConfig
from ..telemetry import Telemetry

__all__ = [
    "TABLE1",
    "TABLE1_PIPELINES",
    "BASELINE_SINGLE_CORE_S",
    "RENDER_ONLY_S",
    "RENDER_TRANSFER_ONLY_S",
    "FIG8_STAGE_SECONDS",
    "FIG12_SIDES",
    "FIG15_IDLE_MS",
    "FIG16_WALKTHROUGH_S",
    "FIG17_POWER_W",
    "FREQUENCY_PLANS",
    "ENERGY_HYBRID_J",
    "ENERGY_NREND_J",
    "POWER_IDLE_W",
    "POWER_MCPC_5PL_W",
    "POWER_NREND_7PL_W",
    "MCPC_RENDER_SECONDS",
    "MCPC_IDLE_W",
    "MCPC_RENDER_W",
    "SPEEDUPS",
    "Band",
    "Run",
    "Finding",
    "FINDINGS",
    "simulate",
    "batched_decisions",
    "evaluate",
    "failures",
    "format_value",
    "render_tables",
    "render_document",
]

#: pipeline counts of Table I's columns
TABLE1_PIPELINES = (1, 2, 3, 4, 5, 6, 7)

#: Table I, seconds per walkthrough; rows keyed (config, arrangement)
TABLE1: Dict[Tuple[str, str], List[int]] = {
    ("one_renderer", "unordered"): [207, 107, 102, 102, 102, 101, 101],
    ("one_renderer", "ordered"): [208, 108, 104, 103, 102, 101, 101],
    ("one_renderer", "flipped"): [208, 107, 102, 102, 102, 101, 101],
    ("n_renderers", "unordered"): [235, 117, 78, 69, 65, 62, 58],
    ("n_renderers", "ordered"): [236, 118, 79, 68, 65, 61, 58],
    ("n_renderers", "flipped"): [236, 117, 79, 68, 65, 61, 59],
    ("mcpc_renderer", "unordered"): [231, 113, 72, 54, 54, 55, 54],
    ("mcpc_renderer", "ordered"): [231, 112, 70, 54, 53, 55, 54],
    ("mcpc_renderer", "flipped"): [232, 113, 72, 54, 51, 54, 54],
    ("hpc_external_renderer", "cluster"): [32, 24, 20, 20, 19, 20, 18],
    ("hpc_single_renderer", "cluster"): [26, 14, 10, 7, 6, 5, 4],
    ("hpc_parallel_renderer", "cluster"): [25, 14, 10, 8, 6, 5, 4],
}

#: §VI-A anchors: the whole pipeline on one core, and reduced pipelines
BASELINE_SINGLE_CORE_S = 382.0
RENDER_ONLY_S = 94.0
RENDER_TRANSFER_ONLY_S = 104.0

#: Fig. 8 per-stage seconds-per-frame on one core (derived in
#: DESIGN.md §5 from the text's anchors; the figure itself is unlabeled)
FIG8_STAGE_SECONDS: Dict[str, float] = {
    "render": 0.235,
    "sepia": 0.095,
    "blur": 0.465,
    "scratch": 0.015,
    "flicker": 0.075,
    "swap": 0.055,
    "transfer": 0.025,
}

#: Fig. 12 image side lengths (the x axis, with its "data in kb" labels)
FIG12_SIDES = (50, 100, 150, 200, 250, 300, 350, 400)

#: Fig. 15 median idle times (ms) with the MCPC renderer, 7 pipelines;
#: blur and scratch are quoted in the text, the rest read off the plot
FIG15_IDLE_MS: Dict[str, float] = {
    "sepia": 110.0,
    "blur": 58.0,
    "scratch": 133.0,
    "flicker": 120.0,
    "swap": 95.0,
}

#: the three §VI-D frequency settings (stage key -> MHz; None leaves
#: every tile at 533 MHz), run on :func:`dvfs_study_placement`
FREQUENCY_PLANS: Dict[str, Optional[Dict[str, float]]] = {
    "all_533": None,
    "blur_800": {"blur": 800.0},
    "mixed": {"blur": 800.0, "scratch": 400.0, "flicker": 400.0,
              "swap": 400.0, "transfer": 400.0},
}

#: Fig. 16: walkthrough seconds for the three §VI-D frequency settings
FIG16_WALKTHROUGH_S = {"all_533": 236.0, "blur_800": 174.0, "mixed": 175.0}

#: Fig. 17: approximate steady power (W) for the same three settings
FIG17_POWER_W = {"all_533": 40.5, "blur_800": 44.0, "mixed": 39.0}

#: §VI-B energy arithmetic
ENERGY_HYBRID_J = 2642.0     # 3.3 s · 28 W + 51 s · 50 W
ENERGY_NREND_J = 3364.0      # 58 s · 58 W
POWER_IDLE_W = 22.0
POWER_MCPC_5PL_W = 50.0
POWER_NREND_7PL_W = 58.0
MCPC_RENDER_SECONDS = 3.3
MCPC_IDLE_W = 52.0
MCPC_RENDER_W = 80.0

#: speed-ups quoted in §VI-A (w.r.t. one pipeline, w.r.t. one core)
SPEEDUPS: Dict[str, Dict[str, float]] = {
    "one_renderer": {"max_vs_pipeline": 2.06, "max_vs_core": 3.44},
    "n_renderers": {"max_vs_pipeline": 4.05, "max_vs_core": 6.89},
    "mcpc_renderer": {"max_vs_pipeline": 4.57, "max_vs_core": 7.49},
}


# ---------------------------------------------------------------------------
# the table of findings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Band:
    """Where a finding's model value must land.

    An interval (either end may be open or infinite), or one exact
    ``expect`` value for categorical findings ("blur waits least").
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    expect: Any = None
    #: how the band prints (empty: from the bounds)
    text: str = ""

    def holds(self, value: Any) -> bool:
        if self.expect is not None:
            return bool(value == self.expect)
        above = value > self.lo if self.lo_open else value >= self.lo
        below = value < self.hi if self.hi_open else value <= self.hi
        return bool(above and below)

    def __str__(self) -> str:
        if self.text:
            return self.text
        if self.expect is not None:
            return f"= {self.expect}"
        if self.lo == -math.inf and self.hi == math.inf:
            return "—"
        if self.lo == -math.inf:
            return f"{'<' if self.hi_open else '≤'} {self.hi:g}"
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '≥'} {self.lo:g}"
        return (f"{'(' if self.lo_open else '['}{self.lo:.4g}, "
                f"{self.hi:.4g}{')' if self.hi_open else ']'}")


def near(paper: float, rel: float = 0.0, abs_: float = 0.0) -> Band:
    """``pytest.approx(paper, rel=rel, abs=abs_)`` as a band."""
    tol = max(rel * abs(paper), abs_)
    text = " or ".join(t for t in (f"±{rel * 100:g} %" if rel else "",
                                   f"±{abs_:g}" if abs_ else "") if t)
    return Band(paper - tol, paper + tol, text=text)


def below(hi: float) -> Band:
    return Band(hi=hi, hi_open=True)


def above(lo: float) -> Band:
    return Band(lo=lo, lo_open=True)


def equals(value: Any) -> Band:
    return Band(expect=value)


@dataclass(frozen=True)
class Run:
    """One simulation a finding reads.

    A cluster configuration runs the Mogon model; any other runs
    :class:`PipelineRunner` on ``engine``.  ``plan`` names a
    :data:`FREQUENCY_PLANS` setting on the §VI-D placement, ``chip`` an
    ablation chip, and ``insight`` returns the run's trace insights
    instead of its result.
    """

    config: str
    pipelines: int = 1
    arrangement: str = "ordered"
    engine: str = "batched"
    frames: int = 400
    image_side: int = 400
    power_trace_dt: Optional[float] = None
    plan: Optional[str] = None
    chip: Optional[str] = None
    insight: bool = False


#: the ablation chips (beyond the paper): Cell-style local stores, no
#: mesh-link serialization, memory controllers of unbounded bandwidth
ABLATION_CHIPS = {
    "local_memory": SCCConfig(memory=MemoryConfig(local_memory=True)),
    "no_mesh_contention": SCCConfig(mesh=MeshConfig(model_contention=False)),
    "infinite_mc": SCCConfig(memory=MemoryConfig(mc_bandwidth=1e12)),
}


@lru_cache(maxsize=None)
def _simulated(run: Run) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """``run``'s result and, on the batched engine, its decisions
    (memoized: runs are deterministic)."""
    if run.config in CLUSTER_CONFIGURATIONS:
        return ClusterRunner(config=run.config, pipelines=run.pipelines,
                             frames=run.frames).run(), None
    kw: Dict[str, Any] = {}
    if run.plan is not None:
        kw.update(placement=dvfs_study_placement(),
                  frequency_plan=FREQUENCY_PLANS[run.plan])
    telemetry = Telemetry() if run.insight else None
    runner = PipelineRunner(
        config=run.config, pipelines=run.pipelines,
        arrangement=run.arrangement, frames=run.frames,
        image_side=run.image_side, power_trace_dt=run.power_trace_dt,
        chip_config=ABLATION_CHIPS[run.chip] if run.chip else None,
        telemetry=telemetry, engine=run.engine, **kw)
    decisions = None
    if run.engine == "batched":
        # Imported lazily, as PipelineRunner.run does: importing
        # repro.report does not load the engines.
        from ..engine import BatchedEngine

        engine = BatchedEngine(runner)
        result = engine.run()
        decisions = {
            "frames_simulated": engine.frames_simulated,
            "jumps": engine.jumps,
            "strides": engine.strides,
            "births": runner.last_metrics.frame_birth,
            "completions": runner.last_metrics.frame_completions,
        }
    else:
        result = runner.run()
    if run.insight:
        result = analyze_telemetry(telemetry, result)
    return result, decisions


def simulate(run: Run) -> Any:
    """``run``'s result (memoized: runs are deterministic)."""
    return _simulated(run)[0]


def batched_decisions(run: Run) -> Optional[Dict[str, Any]]:
    """What the batched engine decided in ``simulate(run)``: the frames
    it simulated, its ``(frame, J, period)`` jumps and their strides,
    and each frame's birth and completion; None on the other engines."""
    return _simulated(run)[1]


@lru_cache(maxsize=None)
def stage_seconds_single_core() -> Dict[str, float]:
    """Fig. 8: per-stage seconds over the walkthrough on one core."""
    workload = default_workload()
    cost = CostModel()
    totals = {k: 0.0 for k in ("render", *FILTER_KEYS, "transfer")}
    for frame in range(workload.frames):
        profile = workload.profile(frame)
        totals["render"] += cost.render_seconds(profile)
        for key in FILTER_KEYS:
            totals[key] += cost.filter_seconds(key, profile.pixels)
        # transfer = assemble + the 640 KB UDP send to the viewer
        totals["transfer"] += cost.assemble_seconds(profile.pixels) + 0.020
    return totals


@dataclass(frozen=True)
class Finding:
    """One claim: ``measure(*results of runs)`` must land in ``band``.

    Findings with a ``column`` print as a grid (one line per label);
    the others print one line each.
    """

    section: str
    label: str
    runs: Tuple[Run, ...]
    measure: Callable[..., Any]
    band: Band = Band()
    paper: Any = None
    column: Any = None
    fmt: str = "{:.1f}"

    @property
    def key(self) -> str:
        tail = "" if self.column is None else f"/{self.column}"
        return f"{self.section}/{self.label}{tail}"

    def value(self) -> Any:
        return self.measure(*(simulate(r) for r in self.runs))


def _scc(config: str, n: int = 1, arrangement: str = "ordered",
         **kw: Any) -> Run:
    return Run(config=config, pipelines=n, arrangement=arrangement, **kw)


def _wt(result: Any) -> float:
    return float(result.walkthrough_seconds)


def _spread(*results: Any) -> float:
    """max/min of the walkthrough times."""
    times = [_wt(r) for r in results]
    return max(times) / min(times)


def _argmin(values: Dict[Any, float]) -> Any:
    return min(values, key=lambda k: values[k])


def _argmax(values: Dict[Any, float]) -> Any:
    return max(values, key=lambda k: values[k])


def _median_idle(result: Any) -> Dict[str, float]:
    return {k: result.idle_quartiles[k][1] for k in FILTER_KEYS}


def _verdict(filters_only: bool = False) -> Callable[[Any], str]:
    def stage_and_resource(result: Any) -> str:
        v = verdict_from_result(result, filters_only=filters_only)
        return v.stage if filters_only else f"{v.stage}/{v.resource}"
    return stage_and_resource


def _confidence(filters_only: bool = False) -> Callable[[Any], float]:
    return lambda r: verdict_from_result(r, filters_only).confidence


def _trace_range(result: Any) -> float:
    """Power swing (W) while the pipeline runs (a second in from each end)."""
    watts = [w for t, w in result.power_trace
             if 1.0 < t < result.walkthrough_seconds - 1.0]
    return max(watts) - min(watts)


def _step_deviation(watts: Sequence[float]) -> float:
    """Largest relative deviation of a step from the first step."""
    steps = [b - a for a, b in zip(watts, watts[1:])]
    return max(abs(d - steps[0]) / abs(steps[0]) for d in steps)


def _blur_wait_accumulated(insight: Any) -> float:
    """Blur's starved seconds, mean over pipelines, scaled to 400 frames."""
    starved = [insight.tracks[f"blur[{p}]"].seconds.get("starved", 0.0)
               for p in range(7)]
    return statistics.mean(starved) / FIG15_INSIGHT_FRAMES * 400


def _upstream_story(insight: Any) -> int:
    """Pipelines whose blur is starved by sepia and whose scratch idles
    mostly while blur works (the Fig. 15 prose)."""
    return sum(
        insight.tracks[f"blur[{p}]"].upstream == f"sepia[{p}]"
        and sum(insight.tracks[f"blur[{p}]"].starved_by.values()) > 0.0
        and insight.tracks[f"scratch[{p}]"].upstream == f"blur[{p}]"
        and insight.dominant_idle_cause(f"scratch[{p}]") == "upstream_working"
        for p in range(7))


SCC_CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")
FIG15_INSIGHT_FRAMES = 50
SINGLE_CORE = Run("single_core")
DVFS = {name: Run("mcpc_renderer", plan=name, power_trace_dt=5.0)
        for name in FREQUENCY_PLANS}


def _findings() -> Tuple[Finding, ...]:
    rows: List[Finding] = []

    def add(section: str, label: str, runs: Sequence[Run],
            measure: Callable[..., Any], band: Band = Band(),
            paper: Any = None, **kw: Any) -> None:
        rows.append(Finding(section, label, tuple(runs), measure, band,
                            paper, **kw))

    # -- §VI-A anchors and Fig. 8 -------------------------------------
    totals = stage_seconds_single_core
    add("anchors", "whole pipeline on one core (s)", [SINGLE_CORE], _wt,
        near(BASELINE_SINGLE_CORE_S, rel=0.05), BASELINE_SINGLE_CORE_S)
    add("anchors", "render stage only (s)", [],
        lambda: totals()["render"], near(RENDER_ONLY_S, rel=0.10),
        RENDER_ONLY_S)
    add("anchors", "render + transfer (s)", [],
        lambda: totals()["render"] + totals()["transfer"],
        near(RENDER_TRANSFER_ONLY_S, rel=0.10), RENDER_TRANSFER_ONLY_S)
    for stage, sec in FIG8_STAGE_SECONDS.items():
        add("anchors", f"Fig. 8 {stage} (ms/frame)", [],
            lambda s=stage: totals()[s] / 400 * 1e3,
            near(sec * 1e3, rel=0.10), sec * 1e3, fmt="{:.0f}")
    add("anchors", "Fig. 8 most expensive filter", [],
        lambda: _argmax({k: totals()[k] for k in FILTER_KEYS}),
        equals("blur"), "blur")
    for config, n, paper in (("one_renderer", 1, 207.0),
                             ("one_renderer", 7, 101.0),
                             ("n_renderers", 7, 58.0),
                             ("mcpc_renderer", 5, 53.0)):
        add("anchors", f"{config}, {n} pl. (s)", [_scc(config, n)], _wt,
            near(paper, rel=0.12), paper)
    for config, n in (("one_renderer", 7), ("n_renderers", 7)):
        ref = SPEEDUPS[config]["max_vs_core"]
        add("anchors", f"{config} speed-up vs one core, {n} pl.",
            [SINGLE_CORE, _scc(config, n)],
            lambda base, r: r.speedup_vs(base.walkthrough_seconds),
            near(ref, rel=0.2), ref, fmt="{:.2f}")
    ref = SPEEDUPS["mcpc_renderer"]["max_vs_core"]
    add("anchors", "mcpc_renderer best speed-up vs one core (1-8 pl.)",
        [SINGLE_CORE, *(_scc("mcpc_renderer", n) for n in range(1, 9))],
        lambda base, *rs: _wt(base) / min(map(_wt, rs)),
        near(ref, rel=0.2), ref, fmt="{:.2f}")
    for n in (1, 2):
        add("anchors", f"configurations equivalent at {n} pl. (max/min)",
            [_scc(c, n) for c in SCC_CONFIGS], _spread, below(1.15),
            fmt="{:.3f}")

    # -- Table I (Figs 9-11, 13) --------------------------------------
    for (row, arrangement), ref in TABLE1.items():
        hpc = row.startswith("hpc_")
        for n, paper in zip(TABLE1_PIPELINES, ref):
            if hpc:
                run = Run(row[len("hpc_"):], n, "cluster")
                band = near(paper, rel=0.30, abs_=1.0)
            else:
                run = _scc(row, n, arrangement)
                band = near(paper, rel=0.15)
            add("table1", f"{row}/{arrangement}", [run], _wt, band, paper,
                column=n)
    add("table1", "ranking at 7 pl. (fastest first)",
        [Run("single_renderer", 7, "cluster"),
         *(_scc(c, 7) for c in SCC_CONFIGS)],
        lambda *rs: " < ".join(sorted(
            ("hpc_single_renderer", *SCC_CONFIGS),
            key=dict(zip(("hpc_single_renderer", *SCC_CONFIGS),
                         map(_wt, rs))).get)),
        equals("hpc_single_renderer < mcpc_renderer < n_renderers "
               "< one_renderer"), fmt="{}")

    # -- Fig. 9: one renderer ------------------------------------------
    for arr in ARRANGEMENTS:
        runs = [_scc("one_renderer", n, arr) for n in range(1, 9)]
        add("fig09", f"{arr}: flat from 3 pl. (max/min, 3-8 pl.)",
            runs[2:], _spread, below(1.03), fmt="{:.3f}")
        add("fig09", f"{arr}: 1 pl. / 2 pl.", runs[:2],
            lambda a, b: _wt(a) / _wt(b), near(2.0, rel=0.10),
            fmt="{:.3f}")
    for n in (5, 7, 8):
        run = _scc("one_renderer", n)
        add("fig09", f"verdict at {n} pl.", [run], _verdict(),
            equals("render/core"), fmt="{}")
        add("fig09", f"render utilization at {n} pl.", [run],
            lambda r: verdict_from_result(r).utilization, above(0.95),
            fmt="{:.3f}")
    add("fig09", "verdict confidence at 8 pl.", [_scc("one_renderer", 8)],
        _confidence(), above(0.5), fmt="{:.3f}")

    # -- Fig. 10: n renderers -------------------------------------------
    for arr in ARRANGEMENTS:
        add("fig10", f"{arr}: largest step up, 1-7 pl. (s)",
            [_scc("n_renderers", n, arr) for n in range(1, 8)],
            lambda *rs: max(_wt(b) - _wt(a) for a, b in zip(rs, rs[1:])),
            Band(hi=0.0), fmt="{:.2f}")
    for n in (3, 5, 7):
        add("fig10", f"n renderers / one renderer at {n} pl.",
            [_scc("n_renderers", n), _scc("one_renderer", n)],
            lambda a, b: _wt(a) / _wt(b), below(1.0), fmt="{:.3f}")
    nrend7 = _scc("n_renderers", 7)
    add("fig10", "verdict stage at 7 pl.", [nrend7],
        lambda r: verdict_from_result(r).stage, equals("render"), fmt="{}")
    add("fig10", "verdict confidence at 7 pl.", [nrend7], _confidence(),
        below(0.5), fmt="{:.3f}")
    add("fig10", "confidence minus one renderer's, 7 pl.",
        [nrend7, _scc("one_renderer", 7)],
        lambda a, b: _confidence()(a) - _confidence()(b), below(0.0),
        fmt="{:.3f}")

    # -- Fig. 11: MCPC renderer -----------------------------------------
    for arr in ARRANGEMENTS:
        runs = [_scc("mcpc_renderer", n, arr) for n in range(1, 9)]
        add("fig11", f"{arr}: best pipeline count (1-8)", runs,
            lambda *rs: 1 + _argmin(dict(enumerate(map(_wt, rs)))),
            Band(4, 6), fmt="{}")
        add("fig11", f"{arr}: 8 pl. / best", runs,
            lambda *rs: _wt(rs[-1]) / min(map(_wt, rs)), above(1.0),
            fmt="{:.3f}")
    add("fig11", "8 pl. / 5 pl.",
        [_scc("mcpc_renderer", 8), _scc("mcpc_renderer", 5)],
        lambda a, b: _wt(a) / _wt(b), above(1.0), fmt="{:.3f}")
    add("fig11", "MCPC / n renderers at 5 pl.",
        [_scc("mcpc_renderer", 5), _scc("n_renderers", 5)],
        lambda a, b: _wt(a) / _wt(b), below(1.0), fmt="{:.3f}")
    add("fig11", "best MCPC (4-6 pl.) / best n renderers (6-7 pl.)",
        [*(_scc("mcpc_renderer", n) for n in (4, 5, 6)),
         *(_scc("n_renderers", n) for n in (6, 7))],
        lambda *rs: min(map(_wt, rs[:3])) / min(map(_wt, rs[3:])),
        below(1.0), fmt="{:.3f}")
    mcpc8 = _scc("mcpc_renderer", 8)
    add("fig11", "verdict at 8 pl.", [mcpc8], _verdict(),
        equals("connect/core"), fmt="{}")
    add("fig11", "verdict confidence at 8 pl.", [mcpc8], _confidence(),
        above(0.25), fmt="{:.3f}")
    for n in (5, 8):
        run = _scc("mcpc_renderer", n)
        add("fig11", f"filter verdict at {n} pl.", [run],
            _verdict(filters_only=True), equals("blur"), fmt="{}")
        add("fig11", f"filter verdict confidence at {n} pl.", [run],
            _confidence(filters_only=True), above(0.25), fmt="{:.3f}")

    # -- the arrangement non-result ---------------------------------------
    for config, counts in (("one_renderer", (2, 4, 5, 8)),
                           ("n_renderers", (3, 4, 7)),
                           ("mcpc_renderer", (4,))):
        for n in counts:
            add("arrangements", f"{config}, {n} pl. (max/min)",
                [_scc(config, n, arr) for arr in ARRANGEMENTS], _spread,
                below(1.03), fmt="{:.4f}")

    # -- Fig. 12: image sizes -------------------------------------------
    sides = [_scc("mcpc_renderer", image_side=s) for s in FIG12_SIDES]
    for side, run in zip(FIG12_SIDES, sides):
        full = side == FIG12_SIDES[-1]
        add("fig12", "walkthrough (s)", [run], _wt,
            near(222.0, rel=0.10) if full else Band(),
            222.0 if full else None, column=side)
    add("fig12", "smallest step between sides (s)", sides,
        lambda *rs: min(_wt(b) - _wt(a) for a, b in zip(rs, rs[1:])),
        above(0.0), fmt="{:.2f}")
    add("fig12", "L2 step (250->300) / area-scaled 200->250 step", sides[3:6],
        lambda a, b, c: (_wt(c) / _wt(b))
        / ((_wt(b) / _wt(a)) * (300 / 250) ** 2 / (250 / 200) ** 2),
        near(1.0, rel=0.25), fmt="{:.3f}")
    add("fig12", "side 400 / side 200", [sides[3], sides[-1]],
        lambda a, b: _wt(b) / _wt(a), Band(2.5, 4.5, True, True),
        fmt="{:.2f}")

    # -- Fig. 13: the Mogon cluster -------------------------------------
    cluster = {c: [Run(c, n, "cluster") for n in TABLE1_PIPELINES]
               for c in CLUSTER_CONFIGURATIONS}
    best_scc = [_scc("mcpc_renderer", n) for n in (4, 5)]
    add("fig13", "external renderer flat from 3 pl. (max/min)",
        cluster["external_renderer"][2:], _spread, below(1.05),
        fmt="{:.3f}")
    add("fig13", "single renderer 1 pl. / 7 pl.",
        [cluster["single_renderer"][0], cluster["single_renderer"][-1]],
        lambda a, b: _wt(a) / _wt(b), above(4.0), fmt="{:.2f}")
    add("fig13", "best SCC (MCPC 4-5 pl.) / best cluster",
        [*best_scc, *(r for runs in cluster.values() for r in runs)],
        lambda a, b, *hpc: min(_wt(a), _wt(b)) / min(map(_wt, hpc)),
        above(3.0), fmt="{:.2f}")
    add("fig13", "best SCC / best external renderer",
        [*best_scc, *cluster["external_renderer"]],
        lambda a, b, *hpc: min(_wt(a), _wt(b)) / min(map(_wt, hpc)),
        above(2.5), fmt="{:.2f}")
    add("fig13", "MCPC 7 pl. / cluster single renderer 7 pl.",
        [_scc("mcpc_renderer", 7), cluster["single_renderer"][-1]],
        lambda a, b: _wt(a) / _wt(b), near(13.5, rel=0.35), 13.5,
        fmt="{:.2f}")

    # -- Fig. 14: power vs pipelines ------------------------------------
    mcpc = [_scc("mcpc_renderer", n) for n in range(1, 9)]
    for n, run in enumerate(mcpc, start=1):
        anchor = n == 5
        add("fig14", "SCC power, MCPC renderer (W)", [run],
            lambda r: r.scc_avg_power_w,
            near(POWER_MCPC_5PL_W, abs_=2.0) if anchor else Band(),
            POWER_MCPC_5PL_W if anchor else None, column=n)
    add("fig14", "step deviation from linear, 1-8 pl.", mcpc,
        lambda *rs: _step_deviation([r.scc_avg_power_w for r in rs]),
        Band(hi=0.05), fmt="{:.4f}")
    add("fig14", "step deviation from linear, 1/3/5/7 pl.", mcpc[0:7:2],
        lambda *rs: _step_deviation([r.scc_avg_power_w for r in rs]),
        Band(hi=0.05), fmt="{:.4f}")
    add("fig14", "lowest power (W)", mcpc,
        lambda *rs: min(r.scc_avg_power_w for r in rs),
        above(POWER_IDLE_W + 10.0), fmt="{:.2f}")
    add("fig14", "n renderers, 7 pl. (W)", [nrend7],
        lambda r: r.scc_avg_power_w, near(POWER_NREND_7PL_W, abs_=2.0),
        POWER_NREND_7PL_W, fmt="{:.2f}")
    add("fig14", "trace swing during the run, 5 pl. (W)",
        [_scc("mcpc_renderer", 5, power_trace_dt=5.0)], _trace_range,
        below(2.0), fmt="{:.3f}")
    add("fig14", "power spread over arrangements, 4 pl. (W)",
        [_scc("mcpc_renderer", 4, arr) for arr in ARRANGEMENTS],
        lambda *rs: (max(r.scc_avg_power_w for r in rs)
                     - min(r.scc_avg_power_w for r in rs)),
        below(0.5), fmt="{:.3f}")

    # -- §VI-B energy ----------------------------------------------------
    hybrid, nrend = _scc("mcpc_renderer", 5), nrend7
    add("energy", "hybrid (MCPC render, 5 pl.) (J)", [hybrid],
        lambda r: r.total_energy_j(), near(ENERGY_HYBRID_J, rel=0.15),
        ENERGY_HYBRID_J, fmt="{:.0f}")
    add("energy", "n renderers, 7 pl. (J)", [nrend],
        lambda r: r.total_energy_j(), near(ENERGY_NREND_J, rel=0.15),
        ENERGY_NREND_J, fmt="{:.0f}")
    add("energy", "hybrid / n renderers", [hybrid, nrend],
        lambda a, b: a.total_energy_j() / b.total_energy_j(), below(1.0),
        fmt="{:.3f}")
    add("energy", "MCPC render energy above idle (J)", [hybrid],
        lambda r: r.mcpc_energy_above_idle_j,
        near(MCPC_RENDER_SECONDS * 28.0, rel=0.25),
        MCPC_RENDER_SECONDS * 28.0, fmt="{:.0f}")

    # -- Fig. 15: idle times, MCPC renderer, 7 pipelines -----------------
    mcpc7 = _scc("mcpc_renderer", 7)
    for key in ("connect", *FILTER_KEYS, "transfer"):
        for i, column in enumerate(("q1", "median", "q3")):
            quoted = column == "median" and key in ("blur", "scratch")
            paper = FIG15_IDLE_MS.get(key) if column == "median" else None
            add("fig15", f"{key} idle (ms)", [mcpc7],
                lambda r, k=key, i=i: r.idle_quartiles[k][i] * 1e3,
                near(paper, rel=0.25) if quoted else Band(), paper,
                column=column)
    add("fig15", "least idle filter", [mcpc7],
        lambda r: _argmin(_median_idle(r)), equals("blur"), "blur", fmt="{}")
    add("fig15", "most idle filter", [mcpc7],
        lambda r: _argmax(_median_idle(r)), equals("scratch"), "scratch",
        fmt="{}")
    add("fig15", "widest filter quartile spread (IQR / median)", [mcpc7],
        lambda r: max((r.idle_quartiles[k][2] - r.idle_quartiles[k][0])
                      / r.idle_quartiles[k][1] for k in FILTER_KEYS),
        Band(hi=0.25), fmt="{:.4f}")
    insight = _scc("mcpc_renderer", 7, frames=FIG15_INSIGHT_FRAMES,
                   insight=True)
    add("fig15", "blur wait accumulated over 400 frames (s)", [insight],
        _blur_wait_accumulated, near(23.0, rel=0.25), 23.0)
    add("fig15", "least idle filter, from spans", [insight],
        lambda i: _argmin({k: i.idle_quartiles()[k][1]
                           for k in FILTER_KEYS}), equals("blur"), "blur",
        fmt="{}")
    add("fig15", "most idle filter, from spans", [insight],
        lambda i: _argmax({k: i.idle_quartiles()[k][1]
                           for k in FILTER_KEYS}), equals("scratch"),
        "scratch", fmt="{}")
    add("fig15", "filter verdict, from spans", [insight],
        lambda i: i.filter_verdict().stage, equals("blur"), fmt="{}")
    add("fig15", "filter verdict confidence, from spans", [insight],
        lambda i: i.filter_verdict().confidence, above(0.0), fmt="{:.3f}")
    add("fig15", "pipelines where sepia starves blur and scratch waits "
        "on blur", [insight], _upstream_story, equals(7), fmt="{}")

    # -- Figs 16-17: DVFS ------------------------------------------------
    for name, run in DVFS.items():
        add("dvfs", f"{name} walkthrough (s)", [run], _wt,
            near(FIG16_WALKTHROUGH_S[name], rel=0.12),
            FIG16_WALKTHROUGH_S[name])
        add("dvfs", f"{name} power (W)", [run], lambda r: r.scc_avg_power_w,
            near(FIG17_POWER_W[name], abs_=2.5), FIG17_POWER_W[name],
            fmt="{:.2f}")
        add("dvfs", f"{name} trace swing during the run (W)", [run],
            _trace_range, below(2.0), fmt="{:.3f}")
    base, fast, mixed = DVFS.values()
    ratio = FIG16_WALKTHROUGH_S["all_533"] / FIG16_WALKTHROUGH_S["blur_800"]
    # within 5 % of both the figure's 236/174 and the text's 1.36
    add("dvfs", "speed-up of blur at 800 MHz", [base, fast],
        lambda a, b: _wt(a) / _wt(b),
        Band(near(1.36, rel=0.05).lo, near(ratio, rel=0.05).hi), ratio,
        fmt="{:.3f}")
    add("dvfs", "mixed / blur-800 walkthrough", [mixed, fast],
        lambda a, b: _wt(a) / _wt(b), near(1.0, rel=0.02), fmt="{:.4f}")
    add("dvfs", "blur-800 extra power (W)", [fast, base],
        lambda a, b: a.scc_avg_power_w - b.scc_avg_power_w, Band(3.0, 5.5),
        fmt="{:.2f}")
    add("dvfs", "blur-800 extra power / baseline", [fast, base],
        lambda a, b: (a.scc_avg_power_w - b.scc_avg_power_w)
        / b.scc_avg_power_w, near(0.10, abs_=0.04), 0.10, fmt="{:.3f}")
    # a saving (> 0) of about the text's 1 W (±2 W)
    add("dvfs", "mixed saves vs all-533 (W)", [base, mixed],
        lambda a, b: a.scc_avg_power_w - b.scc_avg_power_w,
        Band(0.0, 3.0, lo_open=True), 1.0, fmt="{:.2f}")
    add("dvfs", "mixed saves vs blur-800 (W)", [fast, mixed],
        lambda a, b: a.scc_avg_power_w - b.scc_avg_power_w, above(0.0),
        fmt="{:.2f}")

    # -- ablations (beyond the paper) --------------------------------------
    for n in (1, 2, 3, 5, 7):
        add("ablations", f"local stores / DRAM bounce, {n} pl.",
            [_scc("n_renderers", n, chip="local_memory"),
             _scc("n_renderers", n)],
            lambda a, b: _wt(a) / _wt(b), below(1.0), fmt="{:.3f}")
    add("ablations", "local stores save at 1 pl. (s)",
        [_scc("n_renderers", 1), _scc("n_renderers", 1, chip="local_memory")],
        lambda a, b: _wt(a) - _wt(b), above(15.0))
    for chip in ("no_mesh_contention", "infinite_mc"):
        for n in (2, 5, 7):
            add("ablations", f"{chip} / full model, {n} pl.",
                [_scc("n_renderers", n, chip=chip), _scc("n_renderers", n)],
                # within 5 % of the full model, and never slower
                lambda a, b: _wt(a) / _wt(b), Band(0.95, 1.001),
                fmt="{:.4f}")
    add("ablations", "busiest memory controller, n renderers 7 pl.",
        [nrend7], lambda r: max(r.mc_utilizations), below(0.6),
        fmt="{:.3f}")
    return tuple(rows)


FINDINGS: Tuple[Finding, ...] = _findings()

Outcome = Tuple[Finding, Any]


def evaluate() -> List[Outcome]:
    """Every finding of :data:`FINDINGS` with its model value."""
    return [(f, f.value()) for f in FINDINGS]


def failures(outcomes: Sequence[Outcome]) -> List[str]:
    """One line per finding whose model value is outside its band."""
    return [f"{f.key}: model {format_value(f, value)} outside {f.band}"
            for f, value in outcomes if not f.band.holds(value)]


def format_value(finding: Finding, value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, (str, int)):
        return str(value)
    return finding.fmt.format(value)


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_tables(outcomes: Sequence[Outcome]) -> Dict[str, str]:
    """Each section's markdown: a grid of its column findings (a paper
    line and a model line per label), then one line per other finding."""
    tables: Dict[str, str] = {}
    for section in dict.fromkeys(f.section for f, _ in outcomes):
        mine = [(f, v) for f, v in outcomes if f.section == section]
        grid: Dict[str, List[Outcome]] = {}
        for f, v in mine:
            if f.column is not None:
                grid.setdefault(f.label, []).append((f, v))
        parts = []
        if grid:
            columns = list(dict.fromkeys(f.column for cells in grid.values()
                                         for f, _ in cells))
            rows = []
            for label, cells in grid.items():
                by_col = {f.column: (f, v) for f, v in cells}
                bands = " ".join(dict.fromkeys(
                    str(f.band) for f, _ in cells if str(f.band) != "—"))
                if any(f.paper is not None for f, _ in cells):
                    rows.append([f"paper {label}", *(
                        format_value(by_col[c][0], by_col[c][0].paper)
                        if c in by_col else "" for c in columns), ""])
                rows.append([f"model {label}", *(
                    format_value(*by_col[c]) if c in by_col else ""
                    for c in columns), bands or "—"])
            parts.append(_table(["row", *map(str, columns), "band"], rows))
        listed = [(f, v) for f, v in mine if f.column is None]
        if listed:
            parts.append(_table(
                ["finding", "paper", "model", "band"],
                [[f.label, format_value(f, f.paper), format_value(f, v),
                  str(f.band)] for f, v in listed]))
        tables[section] = "\n".join(parts)
    return tables


def render_document(text: str, outcomes: Sequence[Outcome]) -> str:
    """``text`` with each ``<!-- paper:NAME -->`` … ``<!-- /paper:NAME -->``
    section replaced by its freshly rendered table.

    Raises ``ValueError`` when a section's markers are missing.
    """
    for name, table in render_tables(outcomes).items():
        start, end = f"<!-- paper:{name} -->\n", f"<!-- /paper:{name} -->"
        i = text.find(start)
        j = text.find(end, i)
        if i < 0 or j < 0:
            raise ValueError(f"no {start.strip()} ... {end} section")
        i += len(start)
        text = text[:i] + table + text[j:]
    return text
