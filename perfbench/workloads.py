"""The benchmark's workloads: what each one runs and how it is checked.

Each workload drives the program through its public API only
(``execute_spec``, which builds a ``PipelineRunner`` and runs it,
``SweepExecutor.run``, ``ResultCache``, ``RunSpec.digest``,
``analyze_telemetry``, ``chrome_trace`` and a ``ReproService`` on
loopback), pins ``engine=`` on every spec so a
change of the library's default engine changes no workload, and makes
its inputs from the seed alone: the seed goes into ``RunSpec.seed``,
which every digest covers, so no two seeds share a cache entry.

A workload is a cycle of operations (:meth:`Workload.ops`) that one
client runs in a closed loop, in this process: each operation starts
when the previous one has finished.  Nothing runs beside an operation,
and the harness pins the process to one core, so that the reference
loop it times between operations sees the same host as the operation
did.

Every simulated result is compared with the event engine's values in
``reference.json`` to ``REL_TOL``; an operation whose output differs,
raises, or gets a non-2xx answer counts as failed.
"""

from __future__ import annotations

import functools
import http.client
import itertools
import json
import random
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import analyze_telemetry
from repro.exec import (ResultCache, RunSpec, SweepExecutor, canonical_json,
                        engine_fingerprint, execute_spec, spec_digest)
from repro.exec.cache import result_to_cache_dict
from repro.obsv.eventlog import EVENT_LOG
from repro.obsv.promexpo import parse_prometheus_text
from repro.pipeline import ARRANGEMENTS, default_workload
from repro.pipeline.metrics import RunResult
from repro.report import paper
from repro.service import ReproService, ServiceConfig, wire
from repro.telemetry import Telemetry
from repro.telemetry.export import chrome_trace

from spans import Recorder

#: relative distance from the reference beyond which a result is wrong
REL_TOL = 1e-9
#: the paper-error figures are pinned to this many percentage points
PAPER_ERR_TOL = 0.01
#: the service's job workers, and the pool that writes the reference
JOBS = 2
#: full walkthrough length of the paper's runs
FRAMES = 400
SCC_CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")
HPC_CONFIGS = ("external_renderer", "single_renderer", "parallel_renderer")
REFERENCE_FIELDS = ("walkthrough_seconds", "scc_energy_j",
                    "mcpc_energy_above_idle_j")

#: one step of a workload's cycle: its kind, and the operation
Op = Tuple[str, Callable[[], None]]


class CheckFailed(Exception):
    """An output differs from what it must be."""


def table1_specs(seed: int) -> List[RunSpec]:
    """The 84 points of Table I: SCC rows batched, HPC rows on the cluster."""
    specs = [RunSpec(config=config, arrangement=arrangement, pipelines=n,
                     frames=FRAMES, seed=seed, engine="batched")
             for config in SCC_CONFIGS for arrangement in ARRANGEMENTS
             for n in paper.TABLE1_PIPELINES]
    specs += [RunSpec(platform="hpc", config=config, pipelines=n,
                      frames=FRAMES, seed=seed, engine="event")
              for config in HPC_CONFIGS for n in paper.TABLE1_PIPELINES]
    return specs


def reference_key(spec: RunSpec) -> str:
    """Reference entry of a spec; seed and engine do not change a result."""
    return (f"{spec.platform}/{spec.config}/{spec.arrangement}/"
            f"{spec.pipelines}/{spec.frames}")


def paper_err_pct(specs: Sequence[RunSpec],
                  results: Sequence[RunResult]) -> float:
    """Mean absolute walkthrough error against Table I, in percent."""
    errors = []
    for spec, result in zip(specs, results):
        row = spec.config if spec.platform == "scc" else f"hpc_{spec.config}"
        paper_s = paper.TABLE1[(row, spec.arrangement)][spec.pipelines - 1]
        errors.append(abs(result.walkthrough_seconds - paper_s)
                      / paper_s * 100.0)
    return statistics.fmean(errors)


class Reference:
    """Event-engine values of every point a workload simulates."""

    def __init__(self, path: Path) -> None:
        doc = json.loads(path.read_text())
        self.points: Dict[str, Dict[str, float]] = doc["points"]
        self.paper_err: Dict[str, float] = doc["paper_err_pct"]

    def check(self, spec: RunSpec, result: RunResult) -> None:
        key = reference_key(spec)
        want = self.points.get(key)
        if want is None:
            raise CheckFailed(f"no reference value for {key}")
        for field in REFERENCE_FIELDS:
            got, ref = getattr(result, field), want[field]
            if abs(got - ref) > REL_TOL * abs(ref):
                raise CheckFailed(f"{key} {field}: {got!r} != {ref!r}")

    def check_paper_err(self, name: str, value: float) -> None:
        if abs(value - self.paper_err[name]) > PAPER_ERR_TOL:
            raise CheckFailed(f"paper error of {name} is {value:.4f} %, "
                              f"not {self.paper_err[name]:.4f} %")


@dataclass
class Context:
    seed: int
    #: temporary directory inside the output directory, removed afterwards
    tmp: Path
    reference: Reference
    recorder: Recorder
    quick: bool = False


class Workload:
    """One set of inputs, run as a closed loop over the cycle ``ops()``."""

    name = ""
    #: walkthrough length and strip splits whose culling profiles the
    #: set-up builds (runs would otherwise build them lazily, inside
    #: the first timed operations)
    frames = FRAMES
    strips: Tuple[int, ...] = ()
    #: operations from the start of the cycle run, untimed, before timing
    warmup = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rec = ctx.recorder
        self.ref = ctx.reference
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.profiles = 0
        self.prewarm_s = 0.0

    @staticmethod
    def reference_specs() -> List[RunSpec]:
        """The points this workload simulates (seed 0)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first operation could begin."""
        if EVENT_LOG.enabled:
            raise RuntimeError("the event log must stay off while measuring")
        t0 = time.perf_counter()
        workload = default_workload(self.frames)
        for frame in range(self.frames):
            workload.profile(frame)
            for n in self.strips:
                for strip in range(n):
                    workload.profile(frame, strip, n)
        self.profiles = self.frames * (1 + sum(self.strips))
        self.prewarm_s = time.perf_counter() - t0

    def ops(self) -> List[Op]:
        """One cycle of operations; each raises when it fails or its output
        is wrong.  A kind that recurs in the cycle is one operation run
        that many times."""
        return [(self.name, self.op)]

    def op(self) -> None:
        raise NotImplementedError

    def begin_trace(self) -> None:
        """Note counters the traced loop will difference."""

    def after(self) -> None:
        """Checks and measurements that follow the timed phase."""

    def extras(self) -> Dict[str, Tuple[float, str, List[float]]]:
        """Workload-specific figures for the report: value, unit, samples."""
        return {}

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Per-layer metrics that only some workloads have (0 elsewhere),
        over the ``ops`` operations of the traced loop."""
        return {"service.requests_2xx": 0.0, "service.jobs_executed": 0.0}

    def close(self) -> None:
        """Release what ``setup`` started."""

    def attempt(self, fn: Callable[[], Any]) -> Optional[float]:
        """Run one operation; its wall seconds, or None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:  # a failed operation is counted; the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            return None
        return time.perf_counter() - t0


class Table1(Workload):
    """The paper's Table-I campaign, one cold grid point per operation."""

    name = "table1"
    strips = paper.TABLE1_PIPELINES
    #: points per Table-I row
    width = len(paper.TABLE1_PIPELINES)
    #: one point of each of the 12 rows
    warmup = len(SCC_CONFIGS) * len(ARRANGEMENTS) + len(HPC_CONFIGS)

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.specs = table1_specs(ctx.seed)
        self.paper_err = 0.0
        self.warm_walls: List[float] = []
        #: how often each point has run; its k-th run writes to the
        #: k-th cache, so that every run is cold
        self.runs = [0] * len(self.specs)
        self.caches: List[SweepExecutor] = []
        #: the first result of each point
        self.first: Dict[int, RunResult] = {}

    @staticmethod
    def reference_specs() -> List[RunSpec]:
        return table1_specs(0)

    def ops(self) -> List[Op]:
        """The grid in slices of one point per row, the pipeline count
        shifting by one from row to row, so that any stretch of the
        cycle mixes every row and size."""
        rows = [list(range(i, i + self.width))
                for i in range(0, len(self.specs), self.width)]
        order = [row[(k + r) % self.width] for k in range(self.width)
                 for r, row in enumerate(rows)]
        return [(reference_key(self.specs[i]), functools.partial(self.point, i))
                for i in order]

    def executor(self, k: int) -> SweepExecutor:
        while len(self.caches) <= k:
            path = self.ctx.tmp / f"table1-cache-{len(self.caches)}"
            self.caches.append(SweepExecutor(jobs=1, cache=ResultCache(path)))
        return self.caches[k]

    def point(self, index: int) -> None:
        spec = self.specs[index]
        executor = self.executor(self.runs[index])
        self.runs[index] += 1
        result = executor.run([spec])[0]
        if executor.last_stats.executed != 1:
            raise CheckFailed(f"cold run of {reference_key(spec)} executed "
                              f"{executor.last_stats.executed} points")
        self.ref.check(spec, result)
        self.first.setdefault(index, result)

    def after(self) -> None:
        """The paper error of the grid, then warm sweeps of the whole grid
        against the first cache, which holds every point once the timed
        phase has run the cycle through."""
        if len(self.first) < len(self.specs):
            return
        cold = [self.first[i] for i in range(len(self.specs))]

        def check_paper_err() -> None:
            self.paper_err = paper_err_pct(self.specs, cold)
            self.ref.check_paper_err("table1", self.paper_err)

        self.attempt(check_paper_err)
        expected = canonical_json([result_to_cache_dict(r) for r in cold])
        executor = SweepExecutor(jobs=1, cache=self.caches[0].cache)

        def warm() -> None:
            t0 = time.perf_counter()
            results = executor.run(self.specs)
            self.warm_walls.append(time.perf_counter() - t0)
            if executor.last_stats.executed != 0:
                raise CheckFailed(f"warm sweep executed "
                                  f"{executor.last_stats.executed} points")
            if canonical_json([result_to_cache_dict(r)
                               for r in results]) != expected:
                raise CheckFailed("warm sweep differs from the cold runs")

        for _ in range(5 if self.ctx.quick else 50):
            self.attempt(warm)

    def extras(self) -> Dict[str, Tuple[float, str, List[float]]]:
        warm = (statistics.median(self.warm_walls) if self.warm_walls
                else 0.0)
        return {"warm_wall_s": (warm, "s", self.warm_walls),
                "paper_err_pct": (self.paper_err, "%", [])}


class RefBatched(Workload):
    """The headline profile, one in-process run per operation."""

    name = "ref-batched"
    engine = "batched"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.spec = self.make_spec(ctx.seed)
        self.paper_err = 0.0

    @classmethod
    def make_spec(cls, seed: int) -> RunSpec:
        return RunSpec(config="mcpc_renderer", arrangement="ordered",
                       pipelines=5, frames=FRAMES, seed=seed,
                       engine=cls.engine)

    @classmethod
    def reference_specs(cls) -> List[RunSpec]:
        return [cls.make_spec(0)]

    def op(self) -> None:
        result = execute_spec(self.spec)
        self.ref.check(self.spec, result)
        self.paper_err = paper_err_pct([self.spec], [result])
        self.ref.check_paper_err("ref", self.paper_err)

    def extras(self) -> Dict[str, Tuple[float, str, List[float]]]:
        return {"paper_err_pct": (self.paper_err, "%", [])}


class RefEvent(RefBatched):
    """The same profile on the discrete-event engine."""

    name = "ref-event"
    engine = "event"


class Explain(Workload):
    """A telemetry-on batched run, then its analysis and trace export."""

    name = "explain"
    frames = 50

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.spec = replace(self.reference_specs()[0], seed=ctx.seed)

    @staticmethod
    def reference_specs() -> List[RunSpec]:
        return [RunSpec(config="mcpc_renderer", arrangement="ordered",
                        pipelines=5, frames=50, engine="batched")]

    def op(self) -> None:
        hub = Telemetry(enabled=True)
        result = execute_spec(self.spec, telemetry=hub)
        self.ref.check(self.spec, result)
        with self.rec.span("analysis.analyze"):
            insight = analyze_telemetry(hub, result)
        if insight.critical_path.duration != insight.makespan:
            raise CheckFailed("critical path does not span the makespan")
        with self.rec.span("telemetry.chrome_trace"):
            doc = chrome_trace(hub)
        if not doc["traceEvents"]:
            raise CheckFailed("empty Chrome trace")
        self.rec.count("telemetry.events", hub.event_count)
        self.rec.count("analysis.critpath_segments",
                       len(insight.critical_path.segments))


class Service(Workload):
    """An in-process service on loopback and one client on a keep-alive
    connection: POST a spec no one has run and long-poll its result,
    then GET finished results, which the service reads from its cache."""

    name = "service"
    frames = 50
    #: POST and GET first
    warmup = 2
    #: GETs of finished results per POST of a new spec
    gets_per_post = 5
    #: finished digests the GETs cycle through
    digests = 32
    template = RunSpec(config="mcpc_renderer", arrangement="ordered",
                       pipelines=3, frames=50, engine="batched")

    @classmethod
    def reference_specs(cls) -> List[RunSpec]:
        return [cls.template]

    def setup(self) -> None:
        super().setup()
        cache = ResultCache(self.ctx.tmp / "service-cache")
        self.service = ReproService(
            ServiceConfig(port=0, workers=JOBS, queue_limit=64),
            cache=cache).start()
        self.conn = http.client.HTTPConnection(
            self.service.config.host, self.service.port, timeout=60)
        seed_base = self.ctx.seed * 1_000_000
        self.fingerprint = engine_fingerprint()
        # seeds do not change a timing-mode result, so one direct run
        # gives the body every GET must return, up to its digest
        self.expected = execute_spec(replace(self.template, seed=seed_base))
        self.attempt(lambda: self.ref.check(self.template, self.expected))
        #: expected GET body per digest, so a check costs a lookup
        self.bodies: Dict[str, bytes] = {}
        finished = [replace(self.template, seed=seed_base + k)
                    for k in range(1, self.digests + 1)]
        SweepExecutor(jobs=1, cache=cache).run(finished)
        order = [self.digest(spec) for spec in finished]
        random.Random(self.ctx.seed).shuffle(order)
        self._order = itertools.cycle(order)
        self._seeds = itertools.count(seed_base + self.digests + 1)
        self._counts0 = (0.0, 0.0)

    def ops(self) -> List[Op]:
        return [("post", self.post)] + [("get", self.get)] * self.gets_per_post

    def digest(self, spec: RunSpec) -> str:
        return spec_digest(spec.as_dict(), self.fingerprint)

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[int, Optional[str], bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        with self.rec.span("service.http"):
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        return response.status, response.getheader("X-Repro-Source"), data

    def check_body(self, digest: str, status: int, body: bytes) -> None:
        if status != 200:
            raise CheckFailed(f"GET {digest[:12]} answered {status}")
        expected = self.bodies.get(digest)
        if expected is None:
            expected = self.bodies[digest] = wire.result_body(digest,
                                                              self.expected)
        if body != expected:
            raise CheckFailed(f"GET {digest[:12]} body differs from a "
                              f"direct execute_spec result")

    def post(self) -> None:
        spec = replace(self.template, seed=next(self._seeds))
        status, _, body = self.request(
            "POST", "/runs", json.dumps(spec.as_dict()).encode())
        if status != 202:
            raise CheckFailed(f"POST /runs answered {status}")
        digest = json.loads(body)["digest"]
        if digest != self.digest(spec):
            raise CheckFailed("POST /runs returned another digest")
        status, _, body = self.request("GET", f"/runs/{digest}?wait=30")
        self.check_body(digest, status, body)

    def get(self) -> None:
        digest = next(self._order)
        status, source, body = self.request("GET", f"/runs/{digest}")
        self.check_body(digest, status, body)
        if source != "cached":
            raise CheckFailed(f"GET served from {source!r}, not the cache")

    def service_counts(self) -> Tuple[float, float]:
        """2xx answers to /runs requests and executed jobs, from /metrics."""
        status, _, page = self.request("GET", "/metrics")
        if status != 200:
            raise CheckFailed(f"/metrics answered {status}")
        families = parse_prometheus_text(page.decode())
        ok = sum(value for labels, value
                 in families.get("repro_service_requests_total", [])
                 if labels["route"] in ("runs_post", "runs_get")
                 and labels["status"].startswith("2"))
        executed = sum(value for labels, value
                       in families.get("repro_service_jobs_total", [])
                       if labels["outcome"] == "executed")
        return ok, executed

    def begin_trace(self) -> None:
        self._counts0 = self.service_counts()

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        metrics = super().layer_metrics(ops)
        ok, executed = self.service_counts()
        if ops:
            metrics["service.requests_2xx"] = (ok - self._counts0[0]) / ops
            metrics["service.jobs_executed"] = \
                (executed - self._counts0[1]) / ops
        return metrics

    def close(self) -> None:
        self.conn.close()
        self.service.stop()


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Table1, RefBatched, RefEvent, Explain, Service)}


def write_reference(path: Path) -> None:
    """Recompute every workload's points on the event engine."""
    specs: Dict[str, RunSpec] = {}
    for cls in WORKLOADS.values():
        for spec in cls.reference_specs():
            specs.setdefault(reference_key(spec),
                             replace(spec, engine="event", seed=0))
    results = dict(zip(specs, SweepExecutor(jobs=JOBS).run(
        list(specs.values()))))
    table1 = table1_specs(0)
    ref_spec = RefBatched.make_spec(0)
    doc = {
        "about": "event-engine results of every point the workloads "
                 "simulate; regenerate with run.py --write-reference",
        "rel_tol": REL_TOL,
        "paper_err_pct": {
            "table1": paper_err_pct(
                table1, [results[reference_key(s)] for s in table1]),
            "ref": paper_err_pct(
                [ref_spec], [results[reference_key(ref_spec)]]),
        },
        "points": {key: {field: getattr(result, field)
                         for field in REFERENCE_FIELDS}
                   for key, result in sorted(results.items())},
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
