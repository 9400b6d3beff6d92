"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run``
    Simulate one configuration and print the result summary
    (optionally an ASCII Gantt chart of stage activity and a
    Chrome trace via ``--trace-out``).  Results are served from the
    content-addressed cache when available (``--no-cache`` to force a
    fresh simulation).
``sweep``
    Run a configuration across pipeline counts and arrangements with
    ``--jobs N`` worker processes and the result cache
    (see docs/performance.md, "Parallel sweeps and the result cache").
    ``--serve-metrics PORT`` exposes live ``/metrics`` + ``/healthz``
    while it runs; ``--log FILE`` appends the structured JSONL
    operational event log (see docs/observability.md).
``top``
    The same sweep under a live terminal dashboard: per-worker progress
    bars, cache stats, throughput/ETA and bottleneck verdicts.
``profile``
    Simulate with full telemetry: Chrome-trace JSON for Perfetto,
    counter dumps and a text "top" report of the hottest mesh links,
    memory controllers and stages (see docs/observability.md).
    It runs in this process, where the spans and counters are read.
``paper``
    Every §VI finding of the paper (Table I, Figs 8-17, the energy
    arithmetic, the ablations): the paper's value, the model's, the
    reproduction band and pass/fail; exits 1 when a finding leaves its
    band (the table is :data:`repro.report.paper.FINDINGS`).
``film``
    Render the pipeline's real frames and write PPM files.
``explain``
    Bottleneck verdicts and per-stage attribution of one exact
    400-frame batched walkthrough (the ``repro analyze`` report).
``analyze``
    Post-run trace insights: critical path, per-stage wall-time
    attribution, upstream starvation causes and a bottleneck verdict —
    from a fresh run or an exported Chrome trace (``--trace``), with
    text/JSON output, an HTML report (``--html``) and a canonical
    metrics snapshot (``--snapshot-out``) for ``repro diff``.
``diff``
    Compare two metrics snapshots under per-metric tolerance rules;
    exits 1 on regression (the CI metrics gate).
``serve``
    Simulation-as-a-service: an HTTP + WebSocket front-end that accepts
    RunSpec submissions, coalesces duplicate in-flight digests onto one
    simulation, streams live progress and serves byte-identical results
    (see docs/service.md).
``lint``
    Static determinism/telemetry lints over the Python sources, diffed
    against a committed baseline (see docs/static-analysis.md).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .exec import ResultCache, RunSpec, SweepExecutor, default_cache_dir
from .pipeline import (ARRANGEMENTS, CONFIGURATIONS, ENGINES, PipelineRunner,
                       render_film)
from .pipeline.describe import CLUSTER_CONFIGURATIONS, describe
from .pipeline.workload import WalkthroughWorkload
from .report import format_table, paper, results_to_json
from .telemetry import (
    Telemetry,
    render_gantt,
    stage_busy_spans,
    top_report,
    write_chrome_trace,
    write_counters,
)

__all__ = ["main", "build_parser"]


def resolve_jobs(value: str) -> int:
    """``--jobs N`` or ``--jobs auto``.

    ``auto`` resolves to the CPUs this process may actually be
    *scheduled* on (``os.sched_getaffinity``), not ``os.cpu_count()``:
    in a cgroup-pinned container the two differ, and sizing the pool by
    cpu_count oversubscribes the CPUs the process may run on.
    """
    if str(value).strip().lower() == "auto":
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return max(1, os.cpu_count() or 1)
    return int(value)


def _add_exec_args(parser: argparse.ArgumentParser,
                   jobs: bool = True) -> None:
    """The uniform executor/cache flags (`sweep`, `run`, `top`...)."""
    if jobs:
        parser.add_argument("--jobs", type=resolve_jobs, default=1,
                            metavar="N",
                            help="worker processes, or 'auto' for the "
                                 "schedulable-CPU count (results are "
                                 "identical for any value; default 1)")
    parser.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="result cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-scc)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the result cache: always simulate, "
                             "never store")


def _add_obsv_args(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by ``sweep`` and ``top``."""
    parser.add_argument("--serve-metrics", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus /metrics and /healthz on "
                             "127.0.0.1:PORT while the sweep runs "
                             "(0 picks an ephemeral port)")
    parser.add_argument("--serve-hold", type=float, default=0.0,
                        metavar="SEC",
                        help="keep the endpoint up SEC seconds after the "
                             "sweep finishes so scrapers catch the final "
                             "state (default 0)")
    parser.add_argument("--log", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="append structured JSONL operational events "
                             "to FILE (validate with "
                             "scripts/validate_trace.py --eventlog)")


def _cache_from(args: argparse.Namespace):
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel macro pipelining on the simulated Intel SCC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one configuration")
    run.add_argument("--config", choices=CONFIGURATIONS,
                     default="mcpc_renderer")
    run.add_argument("--pipelines", type=int, default=5)
    run.add_argument("--arrangement", choices=ARRANGEMENTS, default="ordered")
    run.add_argument("--frames", type=int, default=400)
    run.add_argument("--gantt", action="store_true",
                     help="print an ASCII Gantt chart of stage activity")
    run.add_argument("--trace-out", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="write a Chrome trace-event JSON of the run "
                          "(open in Perfetto or chrome://tracing)")
    run.add_argument("--engine", choices=ENGINES, default="event",
                     help="execution engine: 'event' replays every "
                          "simulation event; 'batched' advances whole "
                          "frame-waves through the steady-state phase "
                          "(same results within committed tolerances)")
    run.add_argument("--json", action="store_true",
                     help="machine-readable run summary on stdout, "
                          "including the engine that ran it")
    run.add_argument("--strict-differential", action="store_true",
                     help="run BOTH engines and diff their metric "
                          "snapshots (committed tolerances); exits 1 on "
                          "any deviation")
    _add_exec_args(run, jobs=False)

    sweep = sub.add_parser(
        "sweep",
        help="run a pipeline-count x arrangement sweep, sharded across "
             "--jobs workers with result caching")
    sweep.add_argument("--config", choices=CONFIGURATIONS,
                       default="mcpc_renderer")
    sweep.add_argument("--pipelines", type=int, nargs="+", metavar="N",
                       default=list(paper.TABLE1_PIPELINES),
                       help="pipeline counts (default: the Table I axis)")
    sweep.add_argument("--arrangements", choices=ARRANGEMENTS, nargs="+",
                       default=["ordered"], metavar="ARR",
                       help="arrangements to cross with the counts "
                            "(default: ordered)")
    sweep.add_argument("--frames", type=int, default=400)
    sweep.add_argument("--image-side", type=int, default=400)
    sweep.add_argument("--json", type=pathlib.Path, default=None,
                       metavar="FILE",
                       help="dump every RunResult as a JSON array")
    sweep.add_argument("--expect-all-cached", action="store_true",
                       help="exit non-zero if any point had to be "
                            "simulated (CI cache-effectiveness gate)")
    sweep.add_argument("--engine", choices=ENGINES, default="event",
                       help="execution engine for every point (digest-"
                            "distinguished: batched and event results "
                            "cache separately)")
    _add_exec_args(sweep)
    _add_obsv_args(sweep)

    top = sub.add_parser(
        "top",
        help="run a sweep under a live terminal dashboard: per-worker "
             "progress bars, cache stats, throughput/ETA, verdicts")
    top.add_argument("--config", choices=CONFIGURATIONS,
                     default="mcpc_renderer")
    top.add_argument("--pipelines", type=int, nargs="+", metavar="N",
                     default=list(paper.TABLE1_PIPELINES),
                     help="pipeline counts (default: the Table I axis)")
    top.add_argument("--arrangements", choices=ARRANGEMENTS, nargs="+",
                     default=["ordered"], metavar="ARR",
                     help="arrangements to cross with the counts")
    top.add_argument("--frames", type=int, default=400)
    top.add_argument("--image-side", type=int, default=400)
    top.add_argument("--interval", type=float, default=0.25, metavar="SEC",
                     help="minimum seconds between dashboard redraws "
                          "(default 0.25)")
    top.add_argument("--engine", choices=ENGINES, default="event",
                     help="execution engine for every point; batched "
                          "runs report the detected frame period and "
                          "fold jump progress into the ETA")
    _add_exec_args(top)
    _add_obsv_args(top)

    profile = sub.add_parser(
        "profile",
        help="simulate with telemetry: Chrome trace, counters, top report")
    profile.add_argument("--config", choices=CONFIGURATIONS,
                         default="mcpc_renderer")
    profile.add_argument("--pipelines", type=int, default=5)
    profile.add_argument("--arrangement", choices=ARRANGEMENTS,
                         default="ordered")
    profile.add_argument("--frames", type=int, default=50)
    profile.add_argument("--trace-out", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="write Chrome trace-event JSON here")
    profile.add_argument("--counters-out", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="dump the counter registry (.json or .csv)")
    profile.add_argument("--top", type=int, default=5, metavar="N",
                         help="rows per section of the top report "
                              "(default 5)")

    sub.add_parser("paper", help="check every §VI finding against the "
                   "model (exit 1 when one leaves its band)")

    film = sub.add_parser("film", help="render real frames to PPM files")
    film.add_argument("--frames", type=int, default=24)
    film.add_argument("--side", type=int, default=160)
    film.add_argument("--pipelines", type=int, default=2)
    film.add_argument("--out", type=pathlib.Path,
                      default=pathlib.Path("frames"))

    explain = sub.add_parser("explain",
                             help="bottleneck report of one batched "
                                  "400-frame run")
    explain.add_argument("--config",
                         choices=[c for c in CONFIGURATIONS
                                  if c != "single_core"],
                         default="mcpc_renderer")
    explain.add_argument("--pipelines", type=int, default=5)

    describe = sub.add_parser("describe",
                              help="show a configuration's stage graph")
    describe.add_argument("--config", default="mcpc_renderer",
                          choices=CONFIGURATIONS + CLUSTER_CONFIGURATIONS)
    describe.add_argument("--pipelines", type=int, default=3)
    describe.add_argument("--arrangement", choices=ARRANGEMENTS,
                          default="ordered")

    chip = sub.add_parser("chip",
                          help="run a configuration and print the chip "
                               "utilization report")
    chip.add_argument("--config", choices=CONFIGURATIONS,
                      default="n_renderers")
    chip.add_argument("--pipelines", type=int, default=3)
    chip.add_argument("--frames", type=int, default=100)

    tune = sub.add_parser("tune",
                          help="find the best pipeline count for a "
                               "configuration")
    tune.add_argument("--config",
                      choices=[c for c in CONFIGURATIONS
                               if c != "single_core"],
                      default="mcpc_renderer")
    tune.add_argument("--frames", type=int, default=400)

    analyze = sub.add_parser(
        "analyze",
        help="post-run trace insights: critical path, attribution, "
             "bottleneck verdict, metrics snapshot")
    analyze.add_argument("--trace", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="analyze an exported Chrome trace instead "
                              "of simulating")
    analyze.add_argument("--config", choices=CONFIGURATIONS,
                         default="mcpc_renderer")
    analyze.add_argument("--pipelines", type=int, default=5)
    analyze.add_argument("--arrangement", choices=ARRANGEMENTS,
                         default="ordered")
    analyze.add_argument("--frames", type=int, default=50)
    analyze.add_argument("--engine", choices=ENGINES, default="event",
                         help="execution engine for the analyzed run; "
                              "'batched' synthesizes the telemetry "
                              "stream from the steady-state scheduler "
                              "(attribution within committed "
                              "tolerances)")
    analyze.add_argument("--shallow", action="store_true",
                         help="skip event analysis: verdict and snapshot "
                              "from the RunResult only (cache-eligible; "
                              "byte-identical for cached vs fresh runs)")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable insight summary on stdout")
    analyze.add_argument("--concurrency", action="store_true",
                         help="include the static concurrency analysis: "
                              "lock-discipline contracts per module and "
                              "the pipeline channel protocol with its "
                              "deadlock verdict")
    analyze.add_argument("--html", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="write a self-contained HTML report "
                              "(Gantt, utilization, contention heatmap)")
    analyze.add_argument("--snapshot-out", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="write the canonical metrics snapshot for "
                              "repro diff")
    _add_exec_args(analyze, jobs=False)

    diff = sub.add_parser(
        "diff",
        help="compare two metrics snapshots; exit 1 on regression")
    diff.add_argument("baseline", type=pathlib.Path,
                      help="baseline snapshot JSON")
    diff.add_argument("current", type=pathlib.Path,
                      help="current snapshot JSON")
    diff.add_argument("--tolerances", type=pathlib.Path, default=None,
                      metavar="FILE",
                      help="tolerance rules (JSON; default: exact "
                           "equality)")
    diff.add_argument("--verbose", action="store_true",
                      help="list every changed metric, not just failures")

    serve = sub.add_parser(
        "serve",
        help="serve simulations over HTTP + WebSocket: submit RunSpecs, "
             "coalesce duplicate digests, stream progress, serve cached "
             "results (see docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port; 0 picks an ephemeral one "
                            "(default 8642)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent simulations (default 2)")
    serve.add_argument("--queue-limit", type=int, default=16, metavar="N",
                       help="max admitted-but-unfinished runs; beyond "
                            "this, submissions get 503 queue_full "
                            "(default 16)")
    serve.add_argument("--rate", type=float, default=0.0, metavar="R",
                       help="per-client rate limit in requests/second; "
                            "0 disables (default 0)")
    serve.add_argument("--burst", type=int, default=20, metavar="N",
                       help="per-client burst allowance when --rate is "
                            "set (default 20)")
    serve.add_argument("--run-timeout", type=float, default=None,
                       metavar="SEC",
                       help="per-run wall-clock budget; a run past it "
                            "streams a terminal timeout error (the "
                            "worker still drains and caches)")
    serve.add_argument("--auth-token-env", default=None, metavar="VAR",
                       help="require 'Authorization: Bearer <token>' "
                            "matching the value of environment variable "
                            "VAR on every route except /healthz")
    serve.add_argument("--max-runtime", type=float, default=None,
                       metavar="SEC",
                       help="exit cleanly after SEC seconds (CI smoke "
                            "jobs; default: run until SIGINT/SIGTERM)")
    serve.add_argument("--log", type=pathlib.Path, default=None,
                       metavar="FILE",
                       help="append structured JSONL operational events "
                            "to FILE")
    _add_exec_args(serve, jobs=False)

    lint = sub.add_parser(
        "lint",
        help="run the project's determinism/telemetry lints over "
             "Python sources")
    lint.add_argument("paths", nargs="*", type=pathlib.Path,
                      help="files or directories to lint (default: src)")
    lint.add_argument("--baseline", type=pathlib.Path, default=None,
                      metavar="FILE",
                      help="accepted-findings file; only findings absent "
                           "from it fail the run")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline with the current findings "
                           "and exit 0")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--report-unused-suppressions", action="store_true",
                      help="also fail when a '# lint: disable=' comment "
                           "suppresses nothing (stale suppression)")

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    gc = cache_sub.add_parser(
        "gc",
        help="prune cache entries by age and/or total size "
             "(corrupt entries always go; then oldest-first until the "
             "size budget fits)")
    gc.add_argument("--cache-dir", type=pathlib.Path, default=None,
                    metavar="DIR",
                    help="cache directory (default $REPRO_CACHE_DIR or "
                         "~/.cache/repro-scc)")
    gc.add_argument("--max-age-days", type=float, default=None,
                    metavar="DAYS",
                    help="remove entries not written in DAYS days")
    gc.add_argument("--max-size-mb", type=float, default=None,
                    metavar="MB",
                    help="evict oldest entries until the cache fits MB")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed; delete nothing")

    return parser


def _check_out_paths(*paths: Optional[pathlib.Path]) -> Optional[str]:
    """Fail fast on unwritable output dirs, before simulating anything."""
    for path in paths:
        if path is not None and not path.resolve().parent.is_dir():
            return (f"error: cannot write {path}: directory "
                    f"{path.resolve().parent} does not exist")
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    problem = _check_out_paths(args.trace_out)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    # A Chrome trace keeps every category; the Gantt chart draws the
    # stage spans alone.
    telemetry = (Telemetry() if args.trace_out
                 else Telemetry(categories={"stage", "host"}) if args.gantt
                 else None)
    if args.strict_differential:
        return _cmd_strict_differential(args)
    runner = PipelineRunner(config=args.config, pipelines=args.pipelines,
                            arrangement=args.arrangement, frames=args.frames,
                            telemetry=telemetry, engine=args.engine)
    # A Gantt chart or Chrome trace needs the live simulation;
    # otherwise the content-addressed cache can answer (and record) the
    # result.
    cache = (None if (args.gantt or args.trace_out)
             else _cache_from(args))
    cache_note = ""
    if cache is not None:
        executor = SweepExecutor(cache=cache)
        result = executor.run_one(runner.spec())
        cache_note = ("hit" if executor.last_stats.hits else "stored") \
            + f" ({cache.root})"
    else:
        result = runner.run()
    if args.json:
        doc: Dict[str, Any] = {
            "config": result.config,
            "arrangement": result.arrangement,
            "pipelines": result.pipelines,
            "frames": result.frames,
            "cores_used": result.cores_used,
            "walkthrough_s": result.walkthrough_seconds,
            "seconds_per_frame": result.seconds_per_frame,
            "scc_energy_j": result.scc_energy_j,
            "scc_avg_power_w": result.scc_avg_power_w,
            "engine": args.engine,
        }
        if cache_note:
            doc["cache"] = cache_note
        print(json.dumps(doc, indent=2, sort_keys=True))
        if args.trace_out is not None and telemetry is not None:
            write_chrome_trace(args.trace_out, telemetry)
        return 0
    if args.engine == "batched":
        print("engine        : batched steady-state engine")
    print(f"config        : {result.config} / {result.arrangement}")
    print(f"pipelines     : {result.pipelines} "
          f"({result.cores_used} SCC cores)")
    print(f"walkthrough   : {result.walkthrough_seconds:.1f} s "
          f"({result.seconds_per_frame * 1e3:.1f} ms/frame)")
    print(f"SCC power     : {result.scc_avg_power_w:.1f} W "
          f"({result.scc_energy_j:.0f} J)")
    if result.mcpc_energy_above_idle_j > 0:
        print(f"MCPC energy   : +{result.mcpc_energy_above_idle_j:.0f} J "
              "above idle")
    if result.latency_quartiles is not None:
        print(f"frame latency : {result.latency_quartiles[1] * 1e3:.1f} ms "
              "median (render start -> display)")
    if result.idle_quartiles:
        worst = max(result.idle_quartiles.items(), key=lambda kv: kv[1][1])
        print(f"idlest stage  : {worst[0]} "
              f"(median wait {worst[1][1] * 1e3:.1f} ms/frame)")
    if args.gantt and telemetry is not None:
        spans = stage_busy_spans(telemetry)
        horizon = min(max(s.end for s in spans),
                      20 * result.seconds_per_frame)
        print()
        print(render_gantt(spans, width=72, t1=horizon))
    if args.trace_out is not None and telemetry is not None:
        path = write_chrome_trace(args.trace_out, telemetry)
        print(f"Chrome trace  : {path} "
              f"({telemetry.event_count} events)")
    if cache_note:
        print(f"result cache  : {cache_note}")
    return 0


def _cmd_strict_differential(args: argparse.Namespace) -> int:
    """Run both engines and diff their metric snapshots.

    Uses the committed ``metrics-tolerances.json`` when present in the
    working directory; otherwise the diff is exact.
    """
    from .analysis import Tolerances, diff_snapshots, snapshot_from_result

    kwargs = dict(config=args.config, pipelines=args.pipelines,
                  arrangement=args.arrangement, frames=args.frames)
    event_result = PipelineRunner(engine="event", **kwargs).run()
    batched_result = PipelineRunner(engine="batched", **kwargs).run()

    tol_path = pathlib.Path("metrics-tolerances.json")
    if tol_path.is_file():
        tolerances = Tolerances.load(tol_path)
        tol_note = str(tol_path)
    else:
        tolerances = Tolerances.exact()
        tol_note = "exact (no metrics-tolerances.json here)"
    diff = diff_snapshots(snapshot_from_result(event_result),
                          snapshot_from_result(batched_result),
                          tolerances)
    print(f"strict differential: {args.config} x{args.pipelines} "
          f"{args.frames} frames")
    print(f"tolerances    : {tol_note}")
    print(diff.format_text())
    return 0 if diff.ok else 1


def _sweep_specs(args: argparse.Namespace) -> List[RunSpec]:
    return [RunSpec(config=args.config, pipelines=n, arrangement=arr,
                    frames=args.frames, image_side=args.image_side,
                    engine=getattr(args, "engine", "event"))
            for arr in args.arrangements for n in args.pipelines]


class _ObsvSession:
    """CLI lifetime of the observability plane (log, aggregator, endpoint).

    Builds whatever the flags ask for, hands the executor one progress
    callback (or ``None``, preserving the exact streaming-off path) and
    tears everything down — including the post-sweep ``--serve-hold``
    window — in :meth:`close`.
    """

    def __init__(self, args: argparse.Namespace,
                 on_update=None, aggregate: bool = False) -> None:
        self.args = args
        self.aggregator = None
        self.server = None
        self.progress = None
        if args.log is not None:
            from .obsv import configure_event_log

            configure_event_log(str(args.log))
        if args.serve_metrics is not None or aggregate:
            from .obsv import FleetAggregator

            self.aggregator = FleetAggregator(on_update=on_update)
            self.progress = self.aggregator.consume
        if args.serve_metrics is not None:
            from .obsv import MetricsServer

            self.server = MetricsServer(self.aggregator,
                                        port=args.serve_metrics).start()

    def close(self) -> None:
        if self.server is not None:
            if self.args.serve_hold > 0:
                time.sleep(self.args.serve_hold)
            self.server.stop()
            self.server = None
        if self.args.log is not None:
            from .obsv import reset_event_log

            reset_event_log()


def _cmd_sweep(args: argparse.Namespace) -> int:
    problem = _check_out_paths(args.json, args.log)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    specs = _sweep_specs(args)
    cache = _cache_from(args)
    obsv = _ObsvSession(args)
    if obsv.server is not None:
        print(f"metrics: {obsv.server.url}/metrics   "
              f"health: {obsv.server.url}/healthz")
    executor = SweepExecutor(jobs=args.jobs, cache=cache,
                             progress=obsv.progress)
    try:
        results = executor.run(specs)

        rows = []
        per_arr = len(args.pipelines)
        for i, arr in enumerate(args.arrangements):
            chunk = results[i * per_arr:(i + 1) * per_arr]
            rows.append([arr,
                         *[f"{r.walkthrough_seconds:.1f}" for r in chunk]])
        print(format_table(
            ["arrangement", *[f"{n} pl." for n in args.pipelines]], rows,
            title=f"sweep {args.config}, {args.frames} frames (seconds)"))
        stats = executor.last_stats
        where = f" ({cache.root})" if cache is not None else " (cache off)"
        print(f"{len(specs)} points: {stats.hits} cached, "
              f"{stats.executed} simulated, jobs={args.jobs}{where}")
        if args.json is not None:
            results_to_json(results, args.json)
            print(f"results -> {args.json}")
        if args.expect_all_cached and stats.executed:
            print(f"error: expected a fully warm cache but {stats.executed} "
                  f"point(s) were simulated", file=sys.stderr)
            return 1
        return 0
    finally:
        obsv.close()


def _cmd_top(args: argparse.Namespace) -> int:
    problem = _check_out_paths(args.log)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from .obsv import TopDashboard

    specs = _sweep_specs(args)
    cache = _cache_from(args)
    dash: Optional[TopDashboard] = None

    def on_update(aggregator) -> None:
        if dash is not None:
            dash.on_update(aggregator)

    obsv = _ObsvSession(args, on_update=on_update, aggregate=True)
    assert obsv.aggregator is not None
    dash = TopDashboard(obsv.aggregator, interval=args.interval)
    executor = SweepExecutor(jobs=args.jobs, cache=cache,
                             progress=obsv.progress)
    try:
        executor.run(specs)
        dash.finish()
        stats = executor.last_stats
        print(f"{len(specs)} points: {stats.hits} cached, "
              f"{stats.executed} simulated, jobs={args.jobs}")
        if obsv.server is not None:
            print(f"metrics: {obsv.server.url}/metrics")
        return 0
    finally:
        obsv.close()


def _cmd_profile(args: argparse.Namespace) -> int:
    problem = _check_out_paths(args.trace_out, args.counters_out)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    telemetry = Telemetry()
    runner = PipelineRunner(config=args.config, pipelines=args.pipelines,
                            arrangement=args.arrangement, frames=args.frames,
                            telemetry=telemetry)
    result = runner.run()
    print(f"config      : {result.config} / {result.arrangement}, "
          f"{result.pipelines} pipelines, {result.frames} frames")
    print(f"walkthrough : {result.walkthrough_seconds:.2f} s, "
          f"{telemetry.event_count} events, "
          f"{len(telemetry.counters)} metrics")
    if args.trace_out is not None:
        path = write_chrome_trace(args.trace_out, telemetry)
        print(f"trace       : {path}")
    if args.counters_out is not None:
        path = write_counters(args.counters_out, telemetry.counters)
        print(f"counters    : {path}")
    print()
    print(top_report(telemetry, top=args.top,
                     horizon=result.walkthrough_seconds))
    return 0


def _cmd_paper(_args: argparse.Namespace) -> int:
    outcomes = paper.evaluate()
    for finding, value in outcomes:
        mark = "ok  " if finding.band.holds(value) else "FAIL"
        print(f"{mark} {finding.key:<62} paper "
              f"{paper.format_value(finding, finding.paper):>10}  model "
              f"{paper.format_value(finding, value):>10}  band {finding.band}")
    failed = paper.failures(outcomes)
    print(f"{len(outcomes)} findings, {len(failed)} outside their band")
    return 1 if failed else 0


def _cmd_film(args: argparse.Namespace) -> int:
    from .render import write_ppm

    args.out.mkdir(parents=True, exist_ok=True)
    workload = WalkthroughWorkload(frames=args.frames, image_side=args.side)
    film = render_film(workload, "mcpc_renderer", args.pipelines,
                       args.frames)
    for i, frame in enumerate(film):
        write_ppm(args.out / f"frame_{i:03d}.ppm", frame)
    result = PipelineRunner(config="mcpc_renderer", pipelines=args.pipelines,
                            frames=args.frames, image_side=args.side,
                            workload=workload).run()
    print(f"wrote {len(film)} frames to {args.out}/ "
          f"(simulated kit time {result.walkthrough_seconds:.2f} s)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .analysis import analyze_telemetry

    telemetry = Telemetry()
    try:
        runner = PipelineRunner(config=args.config, pipelines=args.pipelines,
                                frames=400, telemetry=telemetry,
                                engine="batched")
        result = runner.run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.config}, {args.pipelines} pipeline(s), 400 frames "
          f"(batched engine): walkthrough "
          f"{result.walkthrough_seconds:.1f} s\n")
    print(analyze_telemetry(telemetry, result).format_text())
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    print(describe(args.config, args.pipelines, args.arrangement).to_text())
    return 0


def _cmd_chip(args: argparse.Namespace) -> int:
    from .scc.diagnostics import chip_report

    runner = PipelineRunner(config=args.config, pipelines=args.pipelines,
                            frames=args.frames)
    result = runner.run()
    print(f"walkthrough: {result.walkthrough_seconds:.2f} s "
          f"({args.frames} frames)\n")
    print(chip_report(runner.last_chip))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .pipeline.autotune import autotune

    print(autotune(args.config, frames=args.frames).summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        analyze_events,
        analyze_telemetry,
        snapshot_from_result,
        write_snapshot,
    )

    problem = _check_out_paths(args.html, args.snapshot_out)
    if problem:
        print(problem, file=sys.stderr)
        return 2

    if args.concurrency and args.shallow:
        print("error: --concurrency needs the deep-analysis path "
              "(it is independent of the run; drop --shallow)",
              file=sys.stderr)
        return 2

    if args.trace is not None:
        # A trace file carries events but no RunResult: deep analysis
        # only, nothing to snapshot.
        if args.shallow or args.snapshot_out:
            print("error: --trace is incompatible with --shallow "
                  "and --snapshot-out (no RunResult)",
                  file=sys.stderr)
            return 2
        from .telemetry import events_from_chrome

        try:
            doc = json.loads(args.trace.read_text(encoding="ascii"))
            insight = analyze_events(events_from_chrome(doc))
        except (OSError, ValueError) as exc:
            print(f"error: {args.trace}: {exc}", file=sys.stderr)
            return 2
        result = None
    elif args.shallow:
        runner = PipelineRunner(config=args.config,
                                pipelines=args.pipelines,
                                arrangement=args.arrangement,
                                frames=args.frames, engine=args.engine)
        spec = runner.spec()
        cache = _cache_from(args)
        if cache is not None:
            result = SweepExecutor(cache=cache).run_one(spec)
        else:
            result = runner.run()
        snapshot = snapshot_from_result(result, digest=spec.digest())
        insight = None
    else:
        telemetry = Telemetry()
        runner = PipelineRunner(config=args.config,
                                pipelines=args.pipelines,
                                arrangement=args.arrangement,
                                frames=args.frames, telemetry=telemetry,
                                engine=args.engine)
        result = runner.run()
        insight = analyze_telemetry(telemetry, result)

    if args.shallow:
        from .analysis import verdict_from_result

        verdict = verdict_from_result(result)
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(f"config     : {result.config} / {result.arrangement}, "
                  f"{result.pipelines} pipelines, {result.frames} frames")
            print(f"bottleneck : {verdict.describe()}")
            print(f"walkthrough: {result.walkthrough_seconds:.3f} s")
    else:
        con_summary = None
        if args.concurrency:
            from .analysis.concurrency import concurrency_summary

            con_summary = concurrency_summary(
                args.config, args.pipelines, args.arrangement)
        if args.json:
            doc = insight.to_dict()
            if con_summary is not None:
                doc["concurrency"] = con_summary
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(insight.format_text())
            if con_summary is not None:
                print(_format_concurrency(con_summary))
        if args.snapshot_out is not None:
            assert result is not None
            snapshot = snapshot_from_result(
                result, digest=runner.spec().digest(), insight=insight)
        if args.html is not None:
            from .report import insight_to_html

            what = (str(args.trace) if args.trace is not None else
                    f"{args.config} x{args.pipelines}, "
                    f"{args.frames} frames")
            args.html.write_text(
                insight_to_html(insight, title=what,
                                concurrency=con_summary),
                encoding="utf-8")
            print(f"html report : {args.html}")
    if args.snapshot_out is not None:
        write_snapshot(args.snapshot_out, snapshot)
        print(f"snapshot    : {args.snapshot_out} "
              f"({len(snapshot['metrics'])} metrics)")
    return 0


def _format_concurrency(summary: dict) -> str:
    """Terminal rendering of the static concurrency analysis."""
    locks = summary.get("locks", {})
    protocol = summary.get("protocol", {})
    lines = ["", "concurrency (static)",
             "--------------------",
             f"lock discipline: {locks.get('contracts', 0)} guarded-by "
             f"contract(s), {locks.get('findings', 0)} finding(s) across "
             f"{', '.join(locks.get('packages', []))}"]
    for mod in locks.get("modules", []):
        attrs = len(mod.get("guarded_attrs", []))
        holds = len(mod.get("caller_holds", []))
        lines.append(f"  {mod['module']}: {attrs} guarded attr(s), "
                     f"{holds} caller-holds")
        for finding in mod.get("findings", []):
            lines.append(f"    ! {finding}")
    verdict = ("deadlock-free" if protocol.get("deadlock_free")
               else "DEADLOCK")
    lines.append(f"protocol: {protocol.get('name', '?')} -> {verdict} "
                 f"({protocol.get('steps', 0)} abstract steps, "
                 f"{len(protocol.get('processes', []))} processes, "
                 f"{len(protocol.get('channels', []))} channels)")
    for issue in protocol.get("issues", []):
        lines.append(f"  ! {issue}")
    return "\n".join(lines)


def _cmd_diff(args: argparse.Namespace) -> int:
    from .analysis import Tolerances, diff_snapshots, read_snapshot

    try:
        baseline = read_snapshot(args.baseline)
        current = read_snapshot(args.current)
        tolerances = (Tolerances.load(args.tolerances)
                      if args.tolerances is not None else None)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = diff_snapshots(baseline, current, tolerances)
    print(outcome.format_text(verbose=args.verbose))
    return 0 if outcome.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .service import ReproService, ServiceConfig

    token = None
    if args.auth_token_env is not None:
        token = os.environ.get(args.auth_token_env)
        if not token:
            print(f"error: --auth-token-env names {args.auth_token_env!r} "
                  f"but it is unset or empty", file=sys.stderr)
            return 2

    if args.log is not None:
        from .obsv import configure_event_log
        configure_event_log(str(args.log))

    config = ServiceConfig(host=args.host, port=args.port,
                           workers=args.workers,
                           queue_limit=args.queue_limit,
                           rate=args.rate, burst=args.burst,
                           run_timeout_s=args.run_timeout,
                           auth_token=token)
    service = ReproService(config, cache=_cache_from(args))

    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)

    try:
        service.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        print(f"repro service listening on {service.url}")
        print(f"  submit : POST {service.url}/runs")
        print(f"  sweep  : POST {service.url}/sweeps")
        print(f"  result : GET  {service.url}/runs/<digest>")
        print(f"  stream : WS   {service.url}/runs/<digest>/stream")
        print(f"  health : GET  {service.url}/healthz")
        print(f"  metrics: GET  {service.url}/metrics")
        sys.stdout.flush()
        stop.wait(timeout=args.max_runtime)
    finally:
        service.stop()
        if args.log is not None:
            from .obsv import reset_event_log
            reset_event_log()
    _requests, jobs, _ws = service.counters.snapshot()
    print(f"serve: done; jobs={sum(jobs.values())} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(jobs.items()))})"
          if jobs else "serve: done; jobs=0")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lints import Baseline, LintEngine, default_rules

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.summary}")
            if rule.rationale:
                print(f"        {rule.rationale}")
        return 0

    paths = args.paths or [pathlib.Path("src")]
    engine = LintEngine(rules)
    baseline = (Baseline.load(args.baseline) if args.baseline is not None
                else Baseline())
    report = engine.run(paths, baseline)

    if args.update_baseline:
        if args.baseline is None:
            print("error: --update-baseline needs --baseline FILE",
                  file=sys.stderr)
            return 2
        Baseline.from_findings(report.findings).save(args.baseline)
        print(f"baseline: {len(report.findings)} finding(s) -> "
              f"{args.baseline}")
        return 0

    stale_suppressions = (report.unused_suppressions
                          if args.report_unused_suppressions else [])
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.new:
            print(finding.format())
        for fp, meta in sorted(report.stale_baseline.items()):
            print(f"stale baseline entry {fp}: {meta.get('rule')} in "
                  f"{meta.get('path')} no longer occurs "
                  f"(run --update-baseline to prune)")
        for sup in stale_suppressions:
            print(f"{sup['path']}:{sup['line']}: unused suppression of "
                  f"{sup['rule']} (no finding to suppress; remove the "
                  f"comment)")
        print(f"{report.files_checked} file(s): {len(report.new)} new, "
              f"{len(report.baselined)} baselined, "
              f"{len(report.stale_baseline)} stale")
    if report.clean and stale_suppressions:
        return 1
    return 0 if report.clean else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir or default_cache_dir())
    max_age_s = (args.max_age_days * 86400.0
                 if args.max_age_days is not None else None)
    max_bytes = (int(args.max_size_mb * 1e6)
                 if args.max_size_mb is not None else None)
    report = cache.gc(max_age_s=max_age_s, max_bytes=max_bytes,
                      dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    by = report["removed_by"]
    detail = ", ".join(f"{by[k]} {k}" for k in ("corrupt", "age", "size")
                       if by[k])
    print(f"{cache.root}: scanned {report['scanned']} entries, "
          f"{verb} {report['removed']} "
          f"({report['removed_bytes'] / 1e6:.2f} MB"
          f"{'; ' + detail if detail else ''}), "
          f"kept {report['kept']} ({report['kept_bytes'] / 1e6:.2f} MB)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "cache": _cmd_cache,
    "sweep": _cmd_sweep,
    "top": _cmd_top,
    "profile": _cmd_profile,
    "tune": _cmd_tune,
    "paper": _cmd_paper,
    "film": _cmd_film,
    "explain": _cmd_explain,
    "describe": _cmd_describe,
    "chip": _cmd_chip,
    "analyze": _cmd_analyze,
    "diff": _cmd_diff,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
