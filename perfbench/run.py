#!/usr/bin/env python3
"""One-command benchmark of the macro-pipeline reproduction.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload table1 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --trace 1            # per-layer pass
    python3 perfbench/run.py --sets 2             # two sets and their spread
    python3 perfbench/run.py --write-reference    # regenerate reference.json

Workloads, metrics and regression bounds are declared in BENCHMARK.json
at the repository root; README.md beside this file explains them.  One
workload runs in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
every end-to-end metric untraced (``--trace 0``), every per-layer metric
traced (``--trace 1``).  Several workloads or sets run each workload in
a child process of its own and print a summary object of the same shape.
The exit code is 0 only when every operation succeeded.

Everything the benchmark writes goes under ``--out``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

#: fresh interpreter launches whose median is ``setup_s``
SETUP_LAUNCHES = 3
#: time spent on the reference loop after each operation, as a share of
#: the operation's wall time (at least one loop)
LOOP_SHARE = 0.25
#: counts recorded by the traced pass, reported per traced operation
PER_OP_COUNTS = ("sim.events", "batched.frames_simulated", "batched.jumps",
                 "batched.jumped.one_renderer", "batched.jumped.n_renderers",
                 "batched.jumped.mcpc_renderer", "exec.cache_hits",
                 "exec.cache_misses", "telemetry.events",
                 "analysis.critpath_segments")


def describe(values: Sequence[float]) -> Dict[str, float]:
    """N, min, median and interquartile range of the samples."""
    if not values:
        return {"n": 0}
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"n": len(values), "min": min(values),
            "median": statistics.median(values), "iqr": q3 - q1}


def reference_loop() -> None:
    """Fixed pure-Python work, a small event calendar's: pop the earliest
    of 256 events, account it, push its successor, 1000 times.  About
    0.7 ms on an idle core of the 2-vCPU machine the bounds were set on.
    It slows with the host's neighbours as the workloads do, where a
    loop of plain integer arithmetic slows less (README, Noise)."""
    rng = random.Random(7)
    calendar = [(rng.random(), i) for i in range(256)]
    heapq.heapify(calendar)
    busy: Dict[int, float] = {}
    for _ in range(1000):
        t, i = heapq.heappop(calendar)
        busy[i] = busy.get(i, 0.0) + t
        heapq.heappush(calendar, (t + rng.random(), i))


def time_loops(seconds: float) -> List[float]:
    """Wall seconds of reference loops run back to back, at least one,
    until ``seconds`` have passed."""
    times: List[float] = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return times


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child (Linux KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def git_head() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one workload, in this process --------------------------------------------

#: wall seconds of set-up launches, the mean reference-loop time beside
#: each, and every loop time
Setups = Tuple[List[float], List[float], List[float]]


def probe_setup(args: argparse.Namespace) -> Setups:
    """Seconds from launching a fresh interpreter until the workload is
    ready for its first operation, once per launch, with the reference
    loop run after each launch as after an operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload[0], "--seed", str(args.seed), "--out",
           str(args.out), "--setup-probe"]
    walls: List[float] = []
    beside: List[float] = []
    loops = before = time_loops(0.0)
    for _ in range(1 if args.quick else SETUP_LAUNCHES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up launch failed: {' '.join(cmd)}")
        after = time_loops(LOOP_SHARE * wall)
        walls.append(wall)
        beside.append(statistics.fmean(before + after))
        loops += after
        before = after
    return walls, beside, loops


#: declared metrics, the samples behind them, and further report figures
#: (value, unit, samples)
Measured = Tuple[Dict[str, float], Dict[str, List[float]],
                 Dict[str, Tuple[float, str, List[float]]]]


def untraced_pass(wl: Any, args: argparse.Namespace,
                  setups: Setups) -> Measured:
    """End-to-end metrics, and the samples behind them.

    The host's neighbours slow its cores by up to half, in bursts of a
    few to a few hundred milliseconds, so an operation's wall time says
    as much about them as about the program.  After each operation the
    reference loop runs for a quarter of the operation's time, and the
    operation's ratio is its wall time over the mean loop time on either
    side of it: the bursts slow operations and loops alike.  An
    operation kind's ``norm_wall`` is the mean of its ratios, the highest
    and the lowest left out.  The timed phase lasts ``--seconds`` and at
    least one cycle.  ``setup_s`` scales each launch's wall time the same
    way, to the fastest loop of the run.
    """
    cycle = wl.ops()
    warm = 0.0
    if not args.quick:
        for _, op in cycle[:wl.warmup]:
            warm = wl.attempt(op) or 0.0
    walls: Dict[str, List[float]] = {kind: [] for kind, _ in cycle}
    cpus: Dict[str, List[float]] = {kind: [] for kind, _ in cycle}
    ratios: Dict[str, List[float]] = {kind: [] for kind, _ in cycle}
    loops = before = time_loops(LOOP_SHARE * warm)
    deadline = time.perf_counter() + args.seconds
    done = 0
    while done < len(cycle) or time.perf_counter() < deadline:
        kind, op = cycle[done % len(cycle)]
        cpu0 = time.process_time()
        wall = wl.attempt(op)
        cpu = time.process_time() - cpu0
        after = time_loops(LOOP_SHARE * (wall or 0.0))
        if wall is not None:
            walls[kind].append(wall)
            cpus[kind].append(cpu)
            ratios[kind].append(wall / statistics.fmean(before + after))
        loops += after
        before = after
        done += 1
    wl.after()

    def per_cycle(per_kind: Callable[[str], float]) -> float:
        """The sum over one cycle of a figure of each operation's kind;
        0 when a kind has no operation that succeeded."""
        if not all(walls[kind] for kind, _ in cycle):
            return 0.0
        return sum(per_kind(kind) for kind, _ in cycle)

    def norm(kind: str) -> float:
        kept = sorted(ratios[kind])
        return statistics.fmean(kept[1:-1] if len(kept) > 2 else kept)

    launches, launch_beside, launch_loops = setups
    fastest = min(loops + launch_loops)
    scaled = [w * fastest / b for w, b in zip(launches, launch_beside)]
    metrics = {
        "setup_s": statistics.median(scaled),
        "norm_wall": per_cycle(norm),
        "peak_rss_mb": peak_rss_mb(),
    }
    figures = {
        "setup_wall_s": (statistics.median(launches), "s", launches),
        "wall_s": (per_cycle(lambda k: statistics.median(walls[k])), "s", []),
        "cpu_s": (per_cycle(lambda k: statistics.median(cpus[k])), "s", []),
        "host_slowdown": (statistics.fmean(loops) / fastest, "x", []),
    }
    single = len(walls) == 1
    sampled = {"setup_s": scaled}
    for kind, samples in ratios.items():
        name = "norm_wall" if single else f"norm_wall.{kind}"
        if single:
            sampled[name] = samples
        elif len(samples) >= 10:
            figures[name] = (norm(kind), "loops", samples)
        # the highest percentile with at least ten operations beyond it
        for pct in (99, 95, 90):
            if len(samples) * (100 - pct) >= 1000:
                figures[f"p{pct}_{name}"] = (
                    statistics.quantiles(samples, n=100)[pct - 1], "loops",
                    [])
                break
    return metrics, sampled, {**figures, **wl.extras()}


def traced_pass(wl: Any, args: argparse.Namespace,
                declared: List[str]) -> Measured:
    """Per-layer metrics from operations run twice each, untraced and
    then traced."""
    rec = wl.rec
    cycle = wl.ops()
    traced: List[float] = []
    slowdowns: List[float] = []
    with spans.instrument(rec):
        for _, op in cycle[:wl.warmup]:
            wl.attempt(op)
        wl.begin_trace()
        deadline = time.perf_counter() + args.seconds
        done = 0
        while True:
            _, op = cycle[done % len(cycle)]
            plain = wl.attempt(op)
            rec.enabled = True
            try:
                with rec.span(spans.ROOT):
                    wall = wl.attempt(op)
            finally:
                rec.enabled = False
            if wall is not None:
                traced.append(wall)
                if plain is not None:
                    slowdowns.append(wall / plain)
            done += 1
            if time.perf_counter() >= deadline:
                break
        layer = wl.layer_metrics(2 * done)

    ops = max(len(traced), 1)
    selfs = spans.self_times(rec.spans)
    total = sum(selfs.values()) or 1.0
    table = sorted(((name, s / ops, 100.0 * s / total)
                    for name, s in selfs.items()), key=lambda row: -row[1])
    path = args.out / f"trace-{wl.name}-seed{args.seed}.json"
    spans.write_trace(path, rec.spans, table)
    print(f"trace written to {path} and {path.with_suffix('.txt')}")

    counts = rec.counts
    frames = counts.get("batched.frames", 0.0)
    metrics: Dict[str, float] = {
        "trace.wall_s": statistics.median(traced) if traced else 0.0,
        "trace.overhead_pct": ((statistics.median(slowdowns) - 1) * 100
                               if slowdowns else 0.0),
        "workload.prewarm_s": wl.prewarm_s,
        "workload.profiles": float(wl.profiles),
        "batched.frames_skipped_ratio": (
            1 - counts.get("batched.frames_simulated", 0.0) / frames
            if frames else 0.0),
        **{name: counts.get(name, 0.0) / ops for name in PER_OP_COUNTS},
        **layer,
    }
    suffix = ".self_pct"
    for name in declared:
        if name.endswith(suffix):
            metrics[name] = 100.0 * selfs.get(name[:-len(suffix)], 0.0) / total
    return metrics, {"trace.wall_s": traced}, {}


def run_workload(args: argparse.Namespace) -> int:
    spec = load_spec()
    name = args.workload[0]
    load0 = os.getloadavg()
    affinity = len(os.sched_getaffinity(0))
    # one core for every thread of the workload, its set-up launches and
    # the reference loop, so that the loop feels the same neighbours
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = ([], [], []) if args.setup_probe or args.trace \
        else probe_setup(args)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    with tempfile.TemporaryDirectory(prefix="run-", dir=args.out) as tmp:
        ctx = workloads.Context(seed=args.seed, tmp=Path(tmp),
                                reference=workloads.Reference(REFERENCE),
                                recorder=spans.Recorder(), quick=args.quick)
        wl = workloads.WORKLOADS[name](ctx)
        try:
            wl.setup()
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            if args.trace:
                values, samples, figures = traced_pass(
                    wl, args, [m["name"] for m in declared])
            else:
                values, samples, figures = untraced_pass(wl, args, setups)
        finally:
            wl.close()

    report = [(m["name"], values[m["name"]], m["unit"],
               samples.get(m["name"], [])) for m in declared]
    report.append(("fail_ratio", wl.failed / max(wl.attempted, 1),
                   "fraction", []))
    report += [(key, value, unit, sampled)
               for key, (value, unit, sampled) in figures.items()]
    print(f"[{name} seed={args.seed} trace={args.trace}] "
          f"{wl.failed}/{wl.attempted} operations failed")
    for key, value, unit, sampled in report:
        stats = describe(sampled)
        detail = (f"  N={stats['n']} min={stats['min']:.6g} "
                  f"median={stats['median']:.6g} IQR={stats['iqr']:.3g}"
                  if sampled else "")
        print(f"  {key:<34} {value:>14.6g} {unit:<9}{detail}")
    for error in wl.errors:
        print(error, file=sys.stderr)

    noise = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": affinity, "pinned_cpu": min(os.sched_getaffinity(0)),
        "loadavg_start": load0, "loadavg_end": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_head": git_head(),
        "samples": {key: describe(sampled) for key, _, _, sampled in report
                    if sampled},
    }
    print("noise " + json.dumps(noise, sort_keys=True))
    correct = wl.failed == 0 and wl.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


# -- several workloads or sets, one child process each ------------------------

def run_suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    results: Dict[str, List[Dict[str, Any]]] = {}
    ok = True
    for index in range(args.sets):
        for name in args.workload:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed + index), "--seconds",
                   str(args.seconds), "--trace", str(args.trace), "--out",
                   str(args.out)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: exited with {proc.returncode} and no result",
                      file=sys.stderr)
                return 1
            ok = ok and result["correct"] and proc.returncode == 0
            results.setdefault(name, []).append(result)

    print(f"\n{'workload':<14} {'metric':<34} "
          + " ".join(f"{'set ' + str(i + 1):>12}" for i in range(args.sets))
          + (f" {'spread':>8} {'bound':>6}" if args.sets > 1 else ""))
    summary: Dict[str, Dict[str, Any]] = {}
    for name, runs in results.items():
        for metric in declared:
            key = metric["name"]
            values = [run["metrics"][key]["value"] for run in runs]
            median = statistics.median(values)
            summary[f"{name}.{key}"] = {"value": median,
                                        "unit": metric["unit"]}
            line = (f"{name:<14} {key:<34} "
                    + " ".join(f"{v:>12.6g}" for v in values))
            if args.sets > 1 and "bound" in metric:
                spread = (max(values) - min(values)) / median if median else 0.0
                within = spread <= metric["bound"]
                ok = ok and within
                line += (f" {spread:>8.3f} {metric['bound']:>6.2f}"
                         + ("" if within else "  EXCEEDS BOUND"))
            print(line)
    print(json.dumps({
        "correct": all(r["correct"] for rs in results.values() for r in rs),
        "attempted": sum(r["attempted"] for rs in results.values()
                         for r in rs),
        "failed": sum(r["failed"] for rs in results.values() for r in rs),
        "metrics": summary,
    }))
    return 0 if ok else 1


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (set k of --sets uses seed+k-1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer pass with spans, written to --out")
    parser.add_argument("--sets", type=int, default=1,
                        help="run every chosen workload this many times and "
                             "fail when a metric's spread exceeds its bound")
    parser.add_argument("--quick", action="store_true",
                        help="one set-up launch, no warm-up, few warm sweeps")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                        help="directory for everything the benchmark writes")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json on the event engine")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    if args.write_reference:
        sys.path.insert(0, str(SRC))
        import workloads

        workloads.write_reference(REFERENCE)
        print(f"reference written to {REFERENCE}")
        return 0
    args.workload = args.workload or names
    if len(args.workload) == 1 and args.sets == 1:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
