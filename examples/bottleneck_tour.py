#!/usr/bin/env python
"""A guided tour of where each configuration's time goes.

For every renderer configuration this example:

1. runs the walkthrough on the batched engine with telemetry and reads
   the trace insights (``repro.analysis.analyze_telemetry``): the
   whole-run bottleneck verdict and the per-pipeline filter verdict;
2. prints how each stage kind splits its time into compute, blocked
   hand-offs and starvation;
3. draws an ASCII Gantt chart of the first pipeline's stages so the
   bottleneck is literally visible (the busy bars of the slow stage
   touch; everything downstream shows gaps).

Run:  python examples/bottleneck_tour.py [--pipelines 5] [--frames 60]
"""

import argparse

from repro.analysis import analyze_telemetry
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry, render_gantt, stage_busy_spans


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=5)
    parser.add_argument("--frames", type=int, default=60)
    args = parser.parse_args()

    for config in ("one_renderer", "n_renderers", "mcpc_renderer"):
        print("=" * 72)
        telemetry = Telemetry()
        runner = PipelineRunner(config=config, pipelines=args.pipelines,
                                frames=args.frames, telemetry=telemetry,
                                engine="batched")
        result = runner.run()
        insight = analyze_telemetry(telemetry, result)
        print(f"{config}, {args.pipelines} pipeline(s): "
              f"{result.seconds_per_frame * 1e3:.1f} ms per frame")
        print(f"  bottleneck     : {insight.verdict.describe()}")
        print(f"  pipeline filter: {insight.filter_verdict().describe()}")
        print("  seconds per stage kind, summed over its instances:")
        for kind in sorted(insight.kind_utilization,
                           key=lambda k: -insight.kind_utilization[k]):
            sec = insight.kind_seconds[kind]
            print(f"  {kind:>12}  compute {sec.get('compute', 0.0):7.2f} s"
                  f"  blocked {sec.get('blocked', 0.0):6.2f} s"
                  f"  starved {sec.get('starved', 0.0):7.2f} s")
        if result.latency_quartiles:
            print(f"  frame latency: "
                  f"{result.latency_quartiles[1] * 1e3:.0f} ms median")

        spans = stage_busy_spans(telemetry)
        # Show pipeline 0's stages plus the shared input/output stages.
        wanted = []
        for track in dict.fromkeys(str(s.track) for s in spans):
            if track.endswith("[0]") or "[" not in track:
                wanted.append(track)
        window = min(max(s.end for s in spans),
                     12 * result.seconds_per_frame)
        print()
        print(render_gantt(spans, width=64, t1=window, tracks=wanted))
        print()


if __name__ == "__main__":
    main()
