#!/usr/bin/env python
"""The paper's §VI-D DVFS study: tune per-tile frequencies.

Three settings on a single MCPC-fed pipeline, placed as in the paper's
Fig. 18 (blur alone in its voltage island; the post-blur stages filling
another island exactly):

1. everything at 533 MHz / 1.1 V;
2. only the blur tile at 800 MHz / 1.3 V (fast, +4-5 W);
3. blur at 800 MHz *and* the post-blur island at 400 MHz / 0.7 V
   (same speed, below-baseline power).

Run:  python examples/frequency_tuning.py [--frames 400]
"""

import argparse

from repro.pipeline import PipelineRunner
from repro.pipeline.arrangements import dvfs_study_placement
from repro.report import format_table
from repro.report.paper import FREQUENCY_PLANS

SETTINGS = {
    "all @533MHz": FREQUENCY_PLANS["all_533"],
    "blur @800MHz": FREQUENCY_PLANS["blur_800"],
    "blur @800 + tail @400MHz": FREQUENCY_PLANS["mixed"],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=400)
    args = parser.parse_args()

    rows = []
    baseline_energy = None
    for name, plan in SETTINGS.items():
        result = PipelineRunner(config="mcpc_renderer", pipelines=1,
                                frames=args.frames,
                                placement=dvfs_study_placement(),
                                frequency_plan=plan).run()
        if baseline_energy is None:
            baseline_energy = result.scc_energy_j
        rows.append([
            name,
            f"{result.walkthrough_seconds:.1f}",
            f"{result.scc_avg_power_w:.2f}",
            f"{result.scc_energy_j:.0f}",
            f"{100 * result.scc_energy_j / baseline_energy:.0f}%",
        ])

    print(format_table(
        ["setting", "time s", "power W", "energy J", "vs baseline"],
        rows,
        title=f"Frequency tuning, 1 pipeline, MCPC renderer, "
              f"{args.frames} frames"))
    print("\nPaper: 236 s -> 174 s (~36% faster) for ~10% more power; the "
          "mixed setting\nholds the speed at ~1 W *below* the all-533 "
          "baseline (Figs 16/17).")


if __name__ == "__main__":
    main()
