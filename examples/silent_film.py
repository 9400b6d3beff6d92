#!/usr/bin/env python
"""Render an actual silent film — the real pixels the pipeline draws.

Computes the heterogeneous configuration's film (MCPC renderer + SCC
filter pipelines): the software rasterizer draws the city, the five
filters run their genuine numpy kernels on every strip, the strips are
reassembled, and the frames are written as PPM images you can view or
assemble into a video (e.g. ``ffmpeg -i frames/frame_%03d.ppm film.mp4``).
A timing run of the same configuration reports what the walkthrough
costs on the simulated SCC kit.

Run:  python examples/silent_film.py [--frames 24] [--side 160] [--out frames]
"""

import argparse
import pathlib

from repro.pipeline import PipelineRunner, WalkthroughWorkload, render_film
from repro.render import write_ppm


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--side", type=int, default=160,
                        help="square frame side in pixels")
    parser.add_argument("--pipelines", type=int, default=2)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("frames"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    workload = WalkthroughWorkload(frames=args.frames, image_side=args.side)

    print(f"Rendering {args.frames} frames of {args.side}x{args.side} "
          f"through {args.pipelines} parallel pipelines...")
    frames = render_film(workload, "mcpc_renderer", args.pipelines,
                         args.frames, seed=args.seed)
    for i, frame in enumerate(frames):
        write_ppm(args.out / f"frame_{i:03d}.ppm", frame)

    result = PipelineRunner(
        config="mcpc_renderer",
        pipelines=args.pipelines,
        frames=args.frames,
        image_side=args.side,
        workload=workload,
        seed=args.seed,
    ).run()

    print(f"Wrote {len(frames)} frames to {args.out}/")
    print(f"Simulated walkthrough time on the SCC kit: "
          f"{result.walkthrough_seconds:.2f} s "
          f"({result.seconds_per_frame * 1e3:.1f} ms per frame)")
    print(f"SCC power during the run: {result.scc_avg_power_w:.1f} W")
    print("Assemble a film with: "
          f"ffmpeg -i {args.out}/frame_%03d.ppm -r 12 film.mp4")


if __name__ == "__main__":
    main()
