#!/usr/bin/env python
"""Macro pipelining beyond image processing: a log-analytics pipeline.

The paper argues its findings "should easily translate to other problem
domains where parallel macro pipelines are used".  This example uses the
generic :class:`~repro.pipeline.MacroPipeline` API to build a
parse → filter → aggregate → compress pipeline over variable-sized log
batches, runs it on simulated SCC cores, and shows the same phenomena:

* throughput bounded by the slowest stage;
* idle time piling up downstream of the bottleneck;
* the no-local-memory hand-off tax on every stage boundary.

Run:  python examples/custom_pipeline.py [--items 200]
"""

import argparse

import numpy as np

from repro.pipeline import MacroPipeline
from repro.report import format_table


def build_pipeline() -> MacroPipeline:
    pipe = MacroPipeline()
    # Service times in seconds on a 533 MHz P54C; the parse stage is the
    # deliberate bottleneck (it touches every byte twice).
    pipe.add_stage("parse", lambda item: 40e-9 * item.nbytes)
    pipe.add_stage("filter", lambda item: 8e-9 * item.nbytes)
    pipe.add_stage("aggregate", 0.75e-3)
    pipe.add_stage("compress", lambda item: 15e-9 * item.nbytes)
    return pipe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=200,
                        help="number of log batches to stream")
    parser.add_argument("--batch-kb", type=int, default=256,
                        help="mean batch size in KiB")
    args = parser.parse_args()

    rng = np.random.default_rng(1)
    sizes = rng.integers(args.batch_kb * 512, args.batch_kb * 1536,
                         size=args.items)

    pipe = build_pipeline()
    items = [int(s) for s in sizes]
    # the stage graph the run interprets: a source core sends each batch
    # to the first stage; every stage receives, computes and sends on
    print(pipe.graph(items).to_text(), end="\n\n")
    result = pipe.run(items)

    rows = []
    for name in ("parse", "filter", "aggregate", "compress"):
        rows.append([
            name,
            f"{result.stage_busy_means[name] * 1e3:.2f}",
            f"{result.stage_idle_means.get(name, 0.0) * 1e3:.2f}",
        ])
    print(format_table(["stage", "busy ms/item", "idle ms/item"], rows,
                       title="Log-analytics macro pipeline on the SCC model"))
    print(f"\nitems: {result.items_completed}   "
          f"makespan: {result.makespan_s:.2f} s   "
          f"throughput: {result.throughput:.1f} items/s   "
          f"energy: {result.energy_j:.0f} J")
    print("\nNote how every stage downstream of 'parse' idles — the same "
          "bottleneck shape\nas the blur stage in the paper's Fig. 15.")


if __name__ == "__main__":
    main()
