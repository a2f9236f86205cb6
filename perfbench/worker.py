"""One workload in one fresh process: set up, then run rounds for a while.

Started by `run.py`, from the root of a checkout with `src` on
PYTHONPATH, as

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out DIR [--setup-only] [--smoke]

It prints one JSON object as its last line: the CLOCK_MONOTONIC time at
which set-up ended (the first timed operation starts right after), and,
unless `--setup-only`, the counts and metrics of the timed part.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
        tracer.phase = "setup"
    os.makedirs(args.out, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out, args.smoke)
    workload.setup()
    if tracer is not None:
        tracer.phase = None
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    run = workloads.Run(tracer)
    rounds = 0
    while True:
        workload.round(run)
        rounds += 1
        if args.smoke or time.monotonic() - setup_done >= args.seconds:
            break

    if tracer is not None:
        metrics = layers.layer_metrics(tracer, rounds)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = workloads.end_to_end(run, peak_kib / 1024.0)
    print(json.dumps({
        "setup_done": setup_done,
        "rounds": rounds,
        "attempted": run.attempted,
        "failed": run.failed,
        "unexpected": run.unexpected,
        "known": run.known,
        "ticks_per_s": run.ticks / run.busy_s if run.busy_s else 0.0,
        "digests": run.digests,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
