"""driftworld benchmark: one workload per call, each in fresh processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stage1-battery --seed 1 --seconds 10 --trace 0

The workload runs in a new worker process (`worker.py`).  With
`--trace 0` the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and every end-to-end metric; with
`--trace 1` the worker wraps the program's public functions and the
metrics are the per-layer ones instead.  `setup_s` is the median over
several fresh processes of the time from starting the process to its
first timed operation.  `--smoke` shrinks every workload to one short
round, for the benchmark's own tests.  Scratch files go under
`perfbench/out/` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stage1-battery", "dense-shared", "replay-audit", "wire-episode")
#: Processes started per untraced run to measure set-up; their median is setup_s.
SETUP_SAMPLES = 3
#: A run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def start_worker(args, outdir: str, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to its end; returns its report and when it was started."""
    src = os.path.abspath("src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", outdir] + extra + (["--smoke"] if args.smoke else [])
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no report")
    return json.loads(lines[-1]), started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "driftworld", "__init__.py")):
        return fail("run from the root of a driftworld checkout (no src/driftworld here)")

    rundir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        samples = 1 if args.trace or args.smoke else SETUP_SAMPLES
        for i in range(samples - 1):
            report, started = start_worker(args, os.path.join(rundir, f"setup{i}"),
                                           ["--setup-only"], deadline)
            setups.append(report["setup_done"] - started)
        report, started = start_worker(args, os.path.join(rundir, "main"), [], deadline)
        setups.append(report["setup_done"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in report["unexpected"][:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for line in report["known"][:3]:
        print(f"perfbench: known fault: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {report['rounds']} rounds, "
          f"{report['attempted']} operations, {report['failed']} failed, "
          f"{report['ticks_per_s']:.2f} ticks/s, traced={args.trace}, "
          f"set-up samples {[round(s, 4) for s in setups]} s", file=sys.stderr)
    digest = json.dumps(report["digests"], sort_keys=True)
    print(f"perfbench: trace digests {digest}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["unexpected"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
