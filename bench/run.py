"""Benchmark for openqa: seeded worlds, two workloads, checked answers.

    python3 bench/run.py --workload kb --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --smoke   # every workload and check, tiny scale

Run it from the root of a checkout: it imports `openqa` from `src/` there
and writes only under `bench/.work/`. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
With `--trace 0` the metrics are the end-to-end ones; `--trace 1` is a
separate traced run that reports the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("kb", "passages-http")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds and the fewest rounds, to run every check quickly")
    return parser.parse_args(argv)


def manifest_metrics(trace: bool) -> list[str] | None:
    """The metric names BENCHMARK.json lists for this mode, in its order;
    None where the checkout has no BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    # This process and every process it starts run on one CPU, the HTTP
    # server on another where there is one: on a shared host a thread
    # handoff between two CPUs can take milliseconds, and `ask` hands work
    # to three solver threads per question. Set before numpy starts threads.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import workloads

    work = os.path.join(BENCH, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        seconds = 0.0 if args.smoke else args.seconds
        result = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, seconds, bool(args.trace), args.smoke,
                                                     cpus[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = manifest_metrics(bool(args.trace))
    if expected is not None:
        missing = [name for name in expected if name not in result.metrics]
        if args.smoke:  # a tiny world may never make some of the traced calls
            for name in missing:
                print(f"smoke: metric {name} was not measured", file=sys.stderr)
        else:
            result.errors += [f"metric {name} was not measured" for name in missing]
        result.metrics = {name: result.metrics[name] for name in expected if name in result.metrics}

    for error in result.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload:>13}  {name:<34} {value:14.4f} {unit}")
    print(f"{args.workload:>13}  attempted {result.attempted}, failed {result.failed}"
          + (f" (first: {result.failures[0]})" if result.failures else ""))
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if not result.errors else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status, summary = 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            if lines and proc.returncode in (0, 1):
                summary[f"{workload}/trace{trace}"] = json.loads(lines[-1])
            else:
                summary[f"{workload}/trace{trace}"] = {"correct": False, "exit": proc.returncode}
    print(json.dumps(summary))
    return status


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "openqa", "__init__.py")):
        print(f"error: no openqa sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
