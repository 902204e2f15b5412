#!/usr/bin/env python3
"""Builds perf_ladder in Release from the sources of this checkout and runs it.

    python3 bench/ladder/run.py --workload bfs-social --seed 1 --seconds 15 --trace 0
    python3 bench/ladder/run.py --workload all --seed 1

The build goes to .bench_build/ladder at the repository root; reports land in
.bench_build/reports. Each workload runs in its own process, one after the
other. The last line of standard output is the result line of the last
workload run (see perf_ladder.cc). Exits non-zero, without a result line, when
the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["bfs-social", "road-sssp", "tasks-spawn", "cluster-4dev"]

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "ladder"
REPORTS = ROOT / ".bench_build" / "reports"


def build():
    """Configures and builds incrementally; the log goes to stderr."""
    configure = ["cmake", "-S", str(ROOT / "bench" / "ladder"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perf_ladder"


def run(exe, workload, args):
    REPORTS.mkdir(parents=True, exist_ok=True)
    stem = REPORTS / f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json", f"{stem}.json"]
    if args.trace:
        cmd += ["--spans", f"{stem}.spans.json"]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/8-size inputs, one pass")
    args = parser.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = max(status, run(exe, workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
