#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, untraced then traced

Run from the root of a checkout. The first call configures and builds the
library and the benchmark program into .bench_build/ (Release); later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is the JSON result of wcs_perfbench. Exits non-zero without a result
when the library sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "wcs_perfbench")
WORKLOADS = ("sim-U", "proxy-BR", "topo-U-faults", "ingest-BL")


def build():
    """Configure once, then build incrementally; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="preset scale; below 1 only for smoke checks")
    args = parser.parse_args()
    if not build():
        return 2
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        runs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    status = 0
    for workload, trace in runs:
        command = [BINARY, "--workload", workload, "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", str(args.scale)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        sys.stdout.flush()
        status = status or subprocess.run(command, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
