#!/usr/bin/env python3
"""Smoke self-check of the repository benchmark at tiny scale.

    python3 perfbench/selfcheck.py

Runs every workload named in BENCHMARK.json once untraced and once traced,
at a small preset scale and a short measuring time, and asserts that each
run's last stdout line is a result with exactly the keys correct, attempted,
failed and metrics; that every output check passed; and that every metric
BENCHMARK.json names (end-to-end untraced, per-layer traced) is emitted
with its unit and a finite value. End-to-end values must also be above 0.
Exits 0 when all runs pass, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--scale", "0.02"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit code {done.returncode}\n{done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{label}: last stdout line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: output checks failed: " +
                        "; ".join(line for line in lines if "CHECK FAILED" in line))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted is {result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{label}: {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got.get('unit')} != {metric['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{label}: {metric['name']} value {got.get('value')}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{label}: {metric['name']} is {got['value']}, not above 0")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
