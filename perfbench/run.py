#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload heal_1k --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark) into .bench_build/perfbench; later calls rebuild
incrementally. With --trace 0 the last stdout line holds the end-to-end
metrics. With --trace 1 the workload runs twice, untraced and then traced,
each for half of --seconds: the last line holds the per-layer metrics plus
the tracing overhead, the two
digests must agree, and the spans are written to
.bench_build/perfbench/traces/. Diagnostics (digest, sample counts, tail
percentiles, host CPUs, build type) go to the lines before the result.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
# Both runs of one call must end within this many seconds after the build.
RUN_BUDGET_S = 175
# Workloads the binary runs that BENCHMARK.json does not list (README.md
# says why).
EXTRA_WORKLOADS = ["bulk_100k"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    source_dir = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", source_dir, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited with {done.returncode}")


def run_binary(args, seconds, trace, timeout_s):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, timeout_s))
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"workload run failed: {error}")
    if done.returncode != 0:
        fail(f"workload run exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload run printed nothing")
    return json.loads(lines[-1])


def metric_values(metrics, expected, where):
    names = [entry["name"] for entry in expected]
    if sorted(metrics) != sorted(names):
        fail(f"{where} metrics {sorted(metrics)} do not match {sorted(names)}")
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            fail(f"{where} metric {name} is not finite")
    return {name: metrics[name] for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    if args.workload not in [w["name"] for w in spec["workloads"]] + \
            EXTRA_WORKLOADS:
        fail(f"unknown workload {args.workload}")
    build()

    # --trace 1 runs the workload twice, and the traced run adds commit
    # replays and the probe, so each of its processes gets half the seconds.
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_binary(args, seconds, trace=False,
                          timeout_s=deadline - time.monotonic())
    end_to_end = metric_values(untraced["end_to_end"], spec["end_to_end"],
                               "end-to-end")
    runs = [untraced]
    if args.trace:
        traced = run_binary(args, seconds, trace=True,
                            timeout_s=deadline - time.monotonic())
        runs.append(traced)
        # Tracing overhead: the traced run's end-to-end numbers against the
        # untraced run's, as a percentage.
        layer = dict(traced["per_layer"])
        for name in ("setup_s", "round_ms", "mutation_ms"):
            base = untraced["end_to_end"][name]["value"]
            with_spans = traced["end_to_end"][name]["value"]
            layer[f"trace.{name}_overhead_pct"] = {
                "value": 100.0 * (with_spans - base) / base, "unit": "%"}
        metrics = metric_values(layer, spec["per_layer"], "per-layer")
    else:
        metrics = end_to_end

    digests = sorted({run["digest"] for run in runs})
    correct = all(run["correct"] for run in runs) and len(digests) == 1
    for run in runs:
        print(json.dumps({"digest": run["digest"], "info": run["info"],
                          "samples": run["samples"],
                          "end_to_end": run["end_to_end"],
                          "errors": run["errors"]}))
    if len(digests) != 1:
        print(json.dumps({"error": "traced digest differs from untraced",
                          "digests": digests}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
