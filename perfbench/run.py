#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <consensus|smr|smr-par|serve>
                             [--seed 42] [--seconds 15] [--trace 0|1]

Run from the repository root. Builds the harness in `perfbench/harness`
(its own Cargo workspace, depending on the repository's crates by path;
`CARGO_TARGET_DIR` is honoured), then runs it in child processes:

* `--trace 0`: one process that runs only this workload, so its peak
  memory is the workload's own. It prints every end-to-end metric.
* `--trace 1`: a traced process (spans around set-up, `Sim.run`, the
  output checks, the partner-engine run and every layer probe) and a
  checkpoint process (`Sim.run_until` -> snapshot encode/decode ->
  `Sim.resume`). It prints every per-layer metric and writes the spans as
  Chrome trace-event JSON to `perfbench/out/<workload>-seed<seed>.trace.json`.

The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
A run that fails an output check counts as failed, and `correct` is false.
Exits non-zero, printing no result, if the harness cannot be built or run.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("consensus", "smr", "smr-par", "serve")
# Wall-clock budget of the harness processes of one run, after the build;
# a whole run must end within 180 s.
RUN_BUDGET_S = 170


def build():
    """Builds the harness and returns the path of its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: building the harness failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "harness", "target")
    return os.path.join(target, "release", "perfbench-harness")


def harness(exe, mode, args, deadline):
    """Runs one harness mode, killed at `deadline` (a `time.monotonic()`
    value), and returns its parsed report."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [exe, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: harness {mode} ran past the {RUN_BUDGET_S} s budget")
    if proc.returncode != 0:
        sys.exit(f"perfbench: harness {mode} exited with {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: harness {mode} printed no report")
    return json.loads(lines[-1])


def expected_metrics(trace):
    """The metrics (name, unit, direction) BENCHMARK.json lists for this
    kind of run."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def write_trace(args, reports):
    """Writes the spans of every harness process as one Chrome trace."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
    events = [e for r in reports for e in r["trace_events"]]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    modes = ("trace", "snapshot") if args.trace else ("measure",)
    reports = [harness(exe, mode, args, deadline) for mode in modes]

    metrics = {}
    for r in reports:
        metrics.update(r["metrics"])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for e in r["errors"]:
            print(f"FAILED CHECK: {e}")

    # The harness reports bare values; units and directions come from
    # BENCHMARK.json.
    expected = expected_metrics(args.trace)
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    if missing and failed == 0:
        sys.exit(f"perfbench: harness did not report {missing}")
    unknown = sorted(set(metrics) - {m["name"] for m in expected})
    if unknown:
        sys.exit(f"perfbench: harness reported metrics BENCHMARK.json does not list: {unknown}")
    for m in expected:
        if m["name"] in metrics:
            print(f"{m['name']:34} {metrics[m['name']]:>18.6g} {m['unit']:9} "
                  f"({m['better']} is better)")
    if args.trace:
        print(f"trace written to {write_trace(args, reports)}")
        overhead = metrics.get("trace.overhead_s")
        if overhead is not None:
            print(f"tracing overhead: {overhead:+.4f} s of traced Sim.run "
                  f"against an untraced Sim.run of the same scenario")

    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in expected if m["name"] in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
