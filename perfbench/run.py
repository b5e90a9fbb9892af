#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, print the record.

    python3 perfbench/run.py --workload serve_resnet18 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds the
library plus the driver into `.bench_build` (or $CARGO_TARGET_DIR).  With
`--trace 0` the last stdout line is the end-to-end record; with `--trace 1`
the same seed runs untraced and then traced, and the last line holds the
per-layer metrics plus the tracing overhead (traced minus untraced) of
every end-to-end metric.  The exit code is non-zero when the build fails,
the driver fails, an output differs from its serial reference, a quality
gate refuses the snapshot, or a deterministic figure differs between
repeats of the same seed.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_resnet18", "lpq_resnet18")
RUN_BUDGET_S = 170  # the whole run, after the build, must end within 180 s
# Seconds after a driver run starts past which it repeats no unit of work
# for host steal: one run gets most of the budget, a traced pair shares it.
REPEAT_DEADLINE_S = {False: 100, True: 50}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(bdir):
    """Configure once, then (re)build only the driver and the library."""
    log = bdir / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "lp_perfbench",
                  "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "lp_perfbench"


def run_driver(binary, args, trace, trace_dir, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--trace-dir", str(trace_dir),
           "--repeat-deadline", str(REPEAT_DEADLINE_S[bool(args.trace)])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_BUDGET_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stderr.write(proc.stderr)
    if result is None:
        fail(f"driver exited {proc.returncode} without a result")
    if proc.returncode != 0 or not result["correct"]:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": result["metrics"]}))
        fail(f"driver reported a failed check (exit {proc.returncode})")
    return result


def same_facts(untraced, traced):
    """The traced run of a seed must reproduce the untraced run's
    deterministic figures (best fitness, cache counters, top-1) exactly.
    Each driver run also checks them across its own repeated set-ups and
    searches."""
    diff = {k: (v, traced.get(k)) for k, v in untraced.items() if traced.get(k) != v}
    if diff:
        print(f"CHECK FAILED: deterministic figures differ between the untraced "
              f"and the traced run: {diff}")
    return not diff


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail("the library sources are not here; run from a full checkout")
    spec = json.loads(spec_path.read_text())

    bdir = build_dir()
    binary = build(bdir)
    trace_dir = bdir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    base = run_driver(binary, args, False, trace_dir, deadline)
    correct = True
    if args.trace:
        traced = run_driver(binary, args, True, trace_dir, deadline)
        correct = same_facts(base["facts"], traced["facts"])
        metrics = dict(traced["layers"])
        print("tracing overhead (traced - untraced):")
        for name, m in base["metrics"].items():
            d = traced["metrics"][name]["value"] - m["value"]
            rel = d / m["value"] * 100 if m["value"] else 0.0
            print(f"  {name:<14} {m['value']:14.4f} -> "
                  f"{traced['metrics'][name]['value']:14.4f} {m['unit']:<6} "
                  f"({d:+.4f}, {rel:+.2f}%)")
            metrics[f"trace.overhead.{name}"] = {"value": d, "unit": m["unit"]}
        result, wanted = traced, spec["per_layer"]
    else:
        metrics, result, wanted = base["metrics"], base, spec["end_to_end"]
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:14.4f} {m['unit']}")

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(names))}")
    record = {"correct": correct, "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {n: metrics[n] for n in names}}
    print(json.dumps(record))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
