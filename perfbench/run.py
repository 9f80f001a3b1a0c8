#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload ccsd|dht|rma|all --seed N \\
        --seconds S --trace 0|1 [--size tiny] [--corrupt]

Run from the root of a checkout. Builds the driver (perfbench/CMakeLists.txt,
which compiles the simulator libraries from ../src) into .bench_build/ --
or $CARGO_TARGET_DIR when set -- then runs the workload in its own process.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes the traced run's spans to <build dir>/spans/<workload>.json.

Prints one line per metric, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. The metric names and units
must be exactly those BENCHMARK.json lists. Exit status: 0 on success, 1 on
a failed correctness check or exact-count drift, 2 on a build or driver
error, 3 when the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170
# Environment overrides the simulator honours; the benchmark pins them off.
PINNED_ENV = ("MPISIM_RMA_CHECK", "MPISIM_PROGRESS")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out):
    """Configure (once) and build the driver; returns its path or None."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.log", "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                logf.flush()
                tail = (out / "build.log").read_text().splitlines()[-30:]
                log("build failed:\n" + "\n".join(tail))
                return None
    return out / "perfbench_driver"


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def run_driver(binary, workload, args, out):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}.json")]
    if args.size == "tiny":
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: driver timed out after {DRIVER_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: driver exited {proc.returncode} without a result")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unreadable driver output: {lines[-1][:200]}")
        return None


def show(res):
    rate = res["failed"] / max(res["attempted"], 1)
    print(f"{res['workload']}: seed {res['seed']} trace {res['trace']} "
          f"correct {str(res['correct']).lower()} attempted {res['attempted']} "
          f"failed {res['failed']} error_rate {rate:.3g}")
    for name, m in sorted(res["metrics"].items()):
        print(f"  {name:40s} {m['value']:>18.6g} {m['unit']}")
    for note in res.get("notes", []):
        print(f"  # {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one readback bit; the run must fail")
    args = ap.parse_args()

    try:
        want, spec = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    results = []
    for w in workloads:
        res = run_driver(binary, w, args, out)
        if res is None:
            return 2
        show(res)
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        if res["correct"] and got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(want) & set(got)
                           if want[k] != got[k])
            log(f"{w}: metrics differ from BENCHMARK.json: missing {missing}, "
                f"unlisted {extra}, unit mismatch {units}")
            return 3
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in results for k, m in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
