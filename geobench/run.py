#!/usr/bin/env python3
"""Repository benchmark entry point: open-loop three-city TPC-C.

    python3 geobench/run.py --workload tpcc_geo_rw --seed 1 --seconds 10 --trace 0

Builds the geobench binary from source on first use (CMake, into
$CARGO_TARGET_DIR or .bench_build at the repository root), runs one workload
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and the run's
spans, gauges and window counters are written to
<build dir>/traces/<workload>-seed<seed>.json. See geobench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tpcc_geo_rw", "tpcc_geo_ro", "tpcc_geo_failover")
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "geobench"


def log(msg):
    print(f"geobench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "geobench"


def build():
    """Configures (once) and incrementally builds the binary; returns it."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no globaldb sources under {ROOT}/src: cannot build geobench")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "geobench"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs the binary once and returns its parsed report (last stdout line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"geobench printed nothing (exit {proc.returncode})")
        sys.exit(1)
    return json.loads(lines[-1])


def to_metrics(pairs):
    metrics = {}
    for name, (value, unit) in pairs.items():
        if not math.isfinite(value):
            log(f"metric {name} is not finite")
            sys.exit(1)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    result = {"correct": bool(report["correct"]),
              "attempted": int(report["attempted"]),
              "failed": int(report["failed"]),
              "metrics": {}}
    if not result["correct"]:
        for error in report["errors"]:
            log(f"check failed: {error}")
        print(json.dumps(result))
        sys.exit(1)
    result["metrics"] = to_metrics(
        report["layer"] if args.trace == 1 else report["e2e"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
