#!/usr/bin/env python3
"""Pins geobench's simulated metrics for seed 1 on every workload.

    python3 scripts/geobench_sim_pin.py           # check against the pin
    python3 scripts/geobench_sim_pin.py --write   # regenerate pin + ceiling

Runs `geobench/run.py --seed 1 --seconds 2` on each workload and compares
`attempted`, `failed` and the simulated end-to-end metrics (goodput,
latency percentiles, ROR staleness) with scripts/geobench_sim_pin.json for
exact equality. The same runs' peak_rss_mb must stay at or under the
per-workload ceiling in scripts/geobench_rss_ceiling.json, which --write
sets to the measured value plus 5%. The other wall-clock metrics (setup_s,
wall_us_per_txn) are not checked. A change that only touches simulator
cost must pass the pin as is; a change that moves simulated behaviour
regenerates it with --write and reports the regeneration in CHANGES.md,
as does a change that regenerates the ceiling.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ROOT / "scripts" / "geobench_sim_pin.json"
CEILING = ROOT / "scripts" / "geobench_rss_ceiling.json"
RSS_HEADROOM = 1.05
WORKLOADS = ("tpcc_geo_rw", "tpcc_geo_ro", "tpcc_geo_failover")
SIMULATED = ("goodput_tps", "lat_p50_ms", "lat_p99_ms", "headline_p50_ms",
             "headline_p99_ms", "ror_staleness_p99_ms")
SEED = 1
SECONDS = 2


def run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "geobench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(SECONDS)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"geobench {workload} failed (exit {proc.returncode})")
    report = json.loads(lines[-1])
    pinned = {"attempted": report["attempted"], "failed": report["failed"]}
    for name in SIMULATED:
        pinned[name] = report["metrics"][name]["value"]
    return pinned, report["metrics"]["peak_rss_mb"]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the pin file instead of checking")
    args = parser.parse_args()

    runs = {workload: run(workload) for workload in WORKLOADS}
    got = {workload: pinned for workload, (pinned, _) in runs.items()}
    rss = {workload: peak for workload, (_, peak) in runs.items()}
    if args.write:
        PIN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        ceiling = {workload: {"peak_rss_mb": round(peak * RSS_HEADROOM, 1)}
                   for workload, peak in rss.items()}
        CEILING.write_text(json.dumps(ceiling, indent=2, sort_keys=True) +
                           "\n")
        print(f"wrote {PIN.relative_to(ROOT)} and "
              f"{CEILING.relative_to(ROOT)}")
        return
    want = json.loads(PIN.read_text())
    limits = json.loads(CEILING.read_text())
    mismatches = []
    for workload in WORKLOADS:
        for name, value in want[workload].items():
            if got[workload].get(name) != value:
                mismatches.append(f"{workload} {name}: pinned {value!r}, "
                                  f"got {got[workload].get(name)!r}")
        limit = limits[workload]["peak_rss_mb"]
        if rss[workload] > limit:
            mismatches.append(f"{workload} peak_rss_mb: {rss[workload]:.1f} "
                              f"over the {limit} MB ceiling")
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    if mismatches:
        sys.exit(1)
    print(f"OK: seed {SEED} simulated metrics match {PIN.relative_to(ROOT)} "
          f"and peak RSS is within {CEILING.relative_to(ROOT)} "
          f"on {', '.join(WORKLOADS)}")


if __name__ == "__main__":
    main()
