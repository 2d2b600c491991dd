#!/usr/bin/env python3
"""Stability and determinism check for the geobench workloads.

    python3 geobench/spread.py --workloads tpcc_geo_rw --seeds 1-10 --seconds 10
    python3 geobench/spread.py --workloads tpcc_geo_ro --determinism 7

Spread mode runs each workload once per seed (untraced, like the benchmark's
end-to-end runs) and prints, per end-to-end metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4).

Determinism mode runs one seed three times (untraced, untraced, traced) and
checks that every simulated metric is bit-for-bit identical across the three;
it prints the traced run's wall-clock overhead on wall_us_per_txn.

Runs are sequential: the wall-clock metrics assume an otherwise idle machine.
"""

import argparse
import json
import statistics
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def spread_mode(binary, workloads, seeds, seconds):
    summary = {}
    for workload in workloads:
        per_metric = {}
        for seed in seeds:
            report = run.run_binary(binary, workload, seed, seconds, False)
            if not report["correct"]:
                print(f"{workload} seed {seed}: checks failed: "
                      f"{report['errors']}", file=sys.stderr)
                sys.exit(1)
            for name, (value, _) in report["e2e"].items():
                per_metric.setdefault(name, []).append(value)
            per_metric.setdefault("failed_frac", []).append(
                report["sim"]["failed_frac"][0])
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v[0], 4) for k, v in report["e2e"].items()}),
                file=sys.stderr, flush=True)
        summary[workload] = {}
        for name, values in per_metric.items():
            median, iqr = spread(values)
            summary[workload][name] = {"median": median,
                                       "iqr_over_median": iqr,
                                       "values": values}
    return summary


def determinism_mode(binary, workloads, seed, seconds):
    summary = {}
    for workload in workloads:
        runs = [run.run_binary(binary, workload, seed, seconds, trace)
                for trace in (False, False, True)]
        sims = [r["sim"] for r in runs]
        summary[workload] = {
            "repeat_identical": sims[0] == sims[1],
            "traced_identical": sims[0] == sims[2],
            "untraced_wall_us_per_txn": [r["e2e"]["wall_us_per_txn"][0]
                                         for r in runs[:2]],
            "traced_wall_us_per_txn":
                runs[2]["layer"]["trace.wall_us_per_txn"][0],
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--determinism", type=int, metavar="SEED")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    binary = run.build()
    if args.determinism is not None:
        summary = determinism_mode(binary, workloads, args.determinism,
                                   args.seconds)
    else:
        summary = spread_mode(binary, workloads, parse_seeds(args.seeds),
                              args.seconds)
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
