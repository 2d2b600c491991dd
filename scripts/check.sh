#!/usr/bin/env bash
# Full verification: configure a fresh build tree with warnings-as-errors,
# build everything (library, tests, benches, examples), run the test suite,
# then rebuild with ASan+UBSan and run the tier-1 suite plus a chaos smoke
# (the randomized fault-schedule test on its three fixed seeds) under the
# sanitizers. Usage: scripts/check.sh [build-dir]   (default: build-check)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"
SAN_DIR="${BUILD_DIR}-asan"

rm -rf "${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# Hot-transaction-path smoke: GTM coalescing must stay under 0.5 GTM RPCs
# per transaction with 16 concurrent clients. (The pipelined log shipper's
# >= 4x catch-up over stop-and-wait is a tier-1 test,
# PipelineTest.WindowedCatchupBeatsStopAndWaitByFourX.)
echo "== txn path bench smoke =="
scripts/bench_txnpath.sh "${BUILD_DIR}"

# Repository benchmark smoke: one seed of the read-only geobench workload
# run twice untraced and once traced must give bit-identical simulated
# metrics (geobench/spread.py determinism mode).
echo "== geobench determinism (tpcc_geo_ro) =="
GEOBENCH_OUT="$(python3 geobench/spread.py --workloads tpcc_geo_ro \
  --determinism 1 --seconds 2)"
echo "${GEOBENCH_OUT}"
python3 -c '
import json, sys
result = json.load(sys.stdin)["tpcc_geo_ro"]
sys.exit(0 if result["repeat_identical"] is True and
         result["traced_identical"] is True else 1)
' <<<"${GEOBENCH_OUT}" || {
  echo "FAIL: geobench tpcc_geo_ro simulated metrics are not deterministic" >&2
  exit 1
}
echo "OK: geobench tpcc_geo_ro repeat and traced runs are bit-identical"

# Simulated-metric pin: seed 1 of every geobench workload (2 s windows) must
# reproduce scripts/geobench_sim_pin.json exactly: attempted, failed and the
# simulated end-to-end metrics. The same runs' peak RSS must stay under
# scripts/geobench_rss_ceiling.json. A change that moves simulated behaviour
# (or the memory ceiling) regenerates them with --write and reports it in
# CHANGES.md.
echo "== geobench simulated-metric pin + RSS ceiling (all workloads, seed 1) =="
python3 scripts/geobench_sim_pin.py

# Durability soak: 10 simulated minutes of TPC-C with checkpoints every 5 s
# and three primary crashes. Retained log bytes and MVCC garbage must
# flat-line, vacuum must reclaim, and median crash-to-promotion recovery
# must stay under 10x the 50 ms RTT. Writes its JSON into the build tree, so
# a check run leaves the committed BENCH_durability.json untouched.
echo "== durability soak =="
OUT="${BUILD_DIR}/BENCH_durability.json" scripts/bench_durability.sh "${BUILD_DIR}"

echo "== ASan+UBSan pass =="
rm -rf "${SAN_DIR}"
cmake -B "${SAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-Werror -fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "${SAN_DIR}" -j "$(nproc)"
export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1"
ctest --test-dir "${SAN_DIR}" --output-on-failure -j "$(nproc)"

# Chaos smoke: the seeded random fault schedule (TPC-C under crashes,
# partitions, and clock outages) and the primary-failover acceptance run
# (three seeds each), plus the coalesced-GTM contract every GTM and DUAL
# timestamp goes through (shared grants, per-waiter DUAL commit waits,
# abandoned grants never reissued), under sanitizers.
echo "== chaos smoke (random faults + primary failover + GTM coalescing) =="
ctest --test-dir "${SAN_DIR}" --output-on-failure \
  -R 'RandomFaultTest|ClockFallbackTest|PartitionHealTest|PrimaryFailoverTest|GtmCoalesceTest'

# 2PC outcome recovery: primaries killed at targeted protocol points
# (after prepare-append, on commit arrival, mid phase-2) across three seeds
# must leave zero cross-shard atomicity violations and zero lost acked
# commits; the deterministic resolution-path and message-duplication tests
# ride along, all under sanitizers.
echo "== staged-crash atomicity (2PC outcome recovery) =="
ctest --test-dir "${SAN_DIR}" --output-on-failure \
  -R 'StagedCrashAtomicityTest|InDoubtResolutionTest|MessageChaosTest'

# Batched scan path: pushdown/merge/chunking/failover correctness, the
# three-seed equivalence oracle against direct table scans, the ROR
# snapshot install races (a parked batched point read and a parked scan
# chunk must not dangle across a store rebuild), the zero-copy read path's
# view lifetimes (a primary read or scan whose CPU wait overlaps a rewrite
# of its rows, and short reply envelopes moved through StatusOr and the
# CN's chunk list), the read replies' wire bytes, the golden wire bytes
# and truncation verdicts of every other message, the redo record and the
# PREPARE participant list (MessageWireTest), and the golden bytes and
# boundaries of shipped redo batches, whose payloads are slices of the byte
# log and whose decoded records view the received bytes
# (RedoBatchWireTest), the point join's golden reply bytes, CPU cost and
# first blocker over duplicate, absent and multi-leaf keys
# (ScanJoinGoldenTest), and the B-tree finger the join reads its keys
# through, against FindEntry on random trees with emptied leaves
# (BTreeFingerTest), under sanitizers.
echo "== scan path smoke (batched scans + equivalence + ROR races + views + wire bytes + join) =="
ctest --test-dir "${SAN_DIR}" --output-on-failure \
  -R 'ScanBatchTest|ScanEquivalenceTest|RorSnapshotRaceTest|ReadPathLifetimeTest|ReadWireTest|MessageWireTest|RedoBatchWireTest|ScanJoinGoldenTest|BTreeFingerTest'
