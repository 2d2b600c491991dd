#!/usr/bin/env bash
# Hot-transaction-path benchmark (DESIGN.md §10, §15): the epoch/group-commit
# acceptance pair (EPOCH vs GTM on TPC-C NewOrder at 50 ms RTT, remote home
# warehouses), plus GTM timestamp coalescing under 16 closed-loop clients.
# Emits BENCH_txnpath.json (override with OUT=...) and fails unless
#   - coalescing needs < 0.5 GTM RPCs per transaction,
#   - EPOCH cuts the NewOrder p50 by >= 1.5x vs GTM, and
#   - EPOCH needs <= 0.1 commit-timestamp RPCs per committed transaction.
# Usage: scripts/bench_txnpath.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${OUT:-BENCH_txnpath.json}"

if [[ ! -d "${BUILD_DIR}" ]]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target ablation_txnpath

# Client count deep enough that per-txn commit coordination visibly queues
# (the regime the epoch protocol targets); 20 ms seals trade ~10 ms of
# added wait for ~10 members per epoch grant.
GDB_TXNPATH_GATE_ONLY=1 GDB_TXNPATH_JSON="${OUT}" \
GDB_BENCH_DURATION_MS="${GDB_BENCH_DURATION_MS:-1500}" \
GDB_BENCH_CLIENTS="${GDB_BENCH_CLIENTS:-900}" \
GDB_EPOCH_INTERVAL_MS="${GDB_EPOCH_INTERVAL_MS:-20}" \
  "${BUILD_DIR}/bench/ablation_txnpath"

echo "== ${OUT} =="
cat "${OUT}"

json_field() {
  sed -n "s/.*\"$1\": \([-0-9.]*\).*/\1/p" "${OUT}"
}

RPCS="$(json_field gtm_rpcs_per_txn_coalesced)"
awk -v r="${RPCS}" 'BEGIN { exit !(r < 0.5) }' || {
  echo "FAIL: ${RPCS} GTM RPCs per txn >= 0.5 with coalescing" >&2
  exit 1
}
echo "OK: ${RPCS} GTM RPCs per txn with coalescing (< 0.5)"

EPOCH_SPEEDUP="$(json_field epoch_speedup)"
EPOCH_RPCS="$(json_field epoch_commit_ts_rpcs_per_txn)"

awk -v s="${EPOCH_SPEEDUP}" 'BEGIN { exit !(s >= 1.5) }' || {
  echo "FAIL: EPOCH p50 speedup ${EPOCH_SPEEDUP}x < 1.5x vs GTM" >&2
  exit 1
}
echo "OK: EPOCH p50 speedup ${EPOCH_SPEEDUP}x vs GTM (>= 1.5x)"

awk -v r="${EPOCH_RPCS}" 'BEGIN { exit !(r <= 0.1) }' || {
  echo "FAIL: ${EPOCH_RPCS} epoch commit-ts RPCs per txn > 0.1" >&2
  exit 1
}
echo "OK: ${EPOCH_RPCS} epoch commit-ts RPCs per committed txn (<= 0.1)"
