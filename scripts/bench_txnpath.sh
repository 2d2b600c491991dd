#!/usr/bin/env bash
# Hot-transaction-path benchmark (DESIGN.md §10): GTM timestamp coalescing
# under 16 closed-loop begin+commit clients, 50 ms from the GTM server.
# Emits BENCH_txnpath.json (override with OUT=...) and fails unless
# coalescing needs < 0.5 GTM RPCs per transaction.
# Usage: scripts/bench_txnpath.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${OUT:-BENCH_txnpath.json}"

if [[ ! -d "${BUILD_DIR}" ]]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target ablation_txnpath

GDB_TXNPATH_GATE_ONLY=1 GDB_TXNPATH_JSON="${OUT}" \
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
