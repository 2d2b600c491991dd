#ifndef GLOBALDB_SRC_CLUSTER_SCAN_BATCH_EXEC_H_
#define GLOBALDB_SRC_CLUSTER_SCAN_BATCH_EXEC_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/cluster/join_keys.h"
#include "src/cluster/messages.h"
#include "src/rpc/wire.h"
#include "src/storage/shard_store.h"
#include "src/storage/value.h"

namespace globaldb {

/// One synchronous pass over a ScanBatchRequest against a shard store: the
/// chunk-building core shared by the primary (kDnScanBatch) and replica
/// (kRorScanBatch) handlers (DESIGN.md §14). The pass itself never
/// suspends — CPU cost is accumulated into `cpu_cost` for the caller to
/// charge, and a replica pass that hits a pending-commit tuple lock aborts
/// with `blocker` set so the caller can WaitResolved and re-execute from
/// the request (the server keeps no cursor state between passes: a snapshot
/// install while parked frees every MvccTable*, so everything is re-fetched
/// on re-entry).
///
/// Rows are never copied out of storage: the pass gathers views into the
/// tables and encodes the reply envelope from them before it returns, so
/// no view survives into the caller's CPU wait (DESIGN.md §5).
struct ScanBatchExecResult {
  rpc::Encoded<ScanBatchReply> reply;
  bool truncated = false;
  SimDuration cpu_cost = 0;
  /// Replica only: the pass stopped on an unresolved provisional txn that
  /// blocks this snapshot. The reply is empty; wait and re-execute.
  TxnId blocker = kInvalidTxnId;
  int64_t ranges_served = 0;
  int64_t rows_returned = 0;
  int64_t rows_filtered = 0;
  int64_t limit_hits = 0;
  int64_t join_lookups = 0;
};

/// `must_wait` is null on primaries (provisional versions of other txns are
/// simply invisible to snapshot readers); on replicas it is the
/// applier-backed pending-commit predicate.
inline ScanBatchExecResult ExecuteScanBatch(
    const ShardStore& store, const ScanBatchRequest& request, TxnId reader,
    size_t default_chunk_bytes, SimDuration read_cost,
    SimDuration scan_row_cost, const std::function<bool(TxnId)>* must_wait) {
  ScanBatchExecResult out;
  ScanBatchReply reply;
  reply.results.resize(request.ranges.size());
  // Joined keys of point joins are views into these; reserved up front so
  // no buffer moves before the reply is encoded.
  std::vector<JoinKeys> join_keys;
  join_keys.reserve(request.ranges.size());
  const size_t budget =
      request.max_bytes != 0 ? request.max_bytes : default_chunk_bytes;
  size_t bytes = 0;
  auto blocked = [&](TxnId txn) {
    if (must_wait == nullptr || txn == kInvalidTxnId || !(*must_wait)(txn)) {
      return false;
    }
    out.blocker = txn;
    return true;
  };
  for (size_t i = request.resume_range; i < request.ranges.size(); ++i) {
    if (bytes >= budget) {
      // The previous ranges filled the chunk; this one was never started
      // (empty resume_key tells the CN to keep its original bounds).
      reply.truncated = true;
      reply.resume_range = static_cast<uint32_t>(i);
      break;
    }
    const ScanBatchRequest::Range& range = request.ranges[i];
    ScanBatchReply::RangeResult& res = reply.results[i];
    ++out.ranges_served;
    out.cpu_cost += read_cost;
    const MvccTable* table = store.GetTable(range.table);
    if (table == nullptr) {
      continue;  // catalog-known table, storage-empty shard: no rows
    }
    MvccTable::PagedScanOptions opts;
    opts.snapshot = request.snapshot;
    opts.reader = reader;
    opts.limit = range.limit;
    opts.reverse = range.reverse;
    opts.filter_col = range.filter_col;
    opts.filter_eq = range.filter_eq;
    if (!range.reverse) {
      opts.max_bytes = budget > bytes ? budget - bytes : 1;
    }
    std::vector<TxnId> pending;
    MvccTable::PagedScanResult paged = table->ScanPaged(
        range.start, range.end, opts,
        must_wait != nullptr ? &pending : nullptr);
    out.cpu_cost +=
        scan_row_cost * static_cast<SimDuration>(paged.rows_examined);
    for (TxnId txn : pending) {
      if (blocked(txn)) return out;
    }
    out.rows_filtered += static_cast<int64_t>(paged.rows_filtered);
    if (paged.limit_hit) ++out.limit_hits;
    res.limit_hit = paged.limit_hit;
    for (const KeyValueView& row : paged.rows) {
      bytes += row.key.size() + row.value.size() + 8;
    }
    if (range.join_table != kInvalidTableId) {
      // Co-located lookup join: resolve dependent rows under the same
      // snapshot, deduped by join key within this chunk. A base row and its
      // joins are atomic with respect to the byte cap (joined bytes count,
      // but never split a row from its lookups).
      const MvccTable* join_table = store.GetTable(range.join_table);
      JoinKeys& keys = join_keys.emplace_back(
          range.join_key_prefix, range.join_key_cols, paged.rows.size());
      for (const KeyValueView& entry : paged.rows) keys.Add(entry.value);
      // Point joins read the distinct keys in key order through one finger;
      // every join emits them, and meets blockers, in the order the keys
      // first occur among the rows.
      const std::vector<uint32_t> distinct = keys.DistinctAscending();
      std::vector<ReadResult> reads;
      if (join_table != nullptr && !range.join_prefix) {
        reads.reserve(distinct.size());
        MvccTable::Finger finger;
        for (uint32_t k : distinct) {
          reads.push_back(join_table->ReadFrom(&finger, keys.key(k),
                                               request.snapshot, reader));
        }
      }
      // Per key: its position in `distinct` if it is a first occurrence.
      constexpr uint32_t kRepeat = UINT32_MAX;
      std::vector<uint32_t> first(keys.size(), kRepeat);
      for (uint32_t d = 0; d < distinct.size(); ++d) first[distinct[d]] = d;
      for (uint32_t k = 0; k < keys.size(); ++k) {
        if (first[k] == kRepeat) continue;
        const Slice key = keys.key(k);
        ++out.join_lookups;
        out.cpu_cost += read_cost;
        if (join_table == nullptr) continue;
        if (range.join_prefix) {
          std::vector<TxnId> join_pending;
          std::vector<KeyValueView> joined = join_table->Scan(
              key, PrefixSuccessor(key.ToString()), request.snapshot, reader,
              range.join_limit,
              must_wait != nullptr ? &join_pending : nullptr);
          out.cpu_cost +=
              scan_row_cost * static_cast<SimDuration>(joined.size());
          for (TxnId txn : join_pending) {
            if (blocked(txn)) return out;
          }
          for (const KeyValueView& j : joined) {
            bytes += j.key.size() + j.value.size() + 8;
            res.joined.push_back(j);
          }
        } else {
          const ReadResult& rr = reads[first[k]];
          if (blocked(rr.provisional_txn)) return out;
          if (rr.found) {
            bytes += key.size() + rr.value.size() + 8;
            res.joined.push_back({key, rr.value});
          }
        }
      }
    }
    out.rows_returned += static_cast<int64_t>(paged.rows.size());
    res.rows = std::move(paged.rows);
    if (paged.truncated) {
      reply.truncated = true;
      reply.resume_range = static_cast<uint32_t>(i);
      reply.resume_key = paged.resume_key;
      break;
    }
  }
  out.truncated = reply.truncated;
  out.reply = rpc::EncodeOk(
      reply, bytes + reply.resume_key.size() + 16 + 12 * reply.results.size());
  return out;
}

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_SCAN_BATCH_EXEC_H_
