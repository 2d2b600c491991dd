#include "src/storage/mvcc_table.h"

#include <algorithm>
#include <memory>

#include "src/common/codec.h"
#include "src/common/logging.h"
#include "src/storage/value.h"

namespace globaldb {

void VersionChain::push_back(TupleVersion v) {
  switch (tag()) {
    case kEmpty:
      // The version's value tag lands in byte 63: the chain is now inline.
      std::construct_at(&one_, std::move(v));
      return;
    case kSpilled:
      many_.push_back(std::move(v));
      return;
    default: {
      std::vector<TupleVersion> many;
      many.reserve(2);
      many.push_back(std::move(one_));
      many.push_back(std::move(v));
      std::destroy_at(&one_);
      std::construct_at(&many_, std::move(many));
      set_tag(kSpilled);
      return;
    }
  }
}

void VersionChain::Clear() {
  switch (tag()) {
    case kEmpty:
      return;
    case kSpilled:
      std::destroy_at(&many_);
      break;
    default:
      std::destroy_at(&one_);
  }
  set_tag(kEmpty);
}

void VersionChain::TakeFrom(VersionChain* other) {
  switch (other->tag()) {
    case kEmpty:
      set_tag(kEmpty);
      return;
    case kSpilled:
      std::construct_at(&many_, std::move(other->many_));
      set_tag(kSpilled);
      break;
    default:
      std::construct_at(&one_, std::move(other->one_));
  }
  other->Clear();
}

void VersionChain::Unspill() {
  std::vector<TupleVersion> many = std::move(many_);
  Clear();
  if (!many.empty()) std::construct_at(&one_, std::move(many.front()));
}

namespace {

/// True if the chain has a live version: committed (or provisional) with
/// end_ts == kTimestampMax and no provisional end marker.
const TupleVersion* NewestLive(const VersionChain& versions) {
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    if (it->end_ts == kTimestampMax && it->ended_by == kInvalidTxnId) {
      return &*it;
    }
    // A provisionally-ended version is still "live" for conflict purposes;
    // report it too (caller inspects ended_by).
    if (it->end_ts == kTimestampMax) return &*it;
  }
  return nullptr;
}

/// A chain's image in a table image: length-prefixed key, version count,
/// then each version's stamps and length-prefixed value.
void EncodeChain(std::string_view key, const VersionChain& chain,
                 std::string* dst) {
  PutLengthPrefixed(dst, key);
  PutVarint64(dst, chain.size());
  for (const TupleVersion& v : chain) {
    PutVarint64(dst, v.begin_ts);
    PutVarint64(dst, v.end_ts);
    PutVarint64(dst, v.created_by);
    PutVarint64(dst, v.ended_by);
    PutLengthPrefixed(dst, v.value.view());
  }
}

/// Exact number of bytes EncodeChain appends.
size_t ChainEncodedSize(std::string_view key, const VersionChain& chain) {
  size_t bytes =
      VarintLength(key.size()) + key.size() + VarintLength(chain.size());
  for (const TupleVersion& v : chain) {
    bytes += VarintLength(v.begin_ts) + VarintLength(v.end_ts) +
             VarintLength(v.created_by) + VarintLength(v.ended_by) +
             VarintLength(v.value.size()) + v.value.size();
  }
  return bytes;
}

}  // namespace

MvccTable::Entry* MvccTable::MutableEntry(std::string_view key, bool insert) {
  changed_ = true;
  if (!insert) {
    Entry* entry = chains_.FindEntry(key);
    if (entry != nullptr) {
      CaptureBeforeWrite(entry->key.view(), entry->value, /*inserted=*/false);
    }
    return entry;
  }
  const size_t keys = chains_.size();
  Entry& entry = chains_.FindOrInsert(key);
  CaptureBeforeWrite(entry.key.view(), entry.value, chains_.size() != keys);
  return &entry;
}

void MvccTable::CaptureBeforeWrite(std::string_view key,
                                   const VersionChain& chain, bool inserted) {
  if (freeze_ == nullptr) return;
  auto [it, first_write] = freeze_->saved.try_emplace(key.data());
  if (!first_write || inserted) return;
  std::string& pre_image = it->second;
  pre_image.reserve(ChainEncodedSize(key, chain));
  EncodeChain(key, chain, &pre_image);
  freeze_->bytes += pre_image.size();
}

Status MvccTable::Insert(const RowKey& key, Slice value, TxnId txn) {
  auto& [interned, chain] = *MutableEntry(key, /*insert=*/true);
  const TupleVersion* live = NewestLive(chain);
  if (live != nullptr) {
    if (live->begin_ts == 0 && live->created_by == txn &&
        live->ended_by == kInvalidTxnId) {
      return Status::AlreadyExists("duplicate key (own write)");
    }
    if (live->ended_by == txn) {
      // Re-insert after own delete: new provisional version.
    } else if (live->ended_by != kInvalidTxnId) {
      return Status::Aborted("write conflict with txn " +
                             std::to_string(live->ended_by));
    } else {
      return Status::AlreadyExists("duplicate key");
    }
  }
  TupleVersion v;
  v.created_by = txn;
  v.value = value.ToView();
  chain.push_back(std::move(v));
  Touch(txn, interned.view());
  return Status::OK();
}

Status MvccTable::Update(const RowKey& key, Slice value, TxnId txn,
                         Timestamp snapshot) {
  Entry* entry = MutableEntry(key, /*insert=*/false);
  if (entry == nullptr || entry->value.empty()) {
    return Status::NotFound("update: no such key");
  }
  VersionChain& chain = entry->value;
  TupleVersion* live = nullptr;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->end_ts == kTimestampMax) {
      live = &*it;
      break;
    }
  }
  if (live == nullptr) return Status::NotFound("update: key deleted");

  if (live->begin_ts == 0) {
    // Provisional version.
    if (live->created_by == txn) {
      live->value = value.ToView();  // overwrite own write
      return Status::OK();
    }
    return Status::Aborted("write conflict with txn " +
                           std::to_string(live->created_by));
  }
  if (live->ended_by != kInvalidTxnId && live->ended_by != txn) {
    return Status::Aborted("write conflict with txn " +
                           std::to_string(live->ended_by));
  }
  if (live->begin_ts > snapshot) {
    // First committer won; under SI the later writer must abort.
    return Status::Aborted("write conflict: version newer than snapshot");
  }
  live->ended_by = txn;
  TupleVersion v;
  v.created_by = txn;
  v.value = value.ToView();
  chain.push_back(std::move(v));
  Touch(txn, entry->key.view());
  return Status::OK();
}

Status MvccTable::Delete(const RowKey& key, TxnId txn, Timestamp snapshot) {
  Entry* entry = MutableEntry(key, /*insert=*/false);
  if (entry == nullptr || entry->value.empty()) {
    return Status::NotFound("delete: no such key");
  }
  VersionChain& chain = entry->value;
  TupleVersion* live = nullptr;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->end_ts == kTimestampMax) {
      live = &*it;
      break;
    }
  }
  if (live == nullptr) return Status::NotFound("delete: key already deleted");

  if (live->begin_ts == 0) {
    if (live->created_by == txn) {
      // Delete own provisional insert: mark so commit hides it entirely.
      live->ended_by = txn;
      return Status::OK();
    }
    return Status::Aborted("write conflict with txn " +
                           std::to_string(live->created_by));
  }
  if (live->ended_by != kInvalidTxnId && live->ended_by != txn) {
    return Status::Aborted("write conflict with txn " +
                           std::to_string(live->ended_by));
  }
  if (live->begin_ts > snapshot) {
    return Status::Aborted("write conflict: version newer than snapshot");
  }
  live->ended_by = txn;
  Touch(txn, entry->key.view());
  return Status::OK();
}

Status MvccTable::LoadCommitted(
    std::vector<std::pair<RowKey, std::string>> rows, TxnId txn,
    Timestamp ts) {
  GDB_CHECK(chains_.empty()) << "bulk load into a non-empty table";
  changed_ = true;
  // Keys view `rows` until Build interns them.
  std::vector<BTree<VersionChain>::KeyValue> entries;
  entries.reserve(rows.size());
  for (const auto& [key, value] : rows) {
    TupleVersion v;
    v.begin_ts = ts;
    v.created_by = txn;
    v.value = value;
    entries.emplace_back(key, VersionChain{});
    entries.back().second.push_back(std::move(v));
  }
  if (!chains_.Build(std::move(entries))) {
    return Status::InvalidArgument("bulk load: keys not strictly ascending");
  }
  return Status::OK();
}

void MvccTable::ApplyInsert(Slice key, Slice value, TxnId txn) {
  auto& [interned, chain] = *MutableEntry(key.ToView(), /*insert=*/true);
  TupleVersion v;
  v.created_by = txn;
  v.value = value.ToView();
  chain.push_back(std::move(v));
  Touch(txn, interned.view());
}

void MvccTable::ApplyUpdate(Slice key, Slice value, TxnId txn) {
  auto& [interned, chain] = *MutableEntry(key.ToView(), /*insert=*/true);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->end_ts == kTimestampMax) {
      if (it->begin_ts == 0 && it->created_by == txn) {
        // Second update by the same txn overwrites its provisional version.
        it->value = value.ToView();
        return;
      }
      it->ended_by = txn;
      break;
    }
  }
  TupleVersion v;
  v.created_by = txn;
  v.value = value.ToView();
  chain.push_back(std::move(v));
  Touch(txn, interned.view());
}

void MvccTable::ApplyDelete(Slice key, TxnId txn) {
  auto& [interned, chain] = *MutableEntry(key.ToView(), /*insert=*/true);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->end_ts == kTimestampMax) {
      it->ended_by = txn;
      Touch(txn, interned.view());
      return;
    }
  }
}

void MvccTable::CommitTxn(TxnId txn, Timestamp ts) {
  auto it = touched_.find(txn);
  if (it == touched_.end()) return;
  for (std::string_view key : it->second) {
    Entry* entry = MutableEntry(key, /*insert=*/false);
    if (entry == nullptr) continue;
    for (TupleVersion& v : entry->value) {
      if (v.created_by == txn && v.begin_ts == 0) v.begin_ts = ts;
      if (v.ended_by == txn) {
        v.end_ts = ts;
        v.ended_by = kInvalidTxnId;
      }
    }
  }
  touched_.erase(it);
}

void MvccTable::AbortTxn(TxnId txn) {
  auto it = touched_.find(txn);
  if (it == touched_.end()) return;
  for (std::string_view key : it->second) {
    Entry* entry = MutableEntry(key, /*insert=*/false);
    if (entry == nullptr) continue;
    VersionChain& chain = entry->value;
    chain.EraseIf([txn](const TupleVersion& v) {
      return v.created_by == txn && v.begin_ts == 0;
    });
    for (TupleVersion& v : chain) {
      if (v.ended_by == txn) v.ended_by = kInvalidTxnId;
    }
  }
  touched_.erase(it);
}

const VersionValue* MvccTable::VisibleValue(const VersionChain& chain,
                                            Timestamp snapshot, TxnId reader,
                                            TxnId* provisional) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const TupleVersion& v = *it;
    if (v.begin_ts == 0) {
      // Provisional version.
      if (v.created_by == reader) {
        if (v.ended_by == reader) return nullptr;  // deleted own insert
        return &v.value;
      }
      if (*provisional == kInvalidTxnId) *provisional = v.created_by;
      continue;  // invisible to other snapshots
    }
    // Committed version: standard MVCC window check. A provisional end by
    // the reader itself hides the version from the reader.
    if (v.ended_by == reader && reader != kInvalidTxnId) {
      if (v.begin_ts <= snapshot) return nullptr;  // reader deleted it
      continue;
    }
    if (v.ended_by != kInvalidTxnId && *provisional == kInvalidTxnId) {
      // Another txn is deleting/updating; the committed value is still
      // visible, but note the writer for replica pending-waits.
      *provisional = v.ended_by;
    }
    if (v.begin_ts <= snapshot && snapshot < v.end_ts) return &v.value;
  }
  return nullptr;
}

ReadResult MvccTable::Read(Slice key, Timestamp snapshot,
                           TxnId reader) const {
  Finger finger;
  return ReadFrom(&finger, key, snapshot, reader);
}

ReadResult MvccTable::ReadFrom(Finger* finger, Slice key, Timestamp snapshot,
                               TxnId reader) const {
  ReadResult result;
  const Entry* entry = chains_.FindFrom(finger, key.ToView());
  if (entry == nullptr) return result;
  const VersionValue* value =
      VisibleValue(entry->value, snapshot, reader, &result.provisional_txn);
  if (value != nullptr) {
    result.found = true;
    result.value = value->view();
  }
  return result;
}

std::vector<MvccTable::ScanEntry> MvccTable::Scan(
    Slice start, Slice end, Timestamp snapshot, TxnId reader, size_t limit,
    std::vector<TxnId>* provisional) const {
  std::vector<ScanEntry> out;
  for (auto it = chains_.LowerBound(start.ToView()); it.Valid(); it.Next()) {
    if (!end.empty() && !(Slice(it.key()) < end)) break;
    if (out.size() >= limit) break;
    TxnId pending = kInvalidTxnId;
    const VersionValue* value =
        VisibleValue(it.value(), snapshot, reader, &pending);
    if (value != nullptr) out.push_back({Slice(it.key()), value->view()});
    if (pending != kInvalidTxnId && provisional != nullptr) {
      provisional->push_back(pending);
    }
  }
  return out;
}

namespace {

/// Pushed-down int64 equality filter on one column of an encoded row.
bool MatchesFilter(Slice value, int32_t col, int64_t eq, Row* scratch) {
  if (!DecodeRow(value, scratch).ok() ||
      static_cast<size_t>(col) >= scratch->size()) {
    return false;
  }
  const int64_t* v = std::get_if<int64_t>(&(*scratch)[col]);
  return v != nullptr && *v == eq;
}

}  // namespace

MvccTable::PagedScanResult MvccTable::ScanPaged(
    Slice start, Slice end, const PagedScanOptions& opts,
    std::vector<TxnId>* provisional) const {
  PagedScanResult out;
  size_t bytes = 0;
  // Reverse scans keep the last `limit` matches in a ring over out.rows:
  // `ring_head` is the oldest entry once the ring is full.
  size_t ring_head = 0;
  Row scratch;
  for (auto it = chains_.LowerBound(start.ToView()); it.Valid(); it.Next()) {
    if (!end.empty() && !(Slice(it.key()) < end)) break;
    if (!opts.reverse && out.rows.size() >= opts.limit) {
      out.limit_hit = true;
      break;
    }
    ++out.rows_examined;
    TxnId pending = kInvalidTxnId;
    const VersionValue* value =
        VisibleValue(it.value(), opts.snapshot, opts.reader, &pending);
    if (pending != kInvalidTxnId && provisional != nullptr) {
      provisional->push_back(pending);
    }
    if (value == nullptr) continue;
    if (opts.filter_col >= 0 &&
        !MatchesFilter(value->view(), opts.filter_col, opts.filter_eq,
                       &scratch)) {
      ++out.rows_filtered;
      continue;
    }
    const ScanEntry entry{Slice(it.key()), value->view()};
    if (opts.reverse) {
      // Forward-only leaves: slide a window of the last `limit` matches,
      // overwriting the oldest once it is full.
      if (out.rows.size() < opts.limit) {
        out.rows.push_back(entry);
      } else if (opts.limit > 0) {
        out.rows[ring_head] = entry;
        ring_head = ring_head + 1 == opts.limit ? 0 : ring_head + 1;
      }
      continue;
    }
    const size_t row_bytes = entry.key.size() + entry.value.size() + 8;
    if (bytes + row_bytes > opts.max_bytes && !out.rows.empty()) {
      out.truncated = true;
      out.resume_key = entry.key;
      break;
    }
    bytes += row_bytes;
    out.rows.push_back(entry);
    if (out.rows.size() >= opts.limit) {
      out.limit_hit = true;
      break;
    }
  }
  if (opts.reverse) {
    // Oldest-first is rows[ring_head..] then rows[..ring_head); emit newest
    // first.
    std::rotate(out.rows.begin(), out.rows.begin() + ring_head,
                out.rows.end());
    std::reverse(out.rows.begin(), out.rows.end());
    if (out.rows.size() >= opts.limit) out.limit_hit = true;
  }
  return out;
}

size_t MvccTable::VersionCount() const {
  size_t total = 0;
  for (auto it = chains_.Begin(); it.Valid(); it.Next()) {
    total += it.value().size();
  }
  return total;
}

void MvccTable::EncodeTo(std::string* dst) const {
  PutVarint64(dst, chains_.size());
  for (auto it = chains_.Begin(); it.Valid(); it.Next()) {
    EncodeChain(it.key(), it.value(), dst);
  }
}

size_t MvccTable::EncodedSize() const {
  size_t bytes = VarintLength(chains_.size());
  for (auto it = chains_.Begin(); it.Valid(); it.Next()) {
    bytes += ChainEncodedSize(it.key(), it.value());
  }
  return bytes;
}

void MvccTable::Freeze() {
  GDB_CHECK(!chains_.empty()) << "freeze of an empty table";
  freeze_ = std::make_unique<FreezeState>();
  freeze_->keys = chains_.size();
}

// A key born since the freeze has an empty saved image, so both walks below
// skip it by adding or appending nothing.

size_t MvccTable::FrozenEncodedSize() const {
  GDB_CHECK(freeze_ != nullptr) << "table " << id_ << " is not frozen";
  size_t bytes = VarintLength(freeze_->keys);
  for (auto it = chains_.Begin(); it.Valid(); it.Next()) {
    auto saved = freeze_->saved.find(it.key().data());
    bytes += saved == freeze_->saved.end()
                 ? ChainEncodedSize(it.key(), it.value())
                 : saved->second.size();
  }
  return bytes;
}

void MvccTable::EncodeFrozenTo(std::string* dst) const {
  GDB_CHECK(freeze_ != nullptr) << "table " << id_ << " is not frozen";
  PutVarint64(dst, freeze_->keys);
  for (auto it = chains_.Begin(); it.Valid(); it.Next()) {
    auto saved = freeze_->saved.find(it.key().data());
    if (saved == freeze_->saved.end()) {
      EncodeChain(it.key(), it.value(), dst);
    } else {
      dst->append(saved->second);
    }
  }
}

Status MvccTable::DecodeFrom(Slice* input) {
  changed_ = true;
  uint64_t num_chains = 0;
  if (!GetVarint64(input, &num_chains)) {
    return Status::Corruption("table image: chain count");
  }
  // Keys view the image until Build interns them.
  std::vector<BTree<VersionChain>::KeyValue> entries;
  // Every chain takes at least two bytes, which bounds a corrupt count.
  entries.reserve(std::min<uint64_t>(num_chains, input->size() / 2));
  // Provisional writes as (txn, image key), in image order: they become
  // touched_ entries once the build has interned the keys, so a corrupt
  // image leaves no bookkeeping behind.
  std::vector<std::pair<TxnId, std::string_view>> provisional;
  for (uint64_t c = 0; c < num_chains; ++c) {
    Slice key;
    uint64_t num_versions = 0;
    if (!GetLengthPrefixed(input, &key) ||
        !GetVarint64(input, &num_versions)) {
      return Status::Corruption("table image: chain header");
    }
    entries.emplace_back(key.ToView(), VersionChain{});
    VersionChain& chain = entries.back().second;
    for (uint64_t i = 0; i < num_versions; ++i) {
      TupleVersion v;
      Slice value;
      if (!GetVarint64(input, &v.begin_ts) || !GetVarint64(input, &v.end_ts) ||
          !GetVarint64(input, &v.created_by) ||
          !GetVarint64(input, &v.ended_by) ||
          !GetLengthPrefixed(input, &value)) {
        return Status::Corruption("table image: version");
      }
      v.value = value.ToView();
      // Rebuild provisional bookkeeping so replayed COMMIT/ABORT records
      // (and promotion-time in-doubt aborts) resolve installed versions.
      if (v.begin_ts == 0) provisional.emplace_back(v.created_by, key.ToView());
      if (v.ended_by != kInvalidTxnId && v.ended_by != v.created_by) {
        provisional.emplace_back(v.ended_by, key.ToView());
      }
      chain.push_back(std::move(v));
    }
  }
  if (!chains_.Build(std::move(entries))) {
    return Status::Corruption("table image: keys out of order or duplicated");
  }
  for (const auto& [txn, key] : provisional) {
    Touch(txn, chains_.FindEntry(key)->key.view());
  }
  return Status::OK();
}

std::vector<TxnId> MvccTable::ProvisionalTxns() const {
  std::vector<TxnId> out;
  out.reserve(touched_.size());
  for (const auto& [txn, keys] : touched_) out.push_back(txn);
  return out;
}

MvccTable::VacuumStats MvccTable::Vacuum(Timestamp horizon) {
  const auto expired = [horizon](const TupleVersion& v) {
    return v.begin_ts != 0 && v.end_ts != kTimestampMax && v.end_ts <= horizon;
  };
  if (!changed_ && horizon < earliest_end_) {
    VacuumStats again = vacuumed_;
    again.reclaimed = 0;
    return again;
  }
  VacuumStats stats;
  stats.image_bytes = VarintLength(chains_.size());
  Timestamp earliest_end = kTimestampMax;
  for (auto it = chains_.Begin(); it.Valid(); it.Next()) {
    VersionChain& chain = it.value();
    if (freeze_ != nullptr &&
        std::any_of(chain.begin(), chain.end(), expired)) {
      CaptureBeforeWrite(it.key(), chain, /*inserted=*/false);
    }
    stats.reclaimed += chain.EraseIf(expired);
    stats.versions += chain.size();
    stats.image_bytes += ChainEncodedSize(it.key(), chain);
    for (const TupleVersion& v : chain) {
      if (v.begin_ts != 0) earliest_end = std::min(earliest_end, v.end_ts);
    }
  }
  changed_ = false;
  vacuumed_ = stats;
  earliest_end_ = earliest_end;
  return stats;
}

}  // namespace globaldb
