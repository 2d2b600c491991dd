#include "src/log/log_stream.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/rpc/fields.h"

namespace globaldb {

Lsn LogStream::Append(RedoRecord record) {
  record.lsn = next_lsn();
  const size_t before = bytes_.size();
  rpc::EncodeTo(record, &bytes_);
  total_bytes_ += bytes_.size() - before;
  ends_.push_back(total_bytes_);
  return record.lsn;
}

StatusOr<LogStream::BatchExtent> LogStream::Extent(Lsn from,
                                                   size_t max_records,
                                                   size_t max_bytes) const {
  if (from < begin_lsn_) {
    return Status::OutOfRange("lsn " + std::to_string(from) + " truncated");
  }
  BatchExtent extent;
  if (from >= next_lsn() || max_records == 0) return extent;
  const uint64_t base = total_bytes_ - bytes_.size();  // offset of bytes_[0]
  const auto first = ends_.begin() + (from - begin_lsn_);
  const uint64_t start = first == ends_.begin() ? base : *(first - 1);
  const auto cap = first + std::min<size_t>(max_records, ends_.end() - first);
  // The first record always ships; each later one if the batch still fits.
  const auto end = std::partition_point(
      first + 1, cap, [&](uint64_t e) { return e - start <= max_bytes; });
  extent.records = end - first;
  extent.end_lsn = from + extent.records - 1;
  extent.bytes = *(end - 1) - start;
  extent.payload = Slice(bytes_.data() + (start - base), extent.bytes);
  return extent;
}

void LogStream::TruncateUntil(Lsn until) {
  if (until <= begin_lsn_ || ends_.empty()) return;
  const size_t n = std::min<size_t>(until - begin_lsn_, ends_.size());
  const uint64_t base = total_bytes_ - bytes_.size();
  bytes_.erase(0, ends_[n - 1] - base);
  ends_.erase(ends_.begin(), ends_.begin() + n);
  begin_lsn_ += n;
}

void LogStream::ResetBase(Lsn first) {
  GDB_CHECK(ends_.empty()) << "ResetBase on non-empty stream";
  begin_lsn_ = first;
}

void LogStream::EncodeBatch(Slice payload, CompressionType compression,
                            std::string* dst) {
  Slice body = payload;
  CompressionType framing = CompressionType::kNone;
  if (compression == CompressionType::kLz) {
    // One buffer per thread, reused across batches, so the framed batch is
    // one exact-size copy into *dst. Raw framing unless LZ shrinks it.
    thread_local std::string compressed;
    LzCodec::Compress(payload, &compressed);
    if (compressed.size() < payload.size()) {
      body = compressed;
      framing = CompressionType::kLz;
    }
  }
  dst->reserve(dst->size() + 1 + body.size());
  dst->push_back(static_cast<char>(framing));
  dst->append(body.data(), body.size());
}

Status LogStream::DecodeBatch(Slice batch, std::string* scratch,
                              std::vector<RedoRecord>* out) {
  out->clear();
  if (batch.empty()) return Status::Corruption("batch: empty");
  const auto compression = static_cast<CompressionType>(batch[0]);
  batch.RemovePrefix(1);
  Slice payload = batch;
  if (compression == CompressionType::kLz) {
    GDB_RETURN_IF_ERROR(LzCodec::Decompress(batch, scratch));
    payload = *scratch;
  } else if (compression != CompressionType::kNone) {
    return Status::Corruption("batch: unknown compression");
  }
  while (!payload.empty()) {
    GDB_RETURN_IF_ERROR(RedoRecord::DecodeFrom(&payload, &out->emplace_back()));
  }
  return Status::OK();
}

}  // namespace globaldb
