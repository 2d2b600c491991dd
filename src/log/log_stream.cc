#include "src/log/log_stream.h"

#include "src/common/logging.h"
#include "src/rpc/fields.h"

namespace globaldb {

Lsn LogStream::Append(RedoRecord record) {
  record.lsn = next_lsn();
  const size_t sz = rpc::EncodedSize(record);
  total_bytes_ += sz;
  retained_bytes_ += sz;
  records_.push_back(std::move(record));
  return records_.back().lsn;
}

StatusOr<std::vector<RedoRecord>> LogStream::Read(Lsn from, size_t max_records,
                                                  size_t max_bytes) const {
  if (from < begin_lsn_) {
    return Status::OutOfRange("lsn " + std::to_string(from) + " truncated");
  }
  std::vector<RedoRecord> out;
  size_t bytes = 0;
  for (Lsn lsn = from; lsn < next_lsn() && out.size() < max_records; ++lsn) {
    const RedoRecord& rec = records_[lsn - begin_lsn_];
    const size_t sz = rpc::EncodedSize(rec);
    if (!out.empty() && bytes + sz > max_bytes) break;
    out.push_back(rec);
    bytes += sz;
  }
  return out;
}

StatusOr<LogStream::BatchExtent> LogStream::Extent(Lsn from,
                                                   size_t max_records,
                                                   size_t max_bytes) const {
  if (from < begin_lsn_) {
    return Status::OutOfRange("lsn " + std::to_string(from) + " truncated");
  }
  BatchExtent extent;
  for (Lsn lsn = from; lsn < next_lsn() && extent.records < max_records;
       ++lsn) {
    const size_t sz = rpc::EncodedSize(records_[lsn - begin_lsn_]);
    if (extent.records > 0 && extent.bytes + sz > max_bytes) break;
    extent.end_lsn = lsn;
    ++extent.records;
    extent.bytes += sz;
  }
  return extent;
}

StatusOr<RedoRecord> LogStream::At(Lsn lsn) const {
  if (lsn < begin_lsn_ || lsn >= next_lsn()) {
    return Status::NotFound("lsn " + std::to_string(lsn));
  }
  return records_[lsn - begin_lsn_];
}

void LogStream::TruncateUntil(Lsn until) {
  while (begin_lsn_ < until && !records_.empty()) {
    retained_bytes_ -= rpc::EncodedSize(records_.front());
    records_.pop_front();
    ++begin_lsn_;
  }
}

void LogStream::ResetBase(Lsn first) {
  GDB_CHECK(records_.empty()) << "ResetBase on non-empty stream";
  begin_lsn_ = first;
}

std::string LogStream::EncodeBatch(const std::vector<RedoRecord>& records,
                                   CompressionType compression) {
  std::string payload;
  for (const RedoRecord& rec : records) {
    rpc::EncodeTo(rec, &payload);
  }
  std::string batch;
  if (compression == CompressionType::kLz) {
    std::string compressed;
    LzCodec::Compress(payload, &compressed);
    // Fall back to raw framing if compression expanded the payload.
    if (compressed.size() < payload.size()) {
      batch.push_back(static_cast<char>(CompressionType::kLz));
      batch += compressed;
      return batch;
    }
  }
  batch.push_back(static_cast<char>(CompressionType::kNone));
  batch += payload;
  return batch;
}

Status LogStream::DecodeBatch(Slice batch, std::vector<RedoRecord>* out) {
  out->clear();
  if (batch.empty()) return Status::Corruption("batch: empty");
  const auto compression = static_cast<CompressionType>(batch[0]);
  batch.RemovePrefix(1);
  std::string decompressed;
  Slice payload = batch;
  if (compression == CompressionType::kLz) {
    GDB_RETURN_IF_ERROR(LzCodec::Decompress(batch, &decompressed));
    payload = decompressed;
  } else if (compression != CompressionType::kNone) {
    return Status::Corruption("batch: unknown compression");
  }
  while (!payload.empty()) {
    RedoRecord rec;
    GDB_RETURN_IF_ERROR(RedoRecord::DecodeFrom(&payload, &rec));
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

}  // namespace globaldb
