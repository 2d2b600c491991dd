#include "src/storage/shard_store.h"

#include "src/common/codec.h"
#include "src/common/logging.h"

namespace globaldb {

MvccTable::VacuumStats ShardStore::Vacuum(Timestamp horizon) {
  MvccTable::VacuumStats total;
  total.image_bytes = VarintLength(tables_.size());
  for (auto& [id, table] : tables_) {
    const MvccTable::VacuumStats stats = table->Vacuum(horizon);
    total.reclaimed += stats.reclaimed;
    total.versions += stats.versions;
    total.image_bytes += VarintLength(id) + VarintLength(stats.image_bytes) +
                         stats.image_bytes;
  }
  return total;
}

void ShardStore::Freeze() {
  EndCapture();
  frozen_image_.reset();
  for (auto& [id, table] : tables_) {
    MvccTable* captured = table->KeyCount() == 0 ? nullptr : table.get();
    if (captured != nullptr) captured->Freeze();
    frozen_.push_back({id, captured});
  }
  capturing_ = true;
}

const std::string& ShardStore::FrozenImage() {
  if (frozen_image_.has_value()) return *frozen_image_;
  GDB_CHECK(capturing_) << "shard " << shard_ << " has no live freeze";
  // The layout of EncodeShardStore: sized first, so the image is allocated
  // once and each table is encoded straight into it behind its length.
  std::vector<size_t> sizes;
  sizes.reserve(frozen_.size());
  size_t total = VarintLength(frozen_.size());
  for (const FrozenTable& frozen : frozen_) {
    sizes.push_back(frozen.table == nullptr
                        ? VarintLength(0)
                        : frozen.table->FrozenEncodedSize());
    total += VarintLength(frozen.id) + VarintLength(sizes.back()) +
             sizes.back();
  }
  std::string image;
  image.reserve(total);
  PutVarint64(&image, frozen_.size());
  auto size = sizes.begin();
  for (const FrozenTable& frozen : frozen_) {
    PutVarint32(&image, frozen.id);
    PutVarint64(&image, *size++);
    if (frozen.table == nullptr) {
      PutVarint64(&image, 0);
    } else {
      frozen.table->EncodeFrozenTo(&image);
    }
  }
  EndCapture();
  frozen_image_ = std::move(image);
  return *frozen_image_;
}

size_t ShardStore::FrozenBytes() const {
  if (frozen_image_.has_value()) return frozen_image_->size();
  size_t bytes = 0;
  for (const FrozenTable& frozen : frozen_) {
    if (frozen.table != nullptr) bytes += frozen.table->FrozenBytes();
  }
  return bytes;
}

void ShardStore::EndCapture() {
  for (const FrozenTable& frozen : frozen_) {
    if (frozen.table != nullptr) frozen.table->Thaw();
  }
  frozen_.clear();
  capturing_ = false;
}

}  // namespace globaldb
