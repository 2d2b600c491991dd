#include "src/storage/snapshot.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/codec.h"

namespace globaldb {

std::string EncodeShardStore(const ShardStore& store) {
  // Size every table first so the image is allocated once and each table
  // is encoded straight into it behind its length prefix.
  const auto& tables = store.tables();
  std::vector<size_t> sizes;
  sizes.reserve(tables.size());
  size_t total = VarintLength(tables.size());
  for (const auto& [id, table] : tables) {
    sizes.push_back(table->EncodedSize());
    total += VarintLength(id) + VarintLength(sizes.back()) + sizes.back();
  }
  std::string image;
  image.reserve(total);
  PutVarint64(&image, tables.size());
  auto size = sizes.begin();
  for (const auto& [id, table] : tables) {
    PutVarint32(&image, id);
    PutVarint64(&image, *size++);
    table->EncodeTo(&image);
  }
  return image;
}

Status InstallShardStore(Slice image, ShardStore* store) {
  // Decode into fresh tables and swap them in only once the whole image
  // has decoded: a corrupt image leaves the store as it was.
  std::map<TableId, std::unique_ptr<MvccTable>> tables;
  uint64_t num_tables = 0;
  if (!GetVarint64(&image, &num_tables)) {
    return Status::Corruption("store image: table count");
  }
  for (uint64_t i = 0; i < num_tables; ++i) {
    uint32_t id = 0;
    Slice table_image;
    if (!GetVarint32(&image, &id) ||
        !GetLengthPrefixed(&image, &table_image)) {
      return Status::Corruption("store image: table header");
    }
    auto [it, inserted] = tables.emplace(id, std::make_unique<MvccTable>(id));
    if (!inserted) return Status::Corruption("store image: duplicate table");
    GDB_RETURN_IF_ERROR(it->second->DecodeFrom(&table_image));
    if (!table_image.empty()) {
      return Status::Corruption("store image: trailing table bytes");
    }
  }
  store->ReplaceTables(std::move(tables));
  return Status::OK();
}

std::string EncodeCatalog(const Catalog& catalog) {
  std::string image;
  const auto tables = catalog.AllTables();
  PutVarint64(&image, tables.size());
  for (const TableSchema* schema : tables) {
    PutLengthPrefixed(&image, Catalog::MakeCreatePayload(*schema));
    PutVarint64(&image, catalog.LastDdlTimestamp(schema->id));
  }
  return image;
}

Status InstallCatalog(Slice image, Catalog* catalog) {
  uint64_t num_tables = 0;
  if (!GetVarint64(&image, &num_tables)) {
    return Status::Corruption("catalog image: table count");
  }
  for (uint64_t i = 0; i < num_tables; ++i) {
    Slice payload;
    uint64_t ddl_ts = 0;
    if (!GetLengthPrefixed(&image, &payload) ||
        !GetVarint64(&image, &ddl_ts)) {
      return Status::Corruption("catalog image: entry");
    }
    GDB_RETURN_IF_ERROR(catalog->ApplyDdl(payload, ddl_ts));
  }
  return Status::OK();
}

}  // namespace globaldb
