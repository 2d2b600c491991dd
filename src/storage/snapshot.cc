#include "src/storage/snapshot.h"

#include "src/common/codec.h"

namespace globaldb {

std::string EncodeShardStore(const ShardStore& store) {
  std::string image;
  PutVarint64(&image, store.tables().size());
  for (const auto& [id, table] : store.tables()) {
    PutVarint32(&image, id);
    std::string table_image;
    table->EncodeTo(&table_image);
    PutLengthPrefixed(&image, table_image);
  }
  return image;
}

Status InstallShardStore(Slice image, ShardStore* store) {
  store->Clear();
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
    if (store->GetTable(id) != nullptr) {
      return Status::Corruption("store image: duplicate table");
    }
    MvccTable* table = store->GetOrCreateTable(id);
    GDB_RETURN_IF_ERROR(table->DecodeFrom(&table_image));
    if (!table_image.empty()) {
      return Status::Corruption("store image: trailing table bytes");
    }
  }
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
