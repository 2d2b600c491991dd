#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/storage/snapshot.h"
#include "src/workload/sysbench.h"
#include "src/workload/tpcc.h"

namespace globaldb {
namespace {

// Pins the initial population both workloads load: the hash of every
// primary's store image, shard by shard, taken from the per-row load the
// bulk loader replaced. A load that changes one byte of any image (a row,
// a key, a version stamp, a table on the wrong shard) fails here.

ClusterOptions PinClusterOptions() {
  ClusterOptions o;
  o.topology = sim::Topology::ThreeCity();
  o.network.nagle_enabled = false;
  o.num_shards = 6;
  o.replicas_per_shard = 2;
  o.initial_mode = TimestampMode::kGclock;
  return o;
}

/// Checks that every replica holds its primary's image and that no store
/// keeps provisional state, then returns the primaries' image hashes.
std::vector<uint64_t> PrimaryImageHashes(Cluster* cluster) {
  std::vector<uint64_t> hashes;
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    SCOPED_TRACE(shard);
    const ShardStore& primary = cluster->data_node(shard).store();
    const std::string image = EncodeShardStore(primary);
    EXPECT_TRUE(primary.ProvisionalTxns().empty());
    const std::vector<ReplicaNode*> replicas = cluster->replicas_of(shard);
    EXPECT_EQ(replicas.size(), 2u);
    for (ReplicaNode* replica : replicas) {
      EXPECT_TRUE(EncodeShardStore(replica->store()) == image);
      EXPECT_TRUE(replica->store().ProvisionalTxns().empty());
    }
    hashes.push_back(Hash64(Slice(image)));
  }
  return hashes;
}

TEST(BulkLoadTest, TpccStoresMatchPin) {
  sim::Simulator sim(41);
  Cluster cluster(&sim, PinClusterOptions());
  cluster.Start();
  TpccConfig config;
  config.num_warehouses = 7;
  config.districts_per_warehouse = 3;
  config.customers_per_district = 12;
  config.items = 90;
  config.initial_orders_per_district = 6;
  TpccWorkload tpcc(&cluster, config, /*seed=*/5);
  ASSERT_TRUE(tpcc.Setup().ok());
  const std::vector<uint64_t> pinned = {
      898998302444995412ULL,  494121513444222203ULL,  5329993626247273871ULL,
      6628994071901413695ULL, 4254199168231444788ULL, 3272182651519378868ULL};
  EXPECT_EQ(PrimaryImageHashes(&cluster), pinned);
}

TEST(BulkLoadTest, SysbenchStoresMatchPin) {
  sim::Simulator sim(42);
  Cluster cluster(&sim, PinClusterOptions());
  cluster.Start();
  SysbenchConfig config;
  config.num_tables = 3;
  config.rows_per_table = 250;
  SysbenchWorkload sysbench(&cluster, config, /*seed=*/6);
  ASSERT_TRUE(sysbench.Setup().ok());
  const std::vector<uint64_t> pinned = {
      15142401523934024198ULL, 18012623838825989974ULL,
      5559781930073030658ULL,  8542802130976640009ULL,
      14440972338263822483ULL, 142684319793320269ULL};
  EXPECT_EQ(PrimaryImageHashes(&cluster), pinned);
}

}  // namespace
}  // namespace globaldb
