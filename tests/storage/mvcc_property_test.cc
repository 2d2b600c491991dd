// Property tests: MvccTable versus a reference model. Random committed
// transactions are applied sequentially; at every commit point the table's
// snapshot reads must match a trivially correct map-of-snapshots model,
// for both the primary write path and the replica replay path. Vacuum's
// skip of unchanged tables must give exactly a full walk's stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/mvcc_table.h"

namespace globaldb {
namespace {

struct RefModel {
  // snapshot -> (key -> value) at that timestamp; built incrementally.
  std::map<Timestamp, std::map<std::string, std::string>> states;
  std::map<std::string, std::string> current;

  void Commit(Timestamp ts) { states[ts] = current; }

  std::optional<std::string> Read(const std::string& key,
                                  Timestamp snapshot) const {
    // Latest state with commit ts <= snapshot.
    auto it = states.upper_bound(snapshot);
    if (it == states.begin()) return std::nullopt;
    --it;
    auto found = it->second.find(key);
    if (found == it->second.end()) return std::nullopt;
    return found->second;
  }
};

enum class Path { kPrimary, kReplay };

class MvccPropertyTest : public ::testing::TestWithParam<Path> {};

TEST_P(MvccPropertyTest, MatchesReferenceModelUnderRandomHistories) {
  const Path path = GetParam();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    MvccTable table(1);
    RefModel model;
    Timestamp next_ts = 10;
    TxnId next_txn = 100;
    std::vector<Timestamp> commit_points;

    for (int txn_index = 0; txn_index < 60; ++txn_index) {
      const TxnId txn = next_txn++;
      const int ops = 1 + static_cast<int>(rng.Uniform(5));
      // Track this txn's effects on the model; applied only if committed.
      std::map<std::string, std::optional<std::string>> txn_writes;

      for (int op = 0; op < ops; ++op) {
        const std::string key = "k" + std::to_string(rng.Uniform(12));
        const std::string value =
            "v" + std::to_string(txn) + "_" + std::to_string(op);
        const bool exists_for_txn =
            txn_writes.count(key) ? txn_writes[key].has_value()
                                  : model.current.count(key) > 0;
        if (!exists_for_txn) {
          if (path == Path::kPrimary) {
            ASSERT_TRUE(table.Insert(key, value, txn).ok());
          } else {
            table.ApplyInsert(key, value, txn);
          }
          txn_writes[key] = value;
        } else if (rng.Bernoulli(0.7)) {
          if (path == Path::kPrimary) {
            ASSERT_TRUE(table.Update(key, value, txn, next_ts).ok());
          } else {
            table.ApplyUpdate(key, value, txn);
          }
          txn_writes[key] = value;
        } else {
          if (path == Path::kPrimary) {
            ASSERT_TRUE(table.Delete(key, txn, next_ts).ok());
          } else {
            table.ApplyDelete(key, txn);
          }
          txn_writes[key] = std::nullopt;
        }
      }

      if (rng.Bernoulli(0.2)) {
        table.AbortTxn(txn);  // model unchanged
      } else {
        const Timestamp ts = next_ts++;
        table.CommitTxn(txn, ts);
        for (auto& [key, value] : txn_writes) {
          if (value.has_value()) {
            model.current[key] = *value;
          } else {
            model.current.erase(key);
          }
        }
        model.Commit(ts);
        commit_points.push_back(ts);
      }
    }

    // Verify every key at every commit point and between points.
    for (Timestamp snapshot : commit_points) {
      for (int k = 0; k < 12; ++k) {
        const std::string key = "k" + std::to_string(k);
        for (Timestamp probe : {snapshot, snapshot - 1}) {
          auto expected = model.Read(key, probe);
          ReadResult actual = table.Read(key, probe);
          ASSERT_EQ(actual.found, expected.has_value())
              << "seed=" << seed << " key=" << key << " probe=" << probe;
          if (expected.has_value()) {
            EXPECT_EQ(actual.value, *expected);
          }
        }
      }
    }

    // Scans at the final snapshot match the model's final state.
    const Timestamp last = commit_points.empty() ? 1 : commit_points.back();
    auto rows = table.Scan("", "", last, kInvalidTxnId, 1000, nullptr);
    std::map<std::string, std::string> scanned;
    for (const auto& row : rows) {
      scanned[row.key.ToString()] = row.value.ToString();
    }
    auto expected_state = model.states.empty()
                              ? std::map<std::string, std::string>{}
                              : model.states.rbegin()->second;
    EXPECT_EQ(scanned, expected_state) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, MvccPropertyTest,
                         ::testing::Values(Path::kPrimary, Path::kReplay),
                         [](const auto& info) {
                           return info.param == Path::kPrimary ? "Primary"
                                                               : "Replay";
                         });

// --- Vacuum's skip of unchanged tables ----------------------------------------
//
// A table with no write since its last vacuum walk, and no kept version
// ending at or below the new horizon, returns the last walk's counts
// instead of walking. Each round below compares the table's stats with a
// twin that always walks: a fresh table decoded from the table's image just
// before the round (a decoded table has never been walked).

std::string VacuumKey(uint64_t n) { return "k" + std::to_string(n); }

MvccTable::VacuumStats FullWalk(const MvccTable& table, Timestamp horizon,
                                std::string* image_after) {
  std::string image;
  table.EncodeTo(&image);
  MvccTable twin(table.id());
  Slice in(image);
  EXPECT_TRUE(twin.DecodeFrom(&in).ok());
  const MvccTable::VacuumStats stats = twin.Vacuum(horizon);
  twin.EncodeTo(image_after);
  return stats;
}

enum class Origin { kWrites, kLoadCommitted, kDecodeFrom };

class MvccVacuumSkipTest : public ::testing::TestWithParam<Origin> {};

TEST_P(MvccVacuumSkipTest, EveryRoundMatchesAFullWalkTwin) {
  int idle_rounds_that_reclaimed = 0;
  int frozen_rounds = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 104729);
    MvccTable table(1);
    Timestamp clock = 10;
    TxnId next_txn = 100;
    std::vector<TxnId> open;
    auto write = [&](MvccTable* t) {
      if (open.empty() || rng.Bernoulli(0.3)) open.push_back(next_txn++);
      const TxnId txn = open[rng.Uniform(open.size())];
      const std::string key = VacuumKey(rng.Uniform(40));
      const std::string value = "v" + std::to_string(rng.Uniform(1000));
      switch (rng.Uniform(3)) {
        case 0:
          t->ApplyInsert(key, value, txn);
          break;
        case 1:
          t->ApplyUpdate(key, value, txn);
          break;
        default:
          t->ApplyDelete(key, txn);
      }
    };
    auto resolve = [&](MvccTable* t) {
      const size_t i = rng.Uniform(open.size());
      if (rng.Bernoulli(0.8)) {
        t->CommitTxn(open[i], ++clock);
      } else {
        t->AbortTxn(open[i]);
      }
      open.erase(open.begin() + i);
    };

    switch (GetParam()) {
      case Origin::kWrites:
        break;
      case Origin::kLoadCommitted: {
        std::vector<std::pair<RowKey, std::string>> rows;
        for (uint64_t n = 0; n < 30; ++n) rows.emplace_back(VacuumKey(n), "l");
        std::sort(rows.begin(), rows.end());
        ASSERT_TRUE(table.LoadCommitted(std::move(rows), 1, 5).ok());
        break;
      }
      case Origin::kDecodeFrom: {
        // An image with committed history and provisional state.
        MvccTable source(1);
        for (int i = 0; i < 60; ++i) {
          write(&source);
          if (rng.Bernoulli(0.3)) resolve(&source);
        }
        std::string image;
        source.EncodeTo(&image);
        Slice in(image);
        ASSERT_TRUE(table.DecodeFrom(&in).ok());
        break;
      }
    }

    Timestamp horizon = 0;
    std::string frozen_image;  // the table's image at the live freeze
    for (int round = 0; round < 150; ++round) {
      // Four rounds in ten change nothing, so the skip gets exercised both
      // while the horizon is short of every kept end_ts and once it
      // crosses one.
      const bool idle = rng.Bernoulli(0.4);
      if (!idle) {
        for (uint64_t n = rng.Uniform(6); n > 0; --n) write(&table);
        for (uint64_t n = rng.Uniform(3); n > 0 && !open.empty(); --n) {
          resolve(&table);
        }
      }
      horizon = std::min<Timestamp>(clock, horizon + rng.Uniform(4));

      if (frozen_image.empty() && table.KeyCount() > 0 &&
          rng.Bernoulli(0.05)) {
        table.Freeze();
        table.EncodeTo(&frozen_image);
      }

      std::string walked_image;
      const MvccTable::VacuumStats expected =
          FullWalk(table, horizon, &walked_image);
      const MvccTable::VacuumStats got = table.Vacuum(horizon);
      ASSERT_EQ(got.reclaimed, expected.reclaimed)
          << "seed=" << seed << " round=" << round;
      ASSERT_EQ(got.versions, expected.versions)
          << "seed=" << seed << " round=" << round;
      ASSERT_EQ(got.image_bytes, expected.image_bytes)
          << "seed=" << seed << " round=" << round;
      ASSERT_EQ(table.VersionCount(), got.versions);
      ASSERT_EQ(table.EncodedSize(), got.image_bytes);
      std::string image;
      table.EncodeTo(&image);
      ASSERT_EQ(image, walked_image) << "seed=" << seed << " round=" << round;
      if (idle && got.reclaimed > 0) ++idle_rounds_that_reclaimed;

      if (!frozen_image.empty()) {
        // The freeze still rebuilds the image it was taken at.
        ++frozen_rounds;
        std::string rebuilt;
        table.EncodeFrozenTo(&rebuilt);
        ASSERT_EQ(rebuilt, frozen_image)
            << "seed=" << seed << " round=" << round;
        ASSERT_EQ(table.FrozenEncodedSize(), frozen_image.size());
        if (rng.Bernoulli(0.1)) {
          table.Thaw();
          frozen_image.clear();
        }
      }
    }
  }
  // The histories really crossed pending end_ts in rounds without writes,
  // and really vacuumed under a freeze.
  EXPECT_GT(idle_rounds_that_reclaimed, 0);
  EXPECT_GT(frozen_rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(Origins, MvccVacuumSkipTest,
                         ::testing::Values(Origin::kWrites,
                                           Origin::kLoadCommitted,
                                           Origin::kDecodeFrom),
                         [](const auto& info) {
                           switch (info.param) {
                             case Origin::kWrites:
                               return "Writes";
                             case Origin::kLoadCommitted:
                               return "LoadCommitted";
                             default:
                               return "DecodeFrom";
                           }
                         });

// A round with no writes still walks once the horizon reaches a kept
// version's end_ts, and reclaims it.
TEST(MvccVacuumSkipCaseTest, IdleRoundCrossingAnEndTsWalksAndReclaims) {
  MvccTable table(1);
  table.ApplyInsert("k", "v1", 1);
  table.CommitTxn(1, 10);
  table.ApplyUpdate("k", "v2", 2);
  table.CommitTxn(2, 20);  // v1 ends at 20
  EXPECT_EQ(table.Vacuum(15).reclaimed, 0u);
  const MvccTable::VacuumStats idle = table.Vacuum(19);
  EXPECT_EQ(idle.reclaimed, 0u);
  EXPECT_EQ(idle.versions, 2u);
  const MvccTable::VacuumStats crossed = table.Vacuum(20);
  EXPECT_EQ(crossed.reclaimed, 1u);
  EXPECT_EQ(crossed.versions, 1u);
  EXPECT_EQ(crossed.image_bytes, table.EncodedSize());
  const MvccTable::VacuumStats after = table.Vacuum(30);
  EXPECT_EQ(after.reclaimed, 0u);
  EXPECT_EQ(after.versions, 1u);
  EXPECT_EQ(after.image_bytes, crossed.image_bytes);
  EXPECT_EQ(table.Read("k", 30).value, "v2");
}

}  // namespace
}  // namespace globaldb
