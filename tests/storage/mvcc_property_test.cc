// Property test: MvccTable versus a reference model. Random committed
// transactions are applied sequentially; at every commit point the table's
// snapshot reads must match a trivially correct map-of-snapshots model,
// for both the primary write path and the replica replay path.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
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

}  // namespace
}  // namespace globaldb
