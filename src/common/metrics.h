#ifndef GLOBALDB_SRC_COMMON_METRICS_H_
#define GLOBALDB_SRC_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace globaldb {

/// A streaming histogram with fixed percentile queries, used to record
/// transaction latencies and replication lag in simulated nanoseconds.
class Histogram {
 public:
  Histogram() = default;

  void Record(int64_t value) {
    values_.push_back(value);
    sum_ += value;
    min_ = values_.size() == 1 ? value : std::min(min_, value);
    max_ = values_.size() == 1 ? value : std::max(max_, value);
    sorted_ = false;
  }

  size_t count() const { return values_.size(); }
  int64_t min() const { return values_.empty() ? 0 : min_; }
  int64_t max() const { return values_.empty() ? 0 : max_; }
  double mean() const {
    return values_.empty() ? 0.0 : static_cast<double>(sum_) / values_.size();
  }

  /// Percentile in [0, 100]. Returns 0 for an empty histogram.
  int64_t Percentile(double p) {
    if (values_.empty()) return 0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    double rank = p / 100.0 * (values_.size() - 1);
    size_t idx = static_cast<size_t>(rank);
    return values_[std::min(idx, values_.size() - 1)];
  }

  /// Raw samples in insertion order until the first Percentile() call
  /// (which sorts in place).
  const std::vector<int64_t>& values() const { return values_; }

  void Clear() {
    values_.clear();
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    sorted_ = false;
  }

 private:
  std::vector<int64_t> values_;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  bool sorted_ = false;
};

/// A named bag of counters and histograms. Each node and each workload
/// driver owns one; bench harnesses aggregate them into report rows.
///
/// Names are looked up as string_views through a transparent comparator, so
/// a call with a literal name allocates only the first time that name is
/// seen (libstdc++ heap-allocates any std::string of 16 or more characters).
class Metrics {
 public:
  using CounterMap = std::map<std::string, int64_t, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  void Add(std::string_view name, int64_t delta = 1) {
    auto it = counters_.find(name);
    if (it == counters_.end()) it = counters_.emplace(name, 0).first;
    it->second += delta;
  }
  int64_t Get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  Histogram& Hist(std::string_view name) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram()).first;
    }
    return it->second;
  }

  const CounterMap& counters() const { return counters_; }
  HistogramMap& histograms() { return histograms_; }

  void Clear() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  CounterMap counters_;
  HistogramMap histograms_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_COMMON_METRICS_H_
