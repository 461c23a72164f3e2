#pragma once
// Metrics registry: counters, gauges and fixed-bucket histograms
// (DESIGN.md §11, metric catalog in docs/OBSERVABILITY.md).
//
// Registration happens at setup time (`registry.counter("els.frames_sent")`
// returns a stable reference — node-based map, never invalidated); the
// update path is a plain integer add on a cached pointer, so instrumented
// hot paths pay no lookup, no lock, no allocation.  Snapshots serialize in
// name order through json::Value, making them a pure function of the
// run — byte-identical across campaign `--threads` like every other
// artifact in this repo.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "can/types.hpp"
#include "json/json.hpp"

namespace canely::obs {

/// Monotone event count, kept per node and in total.
class Counter {
 public:
  /// Layer-wide occurrence not attributable to one node.
  void add(std::uint64_t delta = 1) { total_ += delta; }

  /// Occurrence at `node` (also accumulated into the total).
  void add_node(std::uint8_t node, std::uint64_t delta = 1) {
    total_ += delta;
    if (node < can::kMaxNodes) per_node_[node] += delta;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t node(std::uint8_t n) const {
    return n < can::kMaxNodes ? per_node_[n] : 0;
  }

 private:
  std::uint64_t total_{0};
  std::array<std::uint64_t, can::kMaxNodes> per_node_{};
};

/// Last-write-wins sampled value (e.g. bus.utilization at snapshot time).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are chosen at registration
/// and never reallocated afterwards, so `add` is a linear scan over a
/// handful of int64 bounds — no floating point, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> upper_bounds)
      : bounds_{std::move(upper_bounds)}, buckets_(bounds_.size() + 1, 0) {}

  void add(std::int64_t v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++buckets_[i];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  std::int64_t sum_{0};
  std::int64_t min_{0};
  std::int64_t max_{0};
};

/// Name -> instrument, get-or-create.  References stay valid for the
/// registry's lifetime (node-based std::map — also the only container
/// with a defined iteration order the determinism zone admits).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> upper_bounds) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram{std::move(upper_bounds)}).first;
    }
    return it->second;
  }

  /// Read-only lookups (tests, report printers); nullptr when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Deterministic snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}, names in lexicographic order.  `per_node` adds a
  /// {"node<k>": v} breakdown for counters with per-node attribution.
  [[nodiscard]] json::Value snapshot_json(bool per_node = false) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace canely::obs
