#include "obs/metrics.hpp"

namespace canely::obs {

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

json::Value MetricsRegistry::snapshot_json(bool per_node) const {
  json::Value counters = json::Value::object();
  for (const auto& [name, c] : counters_) {
    if (!per_node) {
      counters.set(name, json::Value::integer(
                             static_cast<std::int64_t>(c.total())));
      continue;
    }
    json::Value entry = json::Value::object();
    entry.set("total", json::Value::integer(
                           static_cast<std::int64_t>(c.total())));
    json::Value nodes = json::Value::object();
    for (std::size_t n = 0; n < can::kMaxNodes; ++n) {
      const std::uint64_t v = c.node(static_cast<std::uint8_t>(n));
      if (v != 0) {
        nodes.set("node" + std::to_string(n),
                  json::Value::integer(static_cast<std::int64_t>(v)));
      }
    }
    entry.set("per_node", std::move(nodes));
    counters.set(name, std::move(entry));
  }

  json::Value gauges = json::Value::object();
  for (const auto& [name, g] : gauges_) {
    gauges.set(name, json::Value::number(g.value()));
  }

  json::Value histograms = json::Value::object();
  for (const auto& [name, h] : histograms_) {
    json::Value entry = json::Value::object();
    entry.set("count", json::Value::integer(
                           static_cast<std::int64_t>(h.count())));
    entry.set("sum", json::Value::integer(h.sum()));
    entry.set("min", json::Value::integer(h.count() ? h.min() : 0));
    entry.set("max", json::Value::integer(h.count() ? h.max() : 0));
    json::Value le = json::Value::array();
    for (const std::int64_t b : h.bounds()) {
      le.push(json::Value::integer(b));
    }
    entry.set("le", std::move(le));
    json::Value buckets = json::Value::array();
    for (const std::uint64_t b : h.buckets()) {
      buckets.push(json::Value::integer(static_cast<std::int64_t>(b)));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }

  json::Value root = json::Value::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root;
}

}  // namespace canely::obs
