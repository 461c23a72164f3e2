#include "check/telemetry_view.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "check/frontier.hpp"

namespace canely::check {
namespace {

using json::Value;
constexpr const char* kWhat = "telemetry JSONL";

}  // namespace

std::uint64_t TelemetrySnapshot::units_done() const {
  return counter(obs::TelemetryCounter::kUnitsJudged) +
         counter(obs::TelemetryCounter::kDedupSkips) +
         counter(obs::TelemetryCounter::kUnitsResumed);
}

TelemetrySnapshot parse_telemetry_line(const std::string& line) {
  const Value root = json::parse(line, kWhat);
  if (root.kind() != Value::Kind::kObject) {
    throw std::runtime_error("telemetry JSONL: line is not an object");
  }
  if (json::get_string(root, "schema", kWhat) != "canely-telemetry-1") {
    throw std::runtime_error("telemetry JSONL: unknown schema");
  }
  TelemetrySnapshot snap;
  snap.seq = static_cast<std::uint64_t>(json::get_int(root, "seq", kWhat));
  snap.t_ms = static_cast<std::uint64_t>(json::get_int(root, "t_ms", kWhat));
  snap.label = json::get_string(root, "label", kWhat);
  snap.shard =
      static_cast<std::size_t>(json::get_int(root, "shard", kWhat));
  snap.shards =
      static_cast<std::size_t>(json::get_int(root, "shards", kWhat));
  snap.total_units = static_cast<std::uint64_t>(
      json::get_int(root, "total_units", kWhat));
  if (const Value* frontier = root.find("frontier");
      frontier != nullptr && frontier->kind() == Value::Kind::kString) {
    snap.frontier = frontier->as_string();
  }

  const Value& counters =
      json::require(root, "counters", Value::Kind::kObject, kWhat);
  for (std::size_t c = 0; c < obs::kTelemetryCounters; ++c) {
    const auto counter = static_cast<obs::TelemetryCounter>(c);
    // `rejoined` joined the schema later: lines written before it read 0.
    if (counter == obs::TelemetryCounter::kRejoined &&
        counters.find(obs::to_string(counter)) == nullptr) {
      continue;
    }
    snap.counters[c] = static_cast<std::uint64_t>(
        json::get_int(counters, obs::to_string(counter), kWhat));
  }
  const Value& stages =
      json::require(root, "stages", Value::Kind::kObject, kWhat);
  for (std::size_t s = 0; s < obs::kTelemetryStages; ++s) {
    const Value& stage = json::require(
        stages, obs::to_string(static_cast<obs::TelemetryStage>(s)),
        Value::Kind::kObject, kWhat);
    snap.stage_count[s] =
        static_cast<std::uint64_t>(json::get_int(stage, "count", kWhat));
    snap.stage_sum_us[s] =
        static_cast<std::uint64_t>(json::get_int(stage, "sum_us", kWhat));
  }
  snap.dropped_lines = static_cast<std::uint64_t>(
      json::get_int(root, "dropped_lines", kWhat));
  return snap;
}

std::vector<TelemetrySnapshot> load_telemetry(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("telemetry JSONL: cannot open " + path);
  }
  std::vector<TelemetrySnapshot> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(parse_telemetry_line(line));
  }
  return out;
}

double ShardStatus::rate() const {
  if (have_prev && last.t_ms > prev.t_ms) {
    const std::uint64_t du = last.units_done() - prev.units_done();
    return static_cast<double>(du) * 1000.0 /
           static_cast<double>(last.t_ms - prev.t_ms);
  }
  if (last.t_ms > 0) {
    return static_cast<double>(last.units_done()) * 1000.0 /
           static_cast<double>(last.t_ms);
  }
  return 0;
}

ShardStatus load_shard_status(const std::string& path) {
  const std::vector<TelemetrySnapshot> lines = load_telemetry(path);
  if (lines.empty()) {
    throw std::runtime_error("telemetry JSONL: " + path + " has no lines");
  }
  ShardStatus status;
  status.path = path;
  status.last = lines.back();
  if (lines.size() >= 2) {
    status.have_prev = true;
    status.prev = lines[lines.size() - 2];
  }
  if (!status.last.frontier.empty()) {
    try {
      const FrontierFile f = load_frontier(status.last.frontier);
      status.frontier_loaded = true;
      status.frontier_complete = f.complete;
      status.frontier_partial = f.partial;
      status.frontier_records = f.records.size();
    } catch (const std::exception&) {
      // A frontier mid-rename or not yet written is normal while live.
    }
  }
  return status;
}

StatusSummary summarize(const std::vector<ShardStatus>& shards) {
  StatusSummary sum;
  std::uint64_t dedup_skips = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const ShardStatus& sh : shards) {
    const TelemetrySnapshot& last = sh.last;
    sum.done += last.units_done();
    sum.total += last.total_units;
    sum.rate += sh.rate();
    sum.runs += last.counter(obs::TelemetryCounter::kRuns);
    sum.rejoined += last.counter(obs::TelemetryCounter::kRejoined);
    sum.violations += last.counter(obs::TelemetryCounter::kViolations);
    sum.dropped_lines += last.dropped_lines;
    dedup_skips += last.counter(obs::TelemetryCounter::kDedupSkips);
    hits += last.counter(obs::TelemetryCounter::kPrefixHits);
    misses += last.counter(obs::TelemetryCounter::kPrefixMisses);
    if (sh.frontier_complete) ++sum.shards_complete;
  }
  if (sum.done > 0) {
    sum.dedup_pct =
        100.0 * static_cast<double>(dedup_skips) /
        static_cast<double>(sum.done);
  }
  if (hits + misses > 0) {
    sum.cache_pct = 100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses);
  }
  if (sum.total > sum.done && sum.rate > 0) {
    sum.eta_sec =
        static_cast<double>(sum.total - sum.done) / sum.rate;
  } else if (sum.total != 0 && sum.done >= sum.total) {
    sum.eta_sec = 0;
  }
  return sum;
}

namespace {

/// Counters and sizes are unsigned; every value here fits int64.
json::Value count(std::uint64_t v) {
  return json::Value::integer(static_cast<std::int64_t>(v));
}

json::Value shard_json(const ShardStatus& sh) {
  const TelemetrySnapshot& last = sh.last;
  json::Value counters = json::Value::object();
  for (std::size_t c = 0; c < obs::kTelemetryCounters; ++c) {
    counters.set(obs::to_string(static_cast<obs::TelemetryCounter>(c)),
                 count(last.counters[c]));
  }
  json::Value j = json::Value::object(
      {{"file", json::Value::string(sh.path)},
       {"label", json::Value::string(last.label)},
       {"shard", count(last.shard)},
       {"shards", count(last.shards)},
       {"seq", count(last.seq)},
       {"t_ms", count(last.t_ms)},
       {"done", count(last.units_done())},
       {"total_units", count(last.total_units)},
       {"rate", json::Value::number(sh.rate())},
       {"counters", std::move(counters)},
       {"dropped_lines", count(last.dropped_lines)}});
  if (!last.frontier.empty()) {
    json::Value f = json::Value::object(
        {{"file", json::Value::string(last.frontier)},
         {"loaded", json::Value::boolean(sh.frontier_loaded)}});
    if (sh.frontier_loaded) {
      f.set("records", count(sh.frontier_records));
      f.set("complete", json::Value::boolean(sh.frontier_complete));
      f.set("partial", json::Value::boolean(sh.frontier_partial));
    }
    j.set("frontier", std::move(f));
  }
  return j;
}

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", v);
  return buf;
}

std::string eta_text(double eta_sec) {
  if (eta_sec < 0) return "?";
  char buf[32];
  if (eta_sec >= 3600) {
    std::snprintf(buf, sizeof buf, "%.1fh", eta_sec / 3600.0);
  } else if (eta_sec >= 60) {
    std::snprintf(buf, sizeof buf, "%.1fm", eta_sec / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fs", eta_sec);
  }
  return buf;
}

}  // namespace

json::Value status_json(const std::vector<ShardStatus>& shards) {
  json::Value arr = json::Value::array();
  for (const ShardStatus& sh : shards) arr.push(shard_json(sh));
  const StatusSummary sum = summarize(shards);
  json::Value total = json::Value::object(
      {{"done", count(sum.done)},
       {"total", count(sum.total)},
       {"rate", json::Value::number(sum.rate)},
       {"dedup_pct", json::Value::number(sum.dedup_pct)},
       {"cache_pct", json::Value::number(sum.cache_pct)},
       {"eta_sec", json::Value::number(sum.eta_sec)},
       {"runs", count(sum.runs)},
       {"rejoined", count(sum.rejoined)},
       {"violations", count(sum.violations)},
       {"dropped_lines", count(sum.dropped_lines)},
       {"shards_complete", count(sum.shards_complete)}});
  return json::Value::object({{"schema", json::Value::string("canely-top-1")},
                              {"shards", std::move(arr)},
                              {"total", std::move(total)}});
}

std::string render_status_text(const std::vector<ShardStatus>& shards) {
  std::string out;
  char buf[256];
  for (const ShardStatus& sh : shards) {
    const TelemetrySnapshot& last = sh.last;
    const std::uint64_t done = last.units_done();
    std::snprintf(
        buf, sizeof buf, "%-10s shard %zu/%zu  %10llu", last.label.c_str(),
        last.shard, last.shards,
        static_cast<unsigned long long>(done));
    out += buf;
    if (last.total_units != 0) {
      std::snprintf(
          buf, sizeof buf, "/%llu (%s)",
          static_cast<unsigned long long>(last.total_units),
          pct(100.0 * static_cast<double>(done) /
              static_cast<double>(last.total_units))
              .c_str());
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "  %8.1f u/s", sh.rate());
    out += buf;
    const std::uint64_t skips =
        last.counter(obs::TelemetryCounter::kDedupSkips);
    if (done > 0) {
      out += "  dedup " + pct(100.0 * static_cast<double>(skips) /
                              static_cast<double>(done));
    }
    // Share of the simulated units that stopped on their base trajectory.
    const std::uint64_t judged =
        last.counter(obs::TelemetryCounter::kUnitsJudged);
    const std::uint64_t rejoined =
        last.counter(obs::TelemetryCounter::kRejoined);
    if (judged > 0 && rejoined > 0) {
      out += "  rejoin " + pct(100.0 * static_cast<double>(rejoined) /
                               static_cast<double>(judged));
    }
    const std::uint64_t hits =
        last.counter(obs::TelemetryCounter::kPrefixHits);
    const std::uint64_t misses =
        last.counter(obs::TelemetryCounter::kPrefixMisses);
    if (hits + misses > 0) {
      out += "  cache " + pct(100.0 * static_cast<double>(hits) /
                              static_cast<double>(hits + misses));
    }
    const std::uint64_t violations =
        last.counter(obs::TelemetryCounter::kViolations);
    if (violations != 0) {
      out += "  VIOLATIONS " + std::to_string(violations);
    }
    if (last.dropped_lines != 0) {
      out += "  dropped_lines " + std::to_string(last.dropped_lines);
    }
    if (sh.frontier_loaded) {
      out += sh.frontier_complete ? "  [frontier complete]"
                                  : "  [frontier ckpt " +
                                        std::to_string(sh.frontier_records) +
                                        "]";
    }
    out += "\n";
  }
  const StatusSummary sum = summarize(shards);
  std::snprintf(buf, sizeof buf, "%-10s %zu shard(s)   %10llu", "TOTAL",
                shards.size(), static_cast<unsigned long long>(sum.done));
  out += buf;
  if (sum.total != 0) {
    // Appended in two steps: `"/" + std::to_string(...)` trips a GCC 12
    // -Wrestrict false positive in the libstdc++ operator+ under -O2.
    out += '/';
    out += std::to_string(sum.total);
  }
  std::snprintf(buf, sizeof buf, "  %8.1f u/s  eta %s", sum.rate,
                eta_text(sum.eta_sec).c_str());
  out += buf;
  if (sum.violations != 0) {
    out += "  VIOLATIONS " + std::to_string(sum.violations);
  }
  out += "\n";
  return out;
}

}  // namespace canely::check
