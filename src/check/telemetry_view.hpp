#pragma once
// Reader-side view of the campaign telemetry stream (tools/canely_top).
//
// The telemetry service (src/obs/telemetry.hpp) appends self-contained
// `canely-telemetry-1` JSON lines; this header parses them back and
// reduces one file per shard into the status a live dashboard needs:
// progress against total_units, placements/s from the last two
// snapshots, dedup, rejoin and prefix-cache ratios, an ETA, and the
// advertised frontier file's checkpoint state.  Everything here is a pure function
// of file bytes — the CLI around it (tools/canely_top.cpp) owns the
// loop, the clock, and the screen.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "obs/telemetry.hpp"

namespace canely::check {

/// One parsed `canely-telemetry-1` snapshot line.
struct TelemetrySnapshot {
  std::uint64_t seq{0};
  std::uint64_t t_ms{0};  ///< wall ms since the emitting service started
  std::string label;
  std::size_t shard{0};
  std::size_t shards{1};
  std::uint64_t total_units{0};  ///< 0 = unknown
  std::string frontier;          ///< advertised frontier path ("" = none)
  std::array<std::uint64_t, obs::kTelemetryCounters> counters{};
  std::array<std::uint64_t, obs::kTelemetryStages> stage_count{};
  std::array<std::uint64_t, obs::kTelemetryStages> stage_sum_us{};
  std::uint64_t dropped_lines{0};

  [[nodiscard]] std::uint64_t counter(obs::TelemetryCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Units resolved so far: judged + dedup-skipped + resumed.
  [[nodiscard]] std::uint64_t units_done() const;
};

/// Parse one snapshot line; throws std::runtime_error on syntax or
/// schema errors.
[[nodiscard]] TelemetrySnapshot parse_telemetry_line(const std::string& line);

/// Parse a whole telemetry file, one snapshot per non-empty line, in
/// file order.  Throws when the file cannot be read or a line is bad.
[[nodiscard]] std::vector<TelemetrySnapshot> load_telemetry(
    const std::string& path);

/// One shard's current status: the newest snapshot, the previous one
/// (for rates), and the advertised frontier's checkpoint state.
struct ShardStatus {
  std::string path;  ///< the telemetry file this came from
  TelemetrySnapshot last;
  bool have_prev{false};
  TelemetrySnapshot prev;
  bool frontier_loaded{false};  ///< advertised frontier file parsed ok
  bool frontier_complete{false};
  bool frontier_partial{false};
  std::uint64_t frontier_records{0};

  /// Units/s between the last two snapshots (whole-run average when only
  /// one line exists; 0 when indeterminate).
  [[nodiscard]] double rate() const;
};

/// Load one shard's telemetry file and, when the stream advertises a
/// frontier, its checkpoint.  Throws when the telemetry file is
/// unreadable or malformed; a missing/bad frontier only clears
/// `frontier_loaded`.
[[nodiscard]] ShardStatus load_shard_status(const std::string& path);

/// Fleet summary across shards.
struct StatusSummary {
  std::uint64_t done{0};
  std::uint64_t total{0};  ///< sum of known totals (0 = all unknown)
  double rate{0};          ///< summed units/s
  double dedup_pct{0};     ///< dedup skips / units done
  double cache_pct{0};     ///< prefix hits / (hits + misses)
  double eta_sec{-1};      ///< -1 = unknown (no total or zero rate)
  std::uint64_t runs{0};
  std::uint64_t rejoined{0};  ///< simulated units stopped on their base
  std::uint64_t violations{0};
  std::uint64_t dropped_lines{0};
  std::size_t shards_complete{0};  ///< frontiers marked complete
};

[[nodiscard]] StatusSummary summarize(const std::vector<ShardStatus>& shards);

/// Deterministic machine-readable status (canely_top --once --json).
[[nodiscard]] json::Value status_json(
    const std::vector<ShardStatus>& shards);

/// Human-readable status block, one line per shard plus a total line.
[[nodiscard]] std::string render_status_text(
    const std::vector<ShardStatus>& shards);

}  // namespace canely::check
