#pragma once
// Chrome trace_event timeline export (docs/OBSERVABILITY.md).
//
// Renders the event ring as Chrome's trace_event JSON — loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing.  Track layout:
//
//   pid 1 ("bus")      tid 1 "wire"   — frames as 'X' complete events
//   pid 10+n ("node n")
//     tid 1 "failure-detector"        — timer arms/expiries, ELS, suspects
//     tid 2 "fda"                     — rounds as b/e async spans (id keyed
//                                       by watcher+failed: rounds for
//                                       different peers overlap)
//     tid 3 "rha"                     — executions as B/E duration pairs
//     tid 4 "membership"              — view installs as instants
//     tid 5 "lifecycle"               — join/leave/crash/bus-off instants
//
// The export is split in two stages so tests can assert structure without
// parsing JSON (the repo only writes JSON): `build_trace_events` produces
// the typed list — balanced phase pairs, per-track monotone timestamps —
// and `render_trace_json` serializes it deterministically through
// json::Value (same bytes for the same run, any thread count).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace canely::obs {

/// One entry of the "traceEvents" array, already track-assigned.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph{'i'};        ///< 'X' complete | 'B','E' | 'b','e' async | 'i' | 'M'
  double ts_us{0};     ///< sim time in microseconds
  double dur_us{0};    ///< 'X' events: span length in microseconds
  int pid{0};
  int tid{0};
  bool has_id{false};  ///< async events carry an id
  std::uint64_t id{0};
  /// Extra "args" shown in the Perfetto detail pane (string values).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Convert the ring into trace events.  Spans whose opening or closing
/// half fell out of the ring (drop-oldest) or never happened (crash,
/// truncated run) degrade to instants, so the result is always balanced.
[[nodiscard]] std::vector<TraceEvent> build_trace_events(
    const EventRing& ring);

struct TraceValidation {
  bool ok{true};
  std::string error;
};

/// Structural well-formedness: every 'B' has its 'E' (per pid/tid, LIFO),
/// every 'b' its 'e' (per cat/id), 'X' durations non-negative, timestamps
/// monotone per track.
[[nodiscard]] TraceValidation validate_trace_events(
    const std::vector<TraceEvent>& events);

/// Ring bookkeeping for "otherData", decoupled from a live EventRing so
/// a trace can be re-rendered from archived data (the flight recorder
/// embedded in canely-check-2 artifacts records the original drop count,
/// which a ring reconstructed from the surviving events cannot know).
struct RingStats {
  std::size_t capacity{0};
  std::size_t recorded{0};
  std::uint64_t dropped{0};
};

/// Serialize to Chrome trace_event JSON.  `metrics`, when non-null, is
/// embedded as a top-level "metrics" object (Perfetto ignores unknown
/// keys); ring bookkeeping lands in "otherData".
[[nodiscard]] std::string render_trace_json(
    const std::vector<TraceEvent>& events, const MetricsRegistry* metrics,
    const EventRing& ring);

/// Same serialization from pre-serialized parts: `metrics_json` (may be
/// null) is embedded verbatim as the "metrics" object and `stats` stands
/// in for the live ring.  Rendering a live run through this overload
/// with `metrics->snapshot_json(true)` yields byte-identical output to
/// the overload above.
[[nodiscard]] std::string render_trace_json(
    const std::vector<TraceEvent>& events,
    const json::Value* metrics_json, const RingStats& stats);

}  // namespace canely::obs
