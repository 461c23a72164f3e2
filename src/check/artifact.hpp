#pragma once
// Replayable counterexample artifacts.
//
// A shrunk counterexample is only worth anything if it can be re-executed
// later, elsewhere, byte-for-byte: the artifact JSON therefore carries the
// complete scenario parameterization, the fault script, the violated
// monitor, and the wire-trace hash of the violating run.  Replaying loads
// the artifact, rebuilds the identical run (the checked harness is a pure
// function of scenario + script), and verifies both that the recorded
// monitor still fires and that the wire trace hashes to the recorded
// value.
//
// Reading and writing go through json::Value (src/json: insertion-ordered,
// deterministic bytes).
//
// Schema history: "canely-check-1" carried scenario + script + violation
// only; "canely-check-2" adds the optional flight-recorder payload (the
// violating run's obs::EventRing and metrics snapshot) so a
// counterexample ships with its own timeline — `check_explorer --replay
// --trace-out` re-exports it as Perfetto JSON without re-running
// anything.  Writing always emits v2; loading accepts both.

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_script.hpp"
#include "check/harness.hpp"
#include "json/json.hpp"
#include "obs/event.hpp"

namespace canely::check {

/// The violating run's observability state, archived inside the
/// artifact.  `events` is the ring contents oldest-first; the original
/// capacity and drop count come along because a ring reconstructed from
/// the surviving events cannot know how many fell out.
struct FlightRecording {
  bool present{false};
  std::size_t ring_capacity{0};
  std::uint64_t dropped{0};
  std::vector<obs::Event> events;
  bool has_metrics{false};
  json::Value metrics;  ///< MetricsRegistry::snapshot_json(true)
};

struct Artifact {
  ScenarioConfig scenario;
  FaultScript script;
  std::string monitor;          ///< the invariant the script violates
  std::uint64_t trace_hash{0};  ///< wire-trace hash of the violating run
  Violation violation;          ///< as recorded when the artifact was made
  FlightRecording flight;       ///< absent when loaded from a v1 artifact
};

/// Serialize (deterministic bytes).
[[nodiscard]] json::Value artifact_json(const Artifact& artifact);

/// Write `artifact` to `path`; throws std::runtime_error on I/O failure.
void write_artifact(const std::string& path, const Artifact& artifact);

/// Parse an artifact file; throws std::runtime_error on I/O or syntax or
/// schema errors.
[[nodiscard]] Artifact load_artifact(const std::string& path);

}  // namespace canely::check
