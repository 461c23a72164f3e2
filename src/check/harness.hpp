#pragma once
// Checked-run harness: build one simulation universe (engine, bus, n-node
// CANELy stack; check::Universe), apply a fault script, watch it with the
// full monitor panel, and report what happened.
//
// A checked run is a pure function of (ScenarioConfig, FaultScript): the
// engine is deterministic, the script keys on the bus's global attempt
// counter, and the harness applies scripted sender-crashes at exact frame
// boundaries.  RunResult::trace_hash digests every completed transmission
// attempt (timing, wire content, outcome, delivery set), so two runs are
// byte-equivalent on the wire iff their hashes match — the anchor for the
// replay-determinism tests and the explorer's thread-count invariance.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "can/types.hpp"
#include "canely/params.hpp"
#include "check/fault_script.hpp"
#include "check/monitor.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "sim/time.hpp"

namespace canely::check {

/// The scenario a checked run simulates: n nodes, all joining at t=0,
/// running the full stack until `duration`.
struct ScenarioConfig {
  std::size_t n{8};
  Params params{};
  bool clustering{true};
  sim::Time duration{sim::Time::ms(160)};
  /// Agreement obligations first arising within `settle` of the end are
  /// exempt (their deadline falls beyond the observation window).
  sim::Time settle{sim::Time::ms(15)};
  /// Slack added to the analytical detection bound (queuing jitter from
  /// injected retransmissions).
  sim::Time latency_margin{sim::Time::ms(2)};

  /// The n=8 membership scenario the explorer enumerates: compressed
  /// timing (Tm=20ms, Th=8ms, join_wait=60ms) so a 160ms run covers the
  /// join phase plus several membership cycles.
  [[nodiscard]] static ScenarioConfig membership(std::size_t n = 8,
                                                 bool fda_on = true);

  /// Detection-latency bound: Th + 2*Ttd + n*skew + margin.
  [[nodiscard]] sim::Time detection_bound() const;
  /// Instant by which the join phase has settled into an agreed view:
  /// join_wait + one membership cycle + RHA termination + margin.  View
  /// agreement is only enforced from here on — before it, nodes may
  /// legitimately hold different bootstrap histories (Fig. 9, s18-s19).
  [[nodiscard]] sim::Time converge_by() const;
  /// Expulsion grace: detection bound + one membership cycle + Trha +
  /// margin — a node crashed longer ago than this must be expelled.
  [[nodiscard]] sim::Time expel_grace() const;
};

/// One transmission attempt as the fault injector saw it (the explorer's
/// targeting map: which attempts exist, who sends them, who can be a
/// victim).
struct TxLogEntry {
  std::uint64_t tx_index{};
  can::NodeId transmitter{};
  can::NodeSet co_transmitters;
  can::NodeSet receivers;
  std::uint8_t msg_type{0xFF};  ///< canely::MsgType, 0xFF = non-CANELy
  can::NodeId mid_node{};       ///< node field of the decoded mid
  bool remote{false};
  sim::Time start{};
};

/// One membership view installation, as seen by the view observer.
struct ViewInstall {
  sim::Time when{};
  can::NodeSet view;
};

/// Canonical whole-universe state hash sampled at the judge-time of one
/// transmission attempt (before any verdict for that attempt applies).
/// Two runs in the same state at the attempt a fault targets evolve
/// identically under the same fault — the explorer's equivalence dedup
/// keys on this.  `start` and `crashed` locate the sample for a run
/// that tries to rejoin this trajectory (RejoinTarget): attempt indices
/// differ between runs, instants and crash sets are comparable.
struct StateSample {
  std::uint64_t tx_index{};
  std::uint64_t state_hash{};
  sim::Time start{};       ///< the attempt's start instant
  can::NodeSet crashed{};  ///< the harness crash set at judge-time
};

/// A base trajectory a run may rejoin: the judge-time samples and the
/// verdict of a probe run (the explorer's base probe).
///
/// Once a run's own script is exhausted, it checks the *first* of its
/// attempts that starts at the instant of one of the probe's post-script
/// samples.  If the crash sets and the canonical state hashes match
/// there, both runs are in the same state with no fault left to fire,
/// so their continuations — and the verdicts monitors render in
/// finish() — are identical: the run stops and reports `violations`.
/// Only that first shared instant is checked; after a mismatch there
/// the run goes on to its end.  The views point into caller-owned
/// storage.
struct RejoinTarget {
  std::span<const StateSample> samples;  ///< the probe's, in tx order
  /// First attempt index past the probe's script (its last scripted
  /// attempt + 1; 0 for the fault-free probe): only samples from here
  /// on are post-script.
  std::uint64_t script_end{0};
  std::span<const Violation> violations;  ///< the probe's verdict
};

/// Knobs for run_checked beyond the scenario and the script.
struct RunOptions {
  /// Collect the per-attempt targeting map (probe runs).
  bool want_tx_log{false};
  /// Sample the canonical state hash at the judge-time of each attempt
  /// this returns true for (asked once per attempt, in wire order; empty
  /// = no samples).  A digest costs ~3 µs at n = 10, ~2% of a whole
  /// fault-free run, so probes ask only for the attempts their unit
  /// source keys or may rejoin at.
  std::function<bool(const TxLogEntry&)> sample_at;
  /// Structured observability feed (typed events + metrics); used to
  /// attach a Perfetto timeline to counterexample artifacts.
  obs::Recorder* recorder{nullptr};
  /// Stop early on rejoining this trajectory (non-owning, may be null).
  const RejoinTarget* rejoin{nullptr};
};

/// Everything a checked run reports.
struct RunResult {
  std::vector<Violation> violations;
  /// Digest of the completed attempts.  A rejoined run's covers only the
  /// prefix it simulated (the explorer never reads it).
  std::uint64_t trace_hash{0};
  std::vector<TxLogEntry> tx_log;  ///< only when requested
  /// Per-node view-install history, indexed by node id (cfg.n entries);
  /// only when the tx log is requested, empty otherwise.
  std::vector<std::vector<ViewInstall>> installs;
  /// Judge-time state hashes; only where RunOptions::sample_at asks.
  std::vector<StateSample> samples;
  std::uint64_t attempts{0};  ///< bus attempts completed
  sim::Time end{};
  /// Stopped on rejoining RunOptions::rejoin: `violations` are the
  /// target's, and `attempts` counts only the simulated prefix.
  bool rejoined{false};
};

/// First attempt index past a script's last fault (0 for an empty one).
[[nodiscard]] std::uint64_t script_end(const FaultScript& script);

/// Execute one checked run in a fresh universe (check/universe.hpp).
[[nodiscard]] RunResult run_checked(const ScenarioConfig& cfg,
                                    const FaultScript& script,
                                    const RunOptions& opts);

/// Convenience overload matching the pre-RunOptions signature.
[[nodiscard]] RunResult run_checked(const ScenarioConfig& cfg,
                                    const FaultScript& script,
                                    bool want_tx_log = false,
                                    obs::Recorder* recorder = nullptr);

/// FNV-1a accumulator used for the trace hash (exposed for aggregate
/// hashing in the explorer); the shared word step of sim/hash.hpp.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t hash,
                                            std::uint64_t value) {
  return sim::fnv1a_word(hash, value);
}
inline constexpr std::uint64_t kFnvOffset = sim::kFnvOffset;

}  // namespace canely::check
