#pragma once
// The simulation universe of one checked run, as a reusable object.
//
// A Universe is what run_checked() builds: the engine, the bus, the n
// CANELy nodes (all joining at t=0), the monitor panel, the harness's
// own crash record and trace digest, and the script injector — wired
// once, at construction.  run_checked() builds a fresh one per run; the
// explorer keeps one per worker and starts runs from checkpoints.
//
// Every simulated component keeps all of its mutable members in one
// value-typed `State`; only immutable configuration and construction-
// time wiring (observer callbacks, component references) live outside
// it, plus a run's inputs (script and options, set by arm()).  checkpoint() copy-assigns every State into a
// Checkpoint, restore() copy-assigns them back into the same objects.
// Nothing moves, so every captured `this` and reference — in pending
// engine events, timer callbacks, handler wiring — stays valid, and a
// restored universe continues exactly as the checkpointed one did.
// hash_state() methods read only State, so the canonical state digest
// (state_digest(), the explorer's dedup and rejoin key) never covers
// more than a restore copies.
//
// The explorer's branching primitive (DESIGN.md §12): restore the t=0
// checkpoint, arm a base script, run_to_attempt(k) — the event boundary
// after attempt k-1, before attempt k is judged — checkpoint, then for
// each unit whose last fault targets attempt k: restore, arm the unit's
// full script, finish().  Up to attempt k's judge-time the base run and
// the unit's own run are the same run (the injector fires only at the
// attempts its script names), so the continuation is exact.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "can/bus.hpp"
#include "canely/node.hpp"
#include "check/fault_script.hpp"
#include "check/harness.hpp"
#include "check/monitor.hpp"
#include "obs/recorder.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"

namespace canely::check {

/// The harness's fault injector: renders the script's verdicts
/// (script_verdict), records the per-attempt targeting map (probe runs),
/// samples the state hash, and detects a rejoin.  judge() sees every
/// non-collision attempt exactly once, in wire order, with the full
/// TxContext — including the global attempt index the scripts key on.
class LoggingInjector final : public can::FaultInjector {
 public:
  /// Returns the canonical state hash of the whole universe, evaluated at
  /// the instant of the call (judge-time, pre-verdict).
  using Sampler = std::function<std::uint64_t()>;

  /// `crashed`: the harness crash set (read when sampling); a rejoin
  /// stops `engine`.
  LoggingInjector(const can::NodeSet& crashed, sim::Engine& engine,
                  Sampler sampler)
      : crashed_{crashed}, engine_{engine}, sampler_{std::move(sampler)} {}

  /// Load a run's script and options (RunOptions::recorder aside), and
  /// arm the rejoin check at the target's first post-script sample.
  void arm(const FaultScript& script, const RunOptions& opts);

  can::Verdict judge(const can::TxContext& ctx) override;

  /// Consume the pending sender-crash recorded by the last judge() call,
  /// if any.  The harness calls this from the bus observer (end of the
  /// judged frame); the bus never interleaves another judged attempt in
  /// between, so the pairing is exact.
  bool take_pending_crash(can::NodeId& node) {
    if (!s_.crash_pending) return false;
    s_.crash_pending = false;
    node = s_.crash_node;
    return true;
  }

  [[nodiscard]] bool rejoined() const { return s_.rejoined; }

  /// The injector's mutable members, value-typed.
  struct State {
    bool crash_pending{false};
    can::NodeId crash_node{0};
    std::vector<TxLogEntry> log;
    std::vector<StateSample> samples;
    std::span<const StateSample> rejoin;  ///< unvisited post-script samples
    bool rejoined{false};
  };
  void checkpoint(State& out) const { out = s_; }
  void restore(const State& in) { s_ = in; }
  [[nodiscard]] const State& state() const { return s_; }

 private:
  void check_rejoin(const can::TxContext& ctx);

  const can::NodeSet& crashed_;
  sim::Engine& engine_;
  Sampler sampler_;
  // Run inputs, set by arm().
  FaultScript script_;
  std::uint64_t own_end_{0};
  bool want_log_{false};
  std::function<bool(const TxLogEntry&)> sample_at_;
  State s_;
};

/// One checked run's universe (see the header comment).
class Universe {
 public:
  /// Build and wire the scenario and join every node at t=0.  Nodes are
  /// carved out of `nodes`, which must be empty and outlive the universe;
  /// the destructor resets it.  A universe with a `recorder` runs once:
  /// the recorder's ring is not state, so it cannot be checkpointed.
  Universe(const ScenarioConfig& cfg, sim::Arena& nodes,
           obs::Recorder* recorder = nullptr);
  ~Universe();
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  /// Load the run's script and options.  Call at t=0, or right after
  /// restoring a checkpoint taken in a run whose script agrees with
  /// `script` on every attempt before the checkpoint and that ran under
  /// the same want_tx_log/sample_at (their records are state).
  void arm(const FaultScript& script, const RunOptions& opts);

  /// Simulate until the bus has completed `attempts` attempts, stopping
  /// at that event boundary — after the last one's observer, before the
  /// next attempt is judged.  Returns false if the scenario ended (or
  /// the run rejoined) first.
  bool run_to_attempt(std::uint64_t attempts);

  /// Simulate to the scenario's end and report the run.
  RunResult finish();

  /// Bus attempts completed so far.
  [[nodiscard]] std::uint64_t attempts() const;

  /// Canonical whole-universe state digest at the current instant (the
  /// explorer's dedup and rejoin key; judge-time when called from one).
  [[nodiscard]] std::uint64_t state_digest() const;

  /// The harness's own mutable members: the crash record it maintains,
  /// the trace digest, and the view-install history.
  struct State {
    can::NodeSet crashed;
    std::vector<sim::Time> crash_time;  ///< by node id
    std::uint64_t trace_hash{kFnvOffset};
    std::vector<std::vector<ViewInstall>> installs;  ///< by node id
  };

  /// Every mutable member of every component.  Reuse one Checkpoint
  /// object per slot: checkpoint() copy-assigns into its storage, so a
  /// warm one allocates nothing.
  struct Checkpoint {
    sim::Engine::State engine;
    can::Bus::State bus;
    std::vector<Node::Checkpoint> nodes;
    FdaAgreementMonitor::State fda_mon;
    RhaAgreementMonitor::State rha_mon;
    ViewConsistencyMonitor::State view_mon;
    FailSilenceMonitor::State silence_mon;
    DetectionLatencyMonitor::State latency_mon;
    LoggingInjector::State injector;
    State harness;
  };
  void checkpoint(Checkpoint& out) const;
  /// Between runs only; the checkpoint must come from this universe.
  void restore(const Checkpoint& in);

 private:
  void on_tx(const can::TxRecord& rec);

  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  ScenarioConfig cfg_;
  sim::Arena& arena_;
  obs::Recorder* recorder_;
  sim::Engine engine_;
  can::BusConfig bus_cfg_;
  can::Bus bus_;
  State s_;
  LoggingInjector injector_;
  std::vector<Node*> nodes_;  // in arena_
  obs::Histogram* hist_detect_{nullptr};
  FdaAgreementMonitor fda_mon_;
  RhaAgreementMonitor rha_mon_;
  ViewConsistencyMonitor view_mon_;
  FailSilenceMonitor silence_mon_;
  DetectionLatencyMonitor latency_mon_;
  std::array<Monitor*, 5> monitors_;
  // Run inputs (set by arm()) and run control, not state.
  bool want_tx_log_{false};
  const RejoinTarget* rejoin_{nullptr};
  std::uint64_t stop_at_{kNever};
};

}  // namespace canely::check
