#pragma once
// Systematic fault-space exploration.
//
// The explorer enumerates fault placements against a scenario and runs
// each through the checked harness, in parallel, with byte-identical
// aggregate output for any thread count (the campaign runner's
// determinism contract: each run is a pure function of its placement,
// and results are collected by index).
//
// One engine, four unit sources.  Every placement is a *unit* with
// shard-computable coordinates (u, j), pushed in coordinate order:
//
//  * Depth-1 sweep: a probe run maps the fault-free attempt timeline;
//    unit (u, 0) is placement u of (attempt within the fault window) x
//    (non-empty victim subset of its receivers) x (sender crashes before
//    retransmission, or not).  With FDA enabled this space must be
//    violation free — the checker's reproduction of the paper's
//    §6.1/§6.2 claim.
//  * Exhaustive depth 2 (`exhaustive`): bases are the depth-1
//    placements; base u's probe run exposes the attempts after it, and
//    unit (u, j) adds second fault j on one of them (every in-window
//    attempt, capped by depth2_targets, both crash flags).
//  * Targeted depth 2 (depth 2 without `exhaustive`, for ablations):
//    second faults land on frames that only exist *because of* the first
//    — the FDA failure-signs a crashing base provokes.  Bases are
//    singleton-victim crash placements, life-sign attempts first; seconds
//    are crash-only, on up to depth2_targets post-base FDA attempts.  The
//    search stops after the first base whose units violate (lowest base,
//    lowest unit — deterministic for any thread count).  That unit space
//    depends on verdicts, so it cannot be sharded: explore() throws
//    std::invalid_argument for shard_count > 1.
//  * Random walks (`random_walks`), after the enumerated space: walk w
//    is unit (u0 + w, 0), u0 past every base, drawn from per-walk forked
//    seeds (campaign::fork_seed(seed, units before it + w)) so it is
//    reproducible in isolation.  Its key is its script's hash; it has no
//    base, so it never shares a state-keyed class and never rejoins.  A
//    shard does not know the units before the walks, so walks are not
//    sharded either (std::invalid_argument).
//
// Every source runs through the same machinery:
//
//  * Equivalence dedup (`dedup`): each unit is keyed by the canonical
//    state hash at the judge-time of the attempt its (last) fault
//    targets, combined with the fault itself.  Equal key means equal
//    post-injection evolution (the harness is deterministic and monitors
//    render verdicts only in finish()), so only the first unit of a class
//    is simulated; the rest inherit its verdict as dedup skips.
//  * Rejoin (with dedup): a simulated unit stops at the first attempt
//    after its last fault that starts at the instant of one of its base
//    probe's post-script samples, if the crash set and the canonical
//    state hash match there — same state, no fault left to fire, so the
//    same continuation — and inherits the probe's verdict
//    (RejoinTarget).  In CANELy's join phase most omissions are absorbed
//    by the idle gap before join_wait, so about half of the simulated
//    units rejoin there.
//  * Sampling on demand: a state digest costs ~20 µs at n = 10, so a
//    probe hashes only the attempts its source keys units on, plus, with
//    dedup, the post-script instants a unit may rejoin at
//    (RunOptions::sample_at).  Keys do not depend on dedup on/off.
//  * Prefix-replay caching: all units of a base share the base's probe
//    run (tx log + judge-time samples + verdict).  Probes live in an LRU
//    PrefixCache and are computed once per base instead of once per
//    placement — the dominant saving over naive re-run-from-zero.
//  * Restore, don't rebuild: each worker keeps one check::Universe
//    (universe.hpp) and its t = 0 checkpoint.  A chunk's simulated units
//    are grouped into tasks — consecutive units sharing a base and the
//    attempt k their last fault targets, at most 32 — and a task runs
//    the base script once to the event boundary after attempt k - 1,
//    checkpoints there, and starts every unit from that checkpoint: the
//    unit simulates neither the shared prefix nor a universe build.
//    Walks start from the t = 0 checkpoint.  Task boundaries depend only
//    on the unit list, so prefix_runs and attempts_skipped are exact.
//  * Sharding + frontier: shard i of N owns units with u % N == i; a
//    frontier file checkpoints verdict records every `checkpoint_every`
//    units (atomic rename), supports resume after a kill, and merges
//    with the other shards into a file byte-identical to an unsharded
//    run's (check/frontier.hpp).
//
// The aggregate is an order-sensitive fold over the verdict records
// (fold_record), taken as each unit settles, invariant across thread
// count, shard split, dedup on/off and the frontier/stop hooks.  Records
// themselves are kept only when a frontier file is written.

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_script.hpp"
#include "check/harness.hpp"

namespace canely::obs {
class Telemetry;
}  // namespace canely::obs

namespace canely::check {

struct ExploreConfig {
  ScenarioConfig scenario{ScenarioConfig::membership()};
  std::size_t threads{0};       ///< 0 = hardware concurrency (repo-wide
                                ///< convention, same as campaign::Runner)
  std::uint64_t seed{42};       ///< master seed for random walks
  int depth{1};                 ///< 1 = exhaustive single fault, 2 = targeted
                                ///< (or exhaustive, see below)
  /// Seeded multi-fault scripts run after the enumerated space, one unit
  /// each (see header comment); unshardable.
  std::size_t random_walks{0};

  // Budget caps (0 = unlimited).  Capped explorations report what they
  // dropped via the dropped_* counters and mark the result partial.
  std::size_t max_frames{0};       ///< attempts targeted (depth 1)
  std::size_t max_victim_sets{0};  ///< victim subsets per attempt
  std::size_t max_bases{0};        ///< depth 2: cap bases examined (0 = all)
  std::size_t depth2_targets{6};   ///< depth 2: new attempts per base

  /// Only attempts starting before this are targeted, so consequences
  /// surface inside the run.  zero() = duration - expel_grace - settle.
  sim::Time fault_window{sim::Time::zero()};

  // -- exploration at scale (see header comment) ---------------------------

  /// Depth 2: the full base x second cross product (bases = every depth-1
  /// placement, seconds on every post-base in-window attempt, both crash
  /// flags) with no early stop — shardable.  Off: the targeted search.
  bool exhaustive{false};
  /// Skip units whose equivalence class has already been simulated, and
  /// stop simulated units that rejoin their base trajectory.
  bool dedup{false};
  /// This shard owns units with u % shard_count == shard_index.
  std::size_t shard_index{0};
  std::size_t shard_count{1};
  /// Persistent frontier file: checkpointed during the run, resumed from
  /// when it already exists, final on completion.  Empty = none.
  std::string frontier_path{};
  /// Units per processing chunk (= frontier checkpoint interval).
  std::size_t checkpoint_every{16};
  /// Also checkpoint the frontier once this much wall time has elapsed
  /// since the last write, so slow cells (deep scenarios, few units per
  /// second) still leave resumable state behind.  0 = unit-count trigger
  /// only.  Wall time comes from the telemetry handle's clock when one is
  /// attached, else obs::default_wall_clock(); frontier *content* stays a
  /// pure function of the records either way.
  double checkpoint_secs{0};
  /// Live campaign telemetry (non-owning, may be null).  Purely
  /// observational — campaign output is byte-identical with it on or off.
  obs::Telemetry* telemetry{nullptr};
  /// Test hook: stop (checkpoint, complete=false) once this many units
  /// are done.  0 = run to completion.
  std::size_t stop_after_units{0};
  /// LRU capacity of the prefix-replay cache (probe runs retained).
  std::size_t prefix_cache_cells{64};
  /// Tripwire: re-execute every k-th dedup skip and compare its verdict
  /// against the class representative's, run every k-th rejoined unit to
  /// full length and compare it against its base probe's, and re-run
  /// every k-th unit simulated from a checkpoint in a fresh universe and
  /// compare verdict, rejoin, trace digest and attempt count (0 = off).
  /// Mismatches count in ExploreResult::dedup_mismatches — any nonzero
  /// value means the state hash, or a restore, missed behavior-
  /// determining state.
  std::size_t dedup_verify_every{0};
  /// Bench comparator (perf_core `check_explore_naive`): cost out the
  /// naive re-run-from-zero strategy — every unit re-simulates every
  /// proper prefix of its script from t=0 (the tx-log probes a stateless
  /// worker needs to locate each fault's target attempt) before running
  /// the unit itself, nothing is shared across units, and dedup is
  /// ignored.  Units run in fresh universes, never from a checkpoint.
  /// Records and aggregate stay byte-identical to the scale engine's;
  /// only the cost differs.
  bool naive_rerun{false};
};

struct FoundViolation {
  std::size_t run_index{};  ///< position in the deterministic run order
  FaultScript script;
  Violation violation;      ///< first violation of that run
};

struct ExploreResult {
  std::size_t placements{0};        ///< enumerated placements executed
  std::size_t runs{0};              ///< total checked runs (incl. probes)
  std::size_t frames_in_window{0};  ///< attempts eligible for targeting
  std::size_t frames_targeted{0};   ///< attempts actually targeted
  std::vector<FoundViolation> violations;  ///< in run order
  std::uint64_t aggregate_hash{0};  ///< fold_record over every unit's
                                    ///< record, in unit order — the
                                    ///< thread-invariance anchor

  // -- engine accounting -----------------------------------------------------
  std::size_t probe_runs{0};         ///< prefix probes executed
  std::size_t prefix_cache_hits{0};  ///< probes served from the cache
  std::size_t dedup_classes{0};      ///< distinct equivalence classes
  std::size_t dedup_skips{0};        ///< units resolved without simulation
  std::size_t rejoined{0};  ///< simulated units stopped on their base
                            ///< trajectory (verdict inherited)
  std::size_t prefix_runs{0};  ///< task prefix simulations (not runs)
  std::size_t attempts_skipped{0};  ///< sum of the boundary attempt k over
                                    ///< units run from a checkpoint
  std::size_t dedup_verified{0};     ///< tripwire re-executions
  std::size_t dedup_mismatches{0};   ///< tripwire disagreements (expect 0)
  std::size_t dropped_frames{0};     ///< in-window attempts over max_frames
  std::size_t dropped_victim_sets{0};///< subsets over max_victim_sets
  std::size_t dropped_bases{0};      ///< depth-2 bases over max_bases
  std::size_t dropped_targets{0};    ///< depth-2 seconds over depth2_targets
  bool partial{false};   ///< any budget cap truncated the space
  bool resumed{false};   ///< continued from an existing frontier file
};

/// Throws std::invalid_argument for a sharded targeted search or sharded
/// walks (their unit spaces are not shard-computable), and
/// std::runtime_error when a frontier file cannot be written.
[[nodiscard]] ExploreResult explore(const ExploreConfig& cfg);

}  // namespace canely::check
