#pragma once
// Run-level campaign telemetry (DESIGN.md §11, docs/OBSERVABILITY.md).
//
// A second observability layer, one level up from the per-run Recorder:
// while obs::Recorder watches one simulated universe from the inside (sim
// time only), Telemetry watches the *campaign* from the outside — how
// fast the explorer is judging units, how much dedup and the prefix cache
// are saving, how long checkpoints take — and publishes periodic
// snapshots to a JSONL file (`canely-telemetry-1`) that tools/canely_top
// tails live.
//
// Design constraints, in order:
//  * The instrumented paths are the campaign hot paths.  Every update is
//    a relaxed atomic add into a cacheline-padded per-worker slot; no
//    locks, no allocation, no false sharing between workers.  A null
//    Telemetry* costs one branch (same convention as obs::Recorder).
//  * Telemetry must not perturb results.  Nothing here feeds back into a
//    run; campaign/checker outputs are byte-identical telemetry-on vs
//    -off (asserted by tests/test_telemetry.cpp at several --threads).
//  * Wall time enters ONLY through the socketcan::WallClock seam (PR 8):
//    src/obs sits in the determinism zone, so the sampler's clock use is
//    injected, mockable, and annotated as a deliberate nondeterminism
//    seam for canely_lint's whole-program escape analysis.
//
// Aggregation: a sampling thread wakes every `sample_period_ms`, sums the
// slots, and appends one self-contained JSON line per wake (single
// buffered write — concurrent tails never see a torn line).  Counters are
// cumulative and `seq` is strictly monotone, so a reader can compute
// rates from any two lines and resync after missing any number of them.
// `sample_period_ms == 0` disables the thread; tests drive `sample_now()`
// manually and get deterministic snapshot counts.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "campaign/runner.hpp"
#include "socketcan/realtime.hpp"

namespace canely::obs {

/// Campaign-level monotone counters.  The enumerators are the JSONL
/// field names (see `to_string`); canely_top derives progress, dedup %
/// and cache-hit % from them.
enum class TelemetryCounter : std::uint8_t {
  kRuns,          ///< checked runs executed through the campaign runner
  kUnitsJudged,   ///< explorer units resolved by simulation
  kDedupSkips,    ///< units resolved by equivalence-class inheritance
  kUnitsResumed,  ///< units restored from a resumed frontier file
  kPrefixHits,    ///< probe requests served from the prefix cache
  kPrefixMisses,  ///< probe requests that had to simulate
  kViolations,    ///< monitor violations recorded
  kShrinkSteps,   ///< shrink probes spent minimizing a counterexample
  kCheckpoints,   ///< frontier checkpoint files written
  kRejoined,      ///< judged units stopped on their base trajectory
  kCount
};

constexpr std::size_t kTelemetryCounters =
    static_cast<std::size_t>(TelemetryCounter::kCount);

[[nodiscard]] constexpr const char* to_string(TelemetryCounter c) {
  switch (c) {
    case TelemetryCounter::kRuns: return "runs";
    case TelemetryCounter::kUnitsJudged: return "units_judged";
    case TelemetryCounter::kDedupSkips: return "dedup_skips";
    case TelemetryCounter::kUnitsResumed: return "units_resumed";
    case TelemetryCounter::kPrefixHits: return "prefix_cache_hits";
    case TelemetryCounter::kPrefixMisses: return "prefix_cache_misses";
    case TelemetryCounter::kViolations: return "violations";
    case TelemetryCounter::kShrinkSteps: return "shrink_steps";
    case TelemetryCounter::kCheckpoints: return "checkpoints";
    case TelemetryCounter::kRejoined: return "rejoined";
    case TelemetryCounter::kCount: break;
  }
  return "?";
}

/// Campaign pipeline stages with per-stage duration histograms.
enum class TelemetryStage : std::uint8_t {
  kJudge,         ///< one checked run through the harness
  kReplay,        ///< prefix probe (tx log + judge-time samples)
  kHash,          ///< unit keying + record folding
  kCheckpointIo,  ///< frontier checkpoint serialization + rename
  kCount
};

constexpr std::size_t kTelemetryStages =
    static_cast<std::size_t>(TelemetryStage::kCount);

[[nodiscard]] constexpr const char* to_string(TelemetryStage s) {
  switch (s) {
    case TelemetryStage::kJudge: return "judge";
    case TelemetryStage::kReplay: return "replay";
    case TelemetryStage::kHash: return "hash";
    case TelemetryStage::kCheckpointIo: return "checkpoint_io";
    case TelemetryStage::kCount: break;
  }
  return "?";
}

/// Fixed microsecond bucket upper bounds shared by every stage histogram
/// (50 us .. 250 ms, roughly x2.2 steps, plus an overflow bucket): wide
/// enough for a sub-ms judge run and a multi-ms checkpoint alike, fixed
/// so snapshots from different shards are directly comparable.
inline constexpr std::array<std::uint64_t, 12> kStageBucketBoundsUs = {
    50,    100,   250,    500,    1000,   2500,
    5000, 10000, 25000, 50000, 100000, 250000};

/// The process-wide steady clock behind the WallClock seam (telemetry's
/// default when no clock is injected).  Lives in telemetry.cpp so the
/// clock tokens stay in one annotated place.
[[nodiscard]] socketcan::WallClock& default_wall_clock();

struct TelemetryConfig {
  std::string path;                     ///< JSONL sink (appended to)
  std::uint64_t sample_period_ms{500};  ///< 0 = manual sample_now() only
  std::string label{"explore"};         ///< workload tag shown by canely_top
  std::size_t shard_index{0};
  std::size_t shard_count{1};
  std::string frontier_path{};  ///< advertised so canely_top can tail it
  /// Injectable wall clock (tests); null = default_wall_clock().
  socketcan::WallClock* clock{nullptr};
};

/// The campaign telemetry service: lock-free per-worker counters, a
/// sampling thread, and an append-only JSONL snapshot stream.
class Telemetry final : public campaign::RunObserver {
 public:
  explicit Telemetry(TelemetryConfig cfg);
  ~Telemetry() override;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Relaxed atomic add into the calling worker's slot.
  void add(TelemetryCounter c, std::uint64_t delta = 1) {
    slot().counters[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Record one stage execution of `us` microseconds.
  void stage_us(TelemetryStage s, std::uint64_t us);

  // campaign::RunObserver: every runner-dispatched run counts as a judge.
  [[nodiscard]] std::uint64_t now_ns() override;
  void on_run_complete(std::uint64_t dur_ns) override;

  /// Total units the campaign will resolve (ETA hint; 0 = unknown).
  /// Safe to refine mid-run as depth-2 enumeration reveals the space.
  void set_total_units(std::uint64_t n) {
    total_units_.store(n, std::memory_order_relaxed);
  }

  /// Aggregate the slots and append one snapshot line now.  Returns
  /// false when the sink cannot be written (failure is also counted and
  /// reported in the next successful line as `dropped_lines`).
  bool sample_now();

  /// Cumulative value of one counter across all worker slots.
  [[nodiscard]] std::uint64_t counter(TelemetryCounter c) const;

  [[nodiscard]] const TelemetryConfig& config() const { return cfg_; }

 private:
  /// One worker's counter block, cacheline-aligned so concurrent workers
  /// never share a line.  Slots are summed at sample time; a thread that
  /// wraps past kMaxSlots shares a slot, which only merges its adds.
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kTelemetryCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>,
                          kStageBucketBoundsUs.size() + 1>,
               kTelemetryStages>
        stage_buckets{};
    std::array<std::atomic<std::uint64_t>, kTelemetryStages> stage_count{};
    std::array<std::atomic<std::uint64_t>, kTelemetryStages> stage_sum_us{};
  };
  static constexpr std::size_t kMaxSlots = 64;

  Slot& slot();
  void sampler_loop();
  [[nodiscard]] std::string snapshot_line();

  TelemetryConfig cfg_;
  socketcan::WallClock* clock_;  ///< never null after construction
  std::uint64_t start_ns_{0};
  std::array<Slot, kMaxSlots> slots_{};
  std::atomic<std::uint32_t> next_slot_{0};
  std::atomic<std::uint64_t> total_units_{0};

  // Writer state (sampling thread or manual sample_now callers).
  std::mutex writer_mu_;
  std::FILE* sink_{nullptr};
  std::uint64_t seq_{0};
  std::uint64_t dropped_lines_{0};

  // Sampler thread lifecycle.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_{false};
  std::thread sampler_;
};

/// Null-safe helpers: instrumented call sites cost one branch when
/// telemetry is off, mirroring the Recorder convention.
inline void telemetry_add(Telemetry* t, TelemetryCounter c,
                          std::uint64_t delta = 1) {
  if (t != nullptr) t->add(c, delta);
}

/// RAII stage timer: times the enclosed scope into `stage` when a
/// telemetry handle is present, does nothing otherwise.
class StageTimer {
 public:
  StageTimer(Telemetry* t, TelemetryStage stage) : t_{t}, stage_{stage} {
    if (t_ != nullptr) t0_ns_ = t_->now_ns();
  }
  ~StageTimer() {
    if (t_ != nullptr) {
      t_->stage_us(stage_, (t_->now_ns() - t0_ns_) / 1000);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Telemetry* t_;
  TelemetryStage stage_;
  std::uint64_t t0_ns_{0};
};

}  // namespace canely::obs
