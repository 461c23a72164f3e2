#include "check/explore.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "campaign/annotations.hpp"
#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "canely/mid.hpp"
#include "check/frontier.hpp"
#include "check/prefix_cache.hpp"
#include "check/universe.hpp"
#include "obs/telemetry.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"

namespace canely::check {
namespace {

/// Per-run outcome, reduced to what a record (and the tripwire) needs.
/// Default-constructible placeholder for the campaign runner's result
/// slots.
struct Cell {
  bool violated{false};
  bool rejoined{false};  ///< stopped on its base trajectory
  Violation first;
  std::uint64_t trace_hash{0};
  std::uint64_t attempts{0};
};

Cell cell_of(const RunResult& r) {
  Cell c;
  c.rejoined = r.rejoined;
  c.trace_hash = r.trace_hash;
  c.attempts = r.attempts;
  if (!r.violations.empty()) {
    c.violated = true;
    c.first = r.violations.front();
  }
  return c;
}

bool same_violation(const Violation& a, const Violation& b) {
  return a.monitor == b.monitor && a.when == b.when && a.detail == b.detail;
}

Cell run_cell(const ScenarioConfig& scenario, const FaultScript& script,
              const RejoinTarget* rejoin = nullptr) {
  RunOptions opts;
  opts.rejoin = rejoin;
  return cell_of(run_checked(scenario, script, opts));
}

/// One explorer worker's reusable universe: its node storage, the
/// universe, its t = 0 checkpoint, and the checkpoint at the current
/// task's boundary.  Workers are pooled, not bound to threads: a task
/// takes one for its duration, so the campaign runner's threads (which
/// come and go with every chunk) never share a universe.
struct Worker {
  sim::Arena arena;
  Universe universe;  // after arena: its destructor resets the arena
  Universe::Checkpoint origin;
  Universe::Checkpoint boundary;

  explicit Worker(const ScenarioConfig& scenario)
      : universe{scenario, arena} {
    universe.checkpoint(origin);
  }
};

class WorkerPool {
 public:
  explicit WorkerPool(const ScenarioConfig& scenario) : scenario_{scenario} {}

  /// An idle worker, or a new one (built outside the lock).
  std::unique_ptr<Worker> acquire() {
    {
      const campaign::MutexLock lock{mu_};
      if (!idle_.empty()) {
        std::unique_ptr<Worker> w = std::move(idle_.back());
        idle_.pop_back();
        return w;
      }
    }
    return std::make_unique<Worker>(scenario_);
  }

  void release(std::unique_ptr<Worker> w) {
    const campaign::MutexLock lock{mu_};
    idle_.push_back(std::move(w));
  }

 private:
  const ScenarioConfig& scenario_;
  campaign::Mutex mu_;
  std::vector<std::unique_ptr<Worker>> idle_ CANELY_GUARDED_BY(mu_);
};

/// Units per task: a task pays one prefix run for up to this many units,
/// and tasks are what the campaign runner spreads across threads.  The
/// largest cap measured without a loss at two threads; larger caps
/// unbalance four (EXPERIMENTS.md, "task cap").
constexpr std::size_t kTaskUnits = 32;

/// The ascending list of member ids of `set` (mask bit i of a victim-
/// subset index maps to the i-th receiver in id order).
std::vector<can::NodeId> members(can::NodeSet set) {
  std::vector<can::NodeId> out;
  for (can::NodeId id : set) out.push_back(id);
  return out;
}

can::NodeSet subset_from_mask(const std::vector<can::NodeId>& pool,
                              std::uint64_t mask) {
  can::NodeSet set;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if ((mask >> i) & 1) set.insert(pool[i]);
  }
  return set;
}

/// Hand `emit` one omission of `entry` per non-empty victim subset of its
/// receivers, in mask order (capped at `max_sets`, the overflow counted
/// into `dropped`), once per sender-crash flag in `crashes`.
template <typename Emit>
void for_each_omission(const TxLogEntry& entry, std::size_t max_sets,
                       std::span<const bool> crashes, std::size_t& dropped,
                       Emit&& emit) {
  const std::vector<can::NodeId> pool = members(entry.receivers);
  const std::uint64_t subsets = (1ULL << pool.size()) - 1;
  for (std::uint64_t mask = 1; mask <= subsets; ++mask) {
    if (max_sets != 0 && mask > max_sets) {
      dropped += static_cast<std::size_t>(subsets - mask + 1);
      return;
    }
    for (const bool crash : crashes) {
      emit(FaultEvent{entry.tx_index, FaultOp::kOmit,
                      subset_from_mask(pool, mask), crash});
    }
  }
}

constexpr std::array<bool, 2> kBothCrashFlags{false, true};
/// The inconsistent-message-omission arm only: the sender crashes.
constexpr std::array<bool, 1> kCrashOnly{true};

constexpr auto kEls = static_cast<std::uint8_t>(MsgType::kEls);
constexpr auto kFda = static_cast<std::uint8_t>(MsgType::kFda);

FaultScript random_script(sim::Rng& rng,
                          std::span<const TxLogEntry> window) {
  FaultScript script;
  const std::size_t n_events = 1 + rng.below(3);
  for (std::size_t e = 0; e < n_events; ++e) {
    const TxLogEntry& entry = window[rng.below(window.size())];
    FaultEvent ev;
    ev.tx = entry.tx_index;
    ev.crash_sender = rng.below(2) == 1;
    if (rng.below(8) == 0) {
      ev.op = FaultOp::kError;
    } else {
      ev.op = FaultOp::kOmit;
      const std::vector<can::NodeId> pool = members(entry.receivers);
      if (pool.empty()) continue;
      can::NodeSet victims;
      for (can::NodeId id : pool) {
        if (rng.below(2) == 1) victims.insert(id);
      }
      if (victims.empty()) victims.insert(pool[rng.below(pool.size())]);
      ev.victims = victims;
    }
    script.push_back(ev);
  }
  return script;
}

/// Judge-time state hash of the attempt `tx`, from a probe's samples
/// (sorted by tx order).  Probes sample every attempt their units target,
/// so the sample exists; a sentinel keeps a missing one deterministic
/// anyway.
std::uint64_t sample_state(std::span<const StateSample> samples,
                           std::uint64_t tx) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), tx,
      [](const StateSample& s, std::uint64_t t) { return s.tx_index < t; });
  if (it == samples.end() || it->tx_index != tx) return 0;
  return it->state_hash;
}

/// Equivalence-class key of a unit: the canonical universe state at the
/// judge-time of the attempt its last fault targets, combined with that
/// fault's action.  The target's tx index itself is deliberately absent:
/// the index only selects *when* the script fires, and once it has fired
/// (the script is exhausted) the index never influences the run again —
/// equal state plus equal action means equal continuation.
std::uint64_t unit_key(std::uint64_t state, const FaultEvent& last) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, state);
  h = fnv1a(h, last.victims.bits());
  h = fnv1a(h, static_cast<std::uint64_t>(last.op));
  h = fnv1a(h, last.crash_sender ? 1 : 0);
  return h;
}

/// One enumerated unit: shard-computable coordinates, class key, the
/// full fault script that executes it, and the probe of its base (the
/// trajectory it may rejoin; a prefix cache slot, which with dedup on
/// stays cached while the unit is pending — with dedup off only its
/// presence is read).  Random walks have no base: they are always
/// simulated, to the end.
struct Unit {
  std::uint64_t u{};
  std::uint64_t j{};
  std::uint64_t key{};
  FaultScript script;
  const PrefixProbe* base{nullptr};

  /// Attempts a restored run skips: the attempt its last fault targets
  /// (the rest of its script is its base's, all earlier).  Walks have no
  /// base and start from t = 0.
  [[nodiscard]] std::uint64_t boundary() const {
    return base != nullptr ? script.back().tx : 0;
  }
};

/// Consecutive units sharing a base and a boundary attempt, run from one
/// checkpoint.
struct Task {
  std::size_t first{0};
  std::size_t count{0};
  std::uint64_t boundary{0};
};

struct ClassOutcome {
  bool violated{false};
  Violation first;
};

/// The exploration engine (see explore.hpp header comment).  Unit sources
/// push units in (u, j) order; chunks of them are keyed sequentially,
/// executed in parallel (class representatives only when dedup is on),
/// and settled into the aggregate in unit order — and into frontier
/// records, checkpointed, when a frontier file is kept.
class RecordExplorer {
 public:
  explicit RecordExplorer(const ExploreConfig& cfg)
      : cfg_{cfg},
        tel_{cfg.telemetry},
        dedup_{cfg.dedup && !cfg.naive_rerun},
        keep_records_{!cfg.frontier_path.empty()},
        targeted_{cfg.depth >= 2 && !cfg.exhaustive},
        shard_count_{cfg.shard_count == 0 ? 1 : cfg.shard_count},
        window_end_{cfg.fault_window > sim::Time::zero()
                        ? cfg.fault_window
                        : cfg.scenario.duration - cfg.scenario.expel_grace() -
                              cfg.scenario.settle},
        cache_{cfg.prefix_cache_cells},
        pool_{cfg.scenario} {
    if (cfg_.checkpoint_secs > 0 && keep_records_) {
      checkpoint_period_ns_ = static_cast<std::uint64_t>(
          cfg_.checkpoint_secs * 1'000'000'000.0);
      last_checkpoint_ns_ = wall_ns();
    }
  }

  ExploreResult run() {
    fingerprint_ = fingerprint();
    resume();

    // Fault-free probe: the attempt timeline every source enumerates
    // from.  Only the depth-1 sweep keys (and rejoins) on its samples.
    std::function<bool(const TxLogEntry&)> in_window;
    if (cfg_.depth <= 1) {
      in_window = [this](const TxLogEntry& e) { return e.start < window_end_; };
    }
    const PrefixProbe* base0 = probe(FaultScript{}, in_window);
    std::vector<TxLogEntry> window;  // walks draw from all of it
    for (const TxLogEntry& e : base0->tx_log) {
      if (e.start < window_end_ && !e.receivers.empty()) window.push_back(e);
    }
    result_.frames_in_window = window.size();
    std::span<const TxLogEntry> targeted{window};
    if (cfg_.max_frames != 0 && window.size() > cfg_.max_frames) {
      result_.dropped_frames = window.size() - cfg_.max_frames;
      targeted = targeted.first(cfg_.max_frames);
      result_.partial = true;
    }
    result_.frames_targeted = targeted.size();

    // The depth-1 placement enumeration doubles as the exhaustive
    // depth-2 base list; the targeted search picks its own bases.
    std::vector<FaultScript> bases =
        targeted_ ? targeted_bases(targeted) : placements(targeted);

    if (cfg_.depth >= 2 && cfg_.max_bases != 0 &&
        bases.size() > cfg_.max_bases) {
      result_.dropped_bases = bases.size() - cfg_.max_bases;
      bases.resize(cfg_.max_bases);
      result_.partial = true;
    }
    std::uint64_t mine = 0;
    for (std::uint64_t u = 0; u < bases.size(); ++u) {
      if (u % shard_count_ == cfg_.shard_index) ++mine;
    }
    std::uint64_t done = 0;
    for (std::uint64_t u = 0; u < bases.size() && !stopped_; ++u) {
      if (u % shard_count_ != cfg_.shard_index) continue;
      const std::size_t found = result_.violations.size();
      if (cfg_.depth <= 1) {
        const FaultEvent& ev = bases[u].front();
        const std::uint64_t state =
            sample_state(base0->trajectory.samples, ev.tx);
        push_unit(Unit{u, 0, unit_key(state, ev), bases[u], base0});
      } else {
        process_base(u, bases[u]);
      }
      // ETA hint: exact at depth 1 (one unit per owned placement); depth
      // 2 reveals its space base by base, so extrapolate the average.
      if (tel_ != nullptr) {
        tel_->set_total_units(enumerated_ * mine / ++done + cfg_.random_walks);
      }
      if (targeted_) {
        // Early stop: the first base whose units violate ends the
        // search (the lowest base, for any thread count).
        flush();
        if (result_.violations.size() > found) break;
      }
    }
    walk(window, bases.size());
    if (result_.dropped_victim_sets != 0) result_.partial = true;

    flush();
    if (keep_records_) write_checkpoint(/*complete=*/!stopped_);

    result_.placements = settled_;
    result_.aggregate_hash = aggregate_;
    result_.dedup_classes = classes_.size();
    result_.prefix_cache_hits = cache_.stats().hits;
    return std::move(result_);
  }

 private:
  std::uint64_t fingerprint() const {
    const ScenarioConfig& s = cfg_.scenario;
    std::uint64_t h = kFnvOffset;
    // Unit keys are state digests: a frontier keyed under another digest
    // scheme must not be resumed into this one.
    h = fnv1a(h, sim::kStateDigestVersion);
    h = fnv1a(h, s.n);
    h = fnv1a(h, s.clustering ? 1 : 0);
    h = fnv1a(h, s.params.fda_agreement ? 1 : 0);
    h = fnv1a(h, s.params.skip_idle_cycles ? 1 : 0);
    h = fnv1a(h, static_cast<std::uint64_t>(s.params.omission_degree_k));
    h = fnv1a(h, static_cast<std::uint64_t>(s.params.inconsistent_degree_j));
    for (const sim::Time t :
         {s.params.heartbeat_period, s.params.tx_delay_bound,
          s.params.membership_cycle, s.params.rha_timeout,
          s.params.join_wait, s.params.fd_skew_quantum, s.duration,
          s.settle, s.latency_margin, window_end_}) {
      h = fnv1a(h, static_cast<std::uint64_t>(t.to_ns()));
    }
    h = fnv1a(h, static_cast<std::uint64_t>(cfg_.depth));
    h = fnv1a(h, cfg_.exhaustive ? 1 : 0);
    h = fnv1a(h, cfg_.max_frames);
    h = fnv1a(h, cfg_.max_victim_sets);
    h = fnv1a(h, cfg_.max_bases);
    h = fnv1a(h, cfg_.depth2_targets);
    if (cfg_.random_walks != 0) {  // walk-free fingerprints stay as they were
      h = fnv1a(h, cfg_.random_walks);
      h = fnv1a(h, cfg_.seed);
    }
    return h;
  }

  /// Load the records of an earlier run of this exploration; push_unit
  /// settles them again, in order, instead of re-running their units.
  void resume() {
    if (!keep_records_) return;
    FrontierFile prior;
    try {
      prior = load_frontier(cfg_.frontier_path);
    } catch (const std::exception&) {
      return;  // no usable frontier: start fresh
    }
    if (prior.fingerprint != fingerprint_ ||
        prior.shard_index != cfg_.shard_index ||
        prior.shard_count != shard_count_) {
      return;  // different exploration: start fresh, overwrite on write
    }
    records_ = std::move(prior.records);
    resume_cursor_ = records_.size();
    result_.resumed = true;
    obs::telemetry_add(tel_, obs::TelemetryCounter::kUnitsResumed,
                       records_.size());
  }

  /// Depth-1 placements over the targeted attempts: every victim subset,
  /// with and without a sender crash.
  std::vector<FaultScript> placements(std::span<const TxLogEntry> targeted) {
    std::vector<FaultScript> out;
    for (const TxLogEntry& entry : targeted) {
      for_each_omission(entry, cfg_.max_victim_sets, kBothCrashFlags,
                        result_.dropped_victim_sets,
                        [&](const FaultEvent& ev) { out.push_back({ev}); });
    }
    return out;
  }

  /// The targeted search's bases: singleton-victim omissions with a
  /// sender crash, life-sign attempts first (an omitted ELS skews the
  /// victim's surveillance timer a whole Th early, the precondition of
  /// the inconsistent-message-omission counterexample), then the rest;
  /// attempt ascending, victim ascending within each group.
  static std::vector<FaultScript> targeted_bases(
      std::span<const TxLogEntry> targeted) {
    std::vector<FaultScript> out;
    for (const bool els_pass : {true, false}) {
      for (const TxLogEntry& entry : targeted) {
        if ((entry.msg_type == kEls) != els_pass) continue;
        for (can::NodeId victim : entry.receivers) {
          out.push_back({FaultEvent{entry.tx_index, FaultOp::kOmit,
                                    can::NodeSet{victim}, true}});
        }
      }
    }
    return out;
  }

  /// Probe run for a prefix script, via the LRU cache, sampling the
  /// attempts `sample_at` picks.  The returned view stays valid until the
  /// next probe of a *different* prefix at cache capacity — callers
  /// consume it before probing anything else.
  const PrefixProbe* probe(const FaultScript& prefix,
                           std::function<bool(const TxLogEntry&)> sample_at) {
    const std::uint64_t key = hash_script(prefix);
    if (const PrefixProbe* hit = cache_.find(key)) {
      obs::telemetry_add(tel_, obs::TelemetryCounter::kPrefixHits);
      return hit;
    }
    obs::telemetry_add(tel_, obs::TelemetryCounter::kPrefixMisses);
    obs::telemetry_add(tel_, obs::TelemetryCounter::kRuns);
    // Pending units view their base's slot: resolve them before the
    // insert below evicts it (only a cache smaller than the bases of one
    // chunk gets here; records are chunk-size invariant).
    if (const PrefixProbe* victim = cache_.next_eviction();
        victim != nullptr && dedup_ &&
        std::any_of(pending_.begin(), pending_.end(),
                    [&](const Unit& u) { return u.base == victim; })) {
      flush();
    }
    RunOptions opts;
    opts.want_tx_log = true;
    opts.sample_at = std::move(sample_at);
    const obs::StageTimer timer{tel_, obs::TelemetryStage::kReplay};
    std::unique_ptr<Worker> w = pool_.acquire();
    w->universe.restore(w->origin);
    w->universe.arm(prefix, opts);
    const RunResult r = w->universe.finish();
    pool_.release(std::move(w));
    ++result_.runs;
    ++result_.probe_runs;
    return cache_.insert(key, r.tx_log, r.samples, r.violations,
                         script_end(prefix));
  }

  /// Probe one depth-2 base and push its second-fault units in (target,
  /// victim mask, crash) order.  Targets are the post-base attempts with
  /// receivers — in the fault window (exhaustive), or the FDA
  /// failure-signs the base's crash provokes (targeted; crash-only
  /// seconds) — up to depth2_targets.  The probe samples exactly those,
  /// plus, with dedup, every post-script in-window attempt a unit may
  /// rejoin at.
  void process_base(std::uint64_t u, const FaultScript& base) {
    const std::uint64_t base_tx = base.back().tx;
    const std::size_t cap = cfg_.depth2_targets;
    const auto candidate = [&](const TxLogEntry& e) {
      return e.tx_index > base_tx && !e.receivers.empty() &&
             (targeted_ ? e.msg_type == kFda : e.start < window_end_);
    };
    std::size_t seen = 0;
    const PrefixProbe* p = probe(base, [&](const TxLogEntry& e) {
      const bool target = candidate(e) && (cap == 0 || seen++ < cap);
      return target ||
             (dedup_ && e.tx_index > base_tx && e.start < window_end_);
    });
    std::vector<const TxLogEntry*> targets;
    for (const TxLogEntry& e : p->tx_log) {
      if (!candidate(e)) continue;
      if (cap != 0 && targets.size() >= cap) {
        ++result_.dropped_targets;
        result_.partial = true;
        continue;
      }
      targets.push_back(&e);
    }
    std::uint64_t j = 0;
    for (const TxLogEntry* target : targets) {
      if (stopped_) return;
      const std::uint64_t state =
          sample_state(p->trajectory.samples, target->tx_index);
      for_each_omission(
          *target, cfg_.max_victim_sets,
          targeted_ ? std::span<const bool>{kCrashOnly}
                    : std::span<const bool>{kBothCrashFlags},
          result_.dropped_victim_sets, [&](const FaultEvent& second) {
            FaultScript script = base;
            script.push_back(second);
            push_unit(Unit{u, j++, unit_key(state, second), std::move(script),
                           p});
          });
    }
  }

  /// Seeded random walks after the enumerated space: walk w is unit
  /// (u0 + w, 0), drawn from fork_seed(seed, units before it + w) so it
  /// reproduces in isolation, keyed by its script's hash.  A walk has no
  /// base probe: it never shares a state-keyed class and never rejoins.
  void walk(std::span<const TxLogEntry> window, std::uint64_t u0) {
    if (window.empty()) return;
    const std::uint64_t before = enumerated_;
    for (std::uint64_t w = 0; w < cfg_.random_walks && !stopped_; ++w) {
      sim::Rng rng{campaign::fork_seed(cfg_.seed, before + w)};
      FaultScript script = random_script(rng, window);
      const std::uint64_t key = hash_script(script);
      push_unit(Unit{u0 + w, 0, key, std::move(script), nullptr});
    }
  }

  void push_unit(Unit unit) {
    if (stopped_) return;
    if (enumerated_ < resume_cursor_) {
      // Settled by the resumed run: replay its record.
      const FrontierRecord& rec = records_[enumerated_++];
      if (dedup_ && unit.base != nullptr) {
        classes_.emplace(rec.key, ClassOutcome{rec.violated, rec.violation});
      }
      settle(rec);
      return;
    }
    ++enumerated_;
    pending_.push_back(std::move(unit));
    if (pending_.size() >= chunk_size()) flush();
  }

  [[nodiscard]] std::size_t chunk_size() const {
    // The chunk is the checkpoint granularity, and each chunk pays one
    // campaign-runner spin-up.  When nothing consumes checkpoints (no
    // frontier file, no stop hook) nothing caps the chunk, so take big
    // batches for parallel efficiency — record content is chunk-size
    // invariant (keying is sequential in unit order either way).
    if (!keep_records_ && cfg_.stop_after_units == 0) return 1024;
    const std::size_t every =
        cfg_.checkpoint_every == 0 ? 16 : cfg_.checkpoint_every;
    if (checkpoint_period_ns_ != 0) {
      // Time-based checkpointing needs frequent flush boundaries to poll
      // the clock at; one parallel batch per flush keeps workers busy.
      const std::size_t threads = cfg_.threads == 0
                                      ? std::thread::hardware_concurrency()
                                      : cfg_.threads;
      return std::max<std::size_t>(1, std::min(every, threads));
    }
    return every;
  }

  /// Execute `units` through the campaign runner (index-slotted results:
  /// settle order is unit order for any thread count).  With
  /// `naive_rerun` every unit runs in a fresh universe after first
  /// re-simulating every proper prefix of its script from t=0 (tx log
  /// only, result discarded) — the probes a stateless re-run-from-zero
  /// explorer pays to locate each fault's target attempt before it can
  /// run the placement itself.  Otherwise units run as tasks
  /// (group_tasks) on pooled universes restored from checkpoints.  With
  /// dedup on, a unit with a base may stop where it rejoins the base's
  /// trajectory (RejoinTarget) — dedup's soundness argument.
  std::vector<Cell> run_units(const std::vector<const Unit*>& units) {
    if (cfg_.naive_rerun) {
      return run_batch<Cell>(units.size(), [&](std::size_t i) {
        const Unit& unit = *units[i];
        FaultScript prefix;
        RunOptions opts;
        opts.want_tx_log = true;
        for (const FaultEvent& ev : unit.script) {
          (void)run_checked(cfg_.scenario, prefix, opts);
          prefix.push_back(ev);
        }
        return run_cell(cfg_.scenario, unit.script);
      });
    }
    const std::vector<Task> tasks = group_tasks(units);
    for (const Task& task : tasks) {
      if (task.boundary != 0) ++result_.prefix_runs;
      result_.attempts_skipped += task.boundary * task.count;
    }
    // A task is not a checked run: run_task counts and times its units.
    const std::vector<std::vector<Cell>> done = run_batch<std::vector<Cell>>(
        tasks.size(),
        [&](std::size_t t) { return run_task(tasks[t], units); },
        /*observe=*/false);
    std::vector<Cell> cells;
    cells.reserve(units.size());
    for (const std::vector<Cell>& part : done) {
      cells.insert(cells.end(), part.begin(), part.end());
    }
    return cells;
  }

  /// `count` runs of `fn(index)` through the campaign runner, results in
  /// index order for any thread count.  With `observe`, telemetry counts
  /// each job as one checked run and times it as a judge.
  template <typename T, typename Fn>
  std::vector<T> run_batch(std::size_t count, Fn&& fn, bool observe = true) {
    campaign::Grid grid;
    std::vector<double> axis(count);
    for (std::size_t i = 0; i < axis.size(); ++i) {
      axis[i] = static_cast<double>(i);
    }
    grid.axis("placement", std::move(axis)).repeats(1).master_seed(cfg_.seed);
    campaign::Runner runner{cfg_.threads};
    if (observe) runner.set_observer(tel_);  // runs + judge times; null ok
    auto outcome = runner.run<T>(
        grid, [&](const campaign::RunSpec& spec) { return fn(spec.index); });
    return std::move(outcome.results);
  }

  /// Split `units` into tasks: maximal runs of consecutive units sharing
  /// a boundary attempt and, past t = 0, a base script, at most
  /// kTaskUnits each.  A pure function of the unit list — never of the
  /// thread count.  The base is compared by script, not by probe: with
  /// dedup off a pending unit's probe slot may already hold another base.
  static std::vector<Task> group_tasks(const std::vector<const Unit*>& units) {
    const auto same_base = [](const Unit& a, const Unit& b) {
      return std::equal(a.script.begin(), a.script.end() - 1,
                        b.script.begin(), b.script.end() - 1);
    };
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < units.size(); ++i) {
      const Unit& unit = *units[i];
      if (!tasks.empty()) {
        Task& last = tasks.back();
        const Unit& head = *units[last.first];
        if (last.count < kTaskUnits && last.boundary == unit.boundary() &&
            (last.boundary == 0 || same_base(head, unit))) {
          ++last.count;
          continue;
        }
      }
      tasks.push_back(Task{i, 1, unit.boundary()});
    }
    return tasks;
  }

  /// Run one task on a pooled universe: restore t = 0; with a boundary
  /// k > 0, simulate the base script to the event boundary after attempt
  /// k - 1 and checkpoint there; then run each unit from that checkpoint
  /// with its full script armed (universe.hpp: the continuation is
  /// exact).
  std::vector<Cell> run_task(const Task& task,
                             const std::vector<const Unit*>& units) {
    std::unique_ptr<Worker> w = pool_.acquire();
    Universe& universe = w->universe;
    const Universe::Checkpoint* start = &w->origin;
    if (task.boundary != 0) {
      const FaultScript& script = units[task.first]->script;
      const FaultScript base(script.begin(), script.end() - 1);
      const obs::StageTimer timer{tel_, obs::TelemetryStage::kReplay};
      universe.restore(w->origin);
      universe.arm(base, RunOptions{});
      if (!universe.run_to_attempt(task.boundary)) {
        throw std::logic_error("explore: a unit targets an attempt its "
                               "base run never reaches");
      }
      universe.checkpoint(w->boundary);
      start = &w->boundary;
    }
    std::vector<Cell> cells;
    cells.reserve(task.count);
    for (std::size_t i = task.first; i < task.first + task.count; ++i) {
      const Unit& unit = *units[i];
      RunOptions opts;
      if (dedup_ && unit.base != nullptr) opts.rejoin = &unit.base->trajectory;
      const obs::StageTimer timer{tel_, obs::TelemetryStage::kJudge};
      universe.restore(*start);
      universe.arm(unit.script, opts);
      cells.push_back(cell_of(universe.finish()));
    }
    obs::telemetry_add(tel_, obs::TelemetryCounter::kRuns, task.count);
    pool_.release(std::move(w));
    return cells;
  }

  /// Resolve one chunk: sequential keying picks the units to simulate
  /// (all of them with dedup off; with dedup on, walks and the first unit
  /// of each unseen class), a parallel batch executes them, and the
  /// records settle in unit order — dups inherit their representative's
  /// verdict, which the determinism of the harness makes *the* verdict.
  void flush() {
    if (pending_.empty()) return;
    constexpr std::size_t kSkipped = ~std::size_t{0};
    std::vector<const Unit*> to_run;
    std::vector<std::size_t> cell_of(pending_.size(), kSkipped);
    {
      const obs::StageTimer timer{tel_, obs::TelemetryStage::kHash};
      // canely-lint: allow(no-unordered-iter) — membership probes only, never iterated; any loop over it is still reported
      std::unordered_set<std::uint64_t> claimed;
      if (dedup_) claimed.reserve(pending_.size());
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Unit& unit = pending_[i];
        if (dedup_ && unit.base != nullptr &&
            (classes_.find(unit.key) != classes_.end() ||
             !claimed.insert(unit.key).second)) {
          continue;
        }
        cell_of[i] = to_run.size();
        to_run.push_back(&unit);
      }
    }

    const std::vector<Cell> cells = run_units(to_run);
    result_.runs += cells.size();
    obs::telemetry_add(tel_, obs::TelemetryCounter::kUnitsJudged,
                       cells.size());
    if (cfg_.naive_rerun) {
      for (const Unit* unit : to_run) {
        result_.runs += unit->script.size();  // one probe per proper prefix
        result_.probe_runs += unit->script.size();
      }
    }

    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Unit& unit = pending_[i];
      ClassOutcome outcome;
      if (cell_of[i] != kSkipped) {
        // A class representative precedes its skips in the chunk.
        const Cell& cell = cells[cell_of[i]];
        outcome.violated = cell.violated;
        outcome.first = cell.first;
        if (dedup_ && unit.base != nullptr) classes_.emplace(unit.key, outcome);
        if (!cfg_.naive_rerun) verify_restored(unit, cell);
        if (cell.rejoined) {
          ++result_.rejoined;
          obs::telemetry_add(tel_, obs::TelemetryCounter::kRejoined);
          verify(unit, outcome, rejoin_verify_tick_);
        }
      } else {
        outcome = classes_.at(unit.key);
        ++result_.dedup_skips;
        obs::telemetry_add(tel_, obs::TelemetryCounter::kDedupSkips);
        verify(unit, outcome, skip_verify_tick_);
      }
      FrontierRecord rec;
      rec.u = unit.u;
      rec.j = unit.j;
      rec.key = unit.key;
      rec.violated = outcome.violated;
      if (outcome.violated) {
        rec.violation = outcome.first;
        rec.script = unit.script;
        obs::telemetry_add(tel_, obs::TelemetryCounter::kViolations);
      }
      settle(rec);
      if (keep_records_) records_.push_back(std::move(rec));
    }
    units_since_checkpoint_ += pending_.size();
    pending_.clear();

    if (cfg_.stop_after_units != 0 && settled_ >= cfg_.stop_after_units) {
      stopped_ = true;
    }
    if (keep_records_ && checkpoint_due()) write_checkpoint(/*complete=*/false);
  }

  /// Fold one record into the aggregate and the result, in unit order.
  void settle(const FrontierRecord& rec) {
    aggregate_ = fold_record(aggregate_, rec);
    if (rec.violated) {
      result_.violations.push_back(
          FoundViolation{settled_, rec.script, rec.violation});
    }
    ++settled_;
  }

  /// Mid-run checkpoint policy.  Without a time trigger every flush
  /// checkpoints (chunk == checkpoint_every, the unit-count trigger).
  /// With `checkpoint_secs` set, chunks shrink so flushes land often and
  /// a write happens when either trigger fires — enough units done, or
  /// enough wall time gone — so slow cells still leave resumable state.
  [[nodiscard]] bool checkpoint_due() const {
    if (checkpoint_period_ns_ == 0) return true;
    if (stopped_) return true;
    if (units_since_checkpoint_ >=
        (cfg_.checkpoint_every == 0 ? 16 : cfg_.checkpoint_every)) {
      return true;
    }
    return wall_ns() - last_checkpoint_ns_ >= checkpoint_period_ns_;
  }

  void write_checkpoint(bool complete) {
    const obs::StageTimer timer{tel_, obs::TelemetryStage::kCheckpointIo};
    write_frontier(cfg_.frontier_path, snapshot(complete));
    obs::telemetry_add(tel_, obs::TelemetryCounter::kCheckpoints);
    units_since_checkpoint_ = 0;
    if (checkpoint_period_ns_ != 0) last_checkpoint_ns_ = wall_ns();
  }

  /// Wall time for the checkpoint timer only — never feeds a simulation
  /// (frontier *content* stays a pure function of the records).
  [[nodiscard]] std::uint64_t wall_ns() const {
    if (tel_ != nullptr) return tel_->now_ns();
    return static_cast<std::uint64_t>(
        obs::default_wall_clock().now().count());
  }

  /// Dedup tripwire: re-simulate every k-th unit of one kind — dedup
  /// skips or rejoins, counted by `tick` — to full length and compare its
  /// own verdict to the inherited one.  Any mismatch means the canonical
  /// state hash missed behavior-determining state.
  void verify(const Unit& unit, const ClassOutcome& inherited,
              std::uint64_t& tick) {
    if (cfg_.dedup_verify_every == 0) return;
    if (++tick % cfg_.dedup_verify_every != 0) return;
    obs::telemetry_add(tel_, obs::TelemetryCounter::kRuns);
    const Cell own = run_cell(cfg_.scenario, unit.script);
    ++result_.runs;
    ++result_.dedup_verified;
    const bool agree =
        own.violated == inherited.violated &&
        (!own.violated || same_violation(own.first, inherited.first));
    if (!agree) ++result_.dedup_mismatches;
  }

  /// Restore tripwire: re-run every k-th unit simulated from a checkpoint
  /// in a fresh universe, under the same options, and compare the whole
  /// cell — verdict, rejoin, trace digest and attempt count.  Any
  /// mismatch means a restore missed mutable state.
  void verify_restored(const Unit& unit, const Cell& restored) {
    if (cfg_.dedup_verify_every == 0) return;
    if (++restore_verify_tick_ % cfg_.dedup_verify_every != 0) return;
    obs::telemetry_add(tel_, obs::TelemetryCounter::kRuns);
    const bool rejoin = dedup_ && unit.base != nullptr;
    const Cell own = run_cell(cfg_.scenario, unit.script,
                              rejoin ? &unit.base->trajectory : nullptr);
    ++result_.runs;
    ++result_.dedup_verified;
    const bool agree =
        own.violated == restored.violated &&
        own.rejoined == restored.rejoined &&
        own.trace_hash == restored.trace_hash &&
        own.attempts == restored.attempts &&
        (!own.violated || same_violation(own.first, restored.first));
    if (!agree) ++result_.dedup_mismatches;
  }

  [[nodiscard]] FrontierFile snapshot(bool complete) const {
    FrontierFile f;
    f.fingerprint = fingerprint_;
    f.total = records_.size();
    f.shard_index = static_cast<std::uint32_t>(cfg_.shard_index);
    f.shard_count = static_cast<std::uint32_t>(shard_count_);
    f.cursor = records_.size();
    f.complete = complete;
    f.partial = result_.partial;
    f.records = records_;
    f.aggregate = aggregate_;
    return f;
  }

  const ExploreConfig& cfg_;
  obs::Telemetry* tel_;
  const bool dedup_;
  const bool keep_records_;  ///< a frontier file is written
  const bool targeted_;      ///< depth 2, early stop
  std::size_t shard_count_;
  sim::Time window_end_;
  PrefixCache cache_;
  WorkerPool pool_;
  std::uint64_t checkpoint_period_ns_{0};  ///< 0 = unit-count trigger only
  std::uint64_t last_checkpoint_ns_{0};
  std::size_t units_since_checkpoint_{0};
  ExploreResult result_;
  std::uint64_t fingerprint_{};
  std::uint64_t resume_cursor_{0};
  std::uint64_t enumerated_{0};
  std::uint64_t settled_{0};
  std::uint64_t aggregate_{kFnvOffset};
  std::uint64_t skip_verify_tick_{0};
  std::uint64_t rejoin_verify_tick_{0};
  std::uint64_t restore_verify_tick_{0};
  bool stopped_{false};
  std::vector<Unit> pending_;
  std::vector<FrontierRecord> records_;  ///< only when keep_records_
  /// Class key -> verdict.  Only ever probed, never iterated, so a
  /// hashed table (the keys are FNV digests already).
  // canely-lint: allow(no-unordered-iter) — probed and counted, never iterated; any loop over it is still reported
  std::unordered_map<std::uint64_t, ClassOutcome> classes_;
};

}  // namespace

ExploreResult explore(const ExploreConfig& cfg) {
  if (cfg.shard_count > 1 && cfg.depth >= 2 && !cfg.exhaustive) {
    throw std::invalid_argument(
        "explore: the targeted depth-2 search stops at its first violating "
        "base, so its unit space depends on verdicts and cannot be sharded");
  }
  if (cfg.shard_count > 1 && cfg.random_walks != 0) {
    throw std::invalid_argument(
        "explore: random walks are seeded by the count of units before "
        "them, which one shard does not know; run walks unsharded");
  }
  return RecordExplorer{cfg}.run();
}

}  // namespace canely::check
