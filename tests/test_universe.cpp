// Restored vs fresh: a check::Universe restored from a checkpoint must
// run exactly like a freshly built one (src/check/universe.hpp).
//
// Differential over seeded scripts on the two scenarios the explorer's
// workloads use — membership(8, FDA on) and membership(10, FDA off):
//
//  * every op (omission at a seeded victim set, global error) with and
//    without a sender crash at every post-base target of several bases,
//    the violating late n = 8 base 509 among them, run the way the
//    explorer runs them: one reused universe, restore t = 0, run the base
//    to the event boundary before the target, checkpoint, then each unit
//    from that checkpoint;
//  * seeded 1-3-event walks from the t = 0 checkpoint;
//  * in both, every restore follows whatever the previous run left
//    behind — runs stopped on a rejoin, runs that crashed nodes.
//
// Each RunResult must equal the fresh run_checked() result field by
// field, and the state digest at every checkpoint must equal a fresh
// universe's digest at the same boundary.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/harness.hpp"
#include "check/universe.hpp"
#include "sim/arena.hpp"
#include "sim/rng.hpp"

namespace canely::check {
namespace {

void expect_same(const RunResult& restored, const RunResult& fresh) {
  ASSERT_EQ(restored.violations.size(), fresh.violations.size());
  for (std::size_t i = 0; i < fresh.violations.size(); ++i) {
    EXPECT_EQ(restored.violations[i].monitor, fresh.violations[i].monitor);
    EXPECT_EQ(restored.violations[i].when, fresh.violations[i].when);
    EXPECT_EQ(restored.violations[i].detail, fresh.violations[i].detail);
  }
  EXPECT_EQ(restored.trace_hash, fresh.trace_hash);
  EXPECT_EQ(restored.attempts, fresh.attempts);
  EXPECT_EQ(restored.end, fresh.end);
  EXPECT_EQ(restored.rejoined, fresh.rejoined);
  ASSERT_EQ(restored.samples.size(), fresh.samples.size());
  for (std::size_t i = 0; i < fresh.samples.size(); ++i) {
    EXPECT_EQ(restored.samples[i].tx_index, fresh.samples[i].tx_index);
    EXPECT_EQ(restored.samples[i].state_hash, fresh.samples[i].state_hash);
    EXPECT_EQ(restored.samples[i].start, fresh.samples[i].start);
    EXPECT_EQ(restored.samples[i].crashed, fresh.samples[i].crashed);
  }
  ASSERT_EQ(restored.tx_log.size(), fresh.tx_log.size());
  for (std::size_t i = 0; i < fresh.tx_log.size(); ++i) {
    const TxLogEntry& a = restored.tx_log[i];
    const TxLogEntry& b = fresh.tx_log[i];
    EXPECT_EQ(a.tx_index, b.tx_index);
    EXPECT_EQ(a.transmitter, b.transmitter);
    EXPECT_EQ(a.co_transmitters, b.co_transmitters);
    EXPECT_EQ(a.receivers, b.receivers);
    EXPECT_EQ(a.msg_type, b.msg_type);
    EXPECT_EQ(a.mid_node, b.mid_node);
    EXPECT_EQ(a.remote, b.remote);
    EXPECT_EQ(a.start, b.start);
  }
  ASSERT_EQ(restored.installs.size(), fresh.installs.size());
  for (std::size_t n = 0; n < fresh.installs.size(); ++n) {
    ASSERT_EQ(restored.installs[n].size(), fresh.installs[n].size());
    for (std::size_t i = 0; i < fresh.installs[n].size(); ++i) {
      EXPECT_EQ(restored.installs[n][i].when, fresh.installs[n][i].when);
      EXPECT_EQ(restored.installs[n][i].view, fresh.installs[n][i].view);
    }
  }
}

sim::Time window_end(const ScenarioConfig& cfg) {
  return cfg.duration - cfg.expel_grace() - cfg.settle;
}

/// The fault-free attempts a fault may target: in the window, with
/// receivers.
std::vector<TxLogEntry> window_of(const ScenarioConfig& cfg,
                                  const FaultScript& base) {
  RunOptions opts;
  opts.want_tx_log = true;
  const RunResult r = run_checked(cfg, base, opts);
  std::vector<TxLogEntry> out;
  for (const TxLogEntry& e : r.tx_log) {
    if (e.start < window_end(cfg) && !e.receivers.empty()) out.push_back(e);
  }
  return out;
}

/// The explorer's depth-1 placements (every victim subset, crash flag
/// inner): base u of an exhaustive depth-2 exploration is placement u.
FaultScript depth1_placement(const ScenarioConfig& cfg, std::size_t u) {
  for (const TxLogEntry& e : window_of(cfg, {})) {
    std::vector<can::NodeId> pool;
    for (can::NodeId id : e.receivers) pool.push_back(id);
    for (std::uint64_t mask = 1; mask < (1ULL << pool.size()); ++mask) {
      for (const bool crash : {false, true}) {
        if (u-- != 0) continue;
        can::NodeSet victims;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if ((mask >> i) & 1) victims.insert(pool[i]);
        }
        return {FaultEvent{e.tx_index, FaultOp::kOmit, victims, crash}};
      }
    }
  }
  ADD_FAILURE() << "no depth-1 placement " << u;
  return {};
}

can::NodeSet random_victims(sim::Rng& rng, can::NodeSet receivers) {
  can::NodeSet victims;
  for (can::NodeId id : receivers) {
    if (rng.below(2) == 1) victims.insert(id);
  }
  if (victims.empty()) victims.insert(*receivers.begin());
  return victims;
}

/// The state digest a freshly built universe has after running `base`
/// to the boundary before attempt `k`.
std::uint64_t fresh_boundary_digest(const ScenarioConfig& cfg,
                                    const FaultScript& base,
                                    const RunOptions& opts, std::uint64_t k) {
  sim::Arena arena;
  Universe fresh{cfg, arena};
  fresh.arm(base, opts);
  EXPECT_TRUE(fresh.run_to_attempt(k));
  return fresh.state_digest();
}

struct Tally {
  std::size_t units{0};
  std::size_t rejoined{0};
  std::size_t crashed{0};
  std::size_t violating{0};
};

/// Every op and crash flag at every post-base target of `base`, run the
/// explorer's way in `universe` and compared with fresh runs.  Targets
/// alternate between the explorer's options (rejoin on the base probe)
/// and full recording (tx log, installs, samples).
void check_base(const ScenarioConfig& cfg, Universe& universe,
                const Universe::Checkpoint& origin, const FaultScript& base,
                sim::Rng& rng, Tally& tally) {
  const std::uint64_t base_tx = base.back().tx;
  RunOptions probe_opts;
  probe_opts.want_tx_log = true;
  probe_opts.sample_at = [&](const TxLogEntry& e) {
    return e.tx_index > base_tx && e.start < window_end(cfg);
  };
  const RunResult probe = run_checked(cfg, base, probe_opts);
  const RejoinTarget target{probe.samples, script_end(base),
                            probe.violations};

  Universe::Checkpoint boundary;
  std::size_t targets = 0;
  for (const TxLogEntry& e : probe.tx_log) {
    if (e.tx_index <= base_tx || e.receivers.empty() ||
        e.start >= window_end(cfg)) {
      continue;
    }
    RunOptions opts;
    if (targets++ % 2 == 0) {
      opts.rejoin = &target;
    } else {
      opts.want_tx_log = true;
      opts.sample_at = [](const TxLogEntry& x) { return x.tx_index % 3 == 0; };
    }
    RunOptions prefix_opts = opts;
    prefix_opts.rejoin = nullptr;

    universe.restore(origin);
    universe.arm(base, prefix_opts);
    ASSERT_TRUE(universe.run_to_attempt(e.tx_index));
    universe.checkpoint(boundary);
    const std::uint64_t digest = universe.state_digest();
    EXPECT_EQ(digest,
              fresh_boundary_digest(cfg, base, prefix_opts, e.tx_index))
        << "base tx " << base_tx << ", boundary " << e.tx_index;

    for (const FaultOp op : {FaultOp::kOmit, FaultOp::kError}) {
      for (const bool crash : {false, true}) {
        FaultScript script = base;
        script.push_back(FaultEvent{
            e.tx_index, op,
            op == FaultOp::kOmit ? random_victims(rng, e.receivers)
                                 : can::NodeSet{},
            crash});
        universe.restore(boundary);
        EXPECT_EQ(universe.state_digest(), digest);
        universe.arm(script, opts);
        const RunResult restored = universe.finish();
        const RunResult fresh = run_checked(cfg, script, opts);
        SCOPED_TRACE(::testing::Message()
                     << "base tx " << base_tx << ", second tx " << e.tx_index
                     << (op == FaultOp::kOmit ? " omit" : " error")
                     << (crash ? " + crash" : ""));
        expect_same(restored, fresh);
        ++tally.units;
        tally.rejoined += fresh.rejoined ? 1 : 0;
        tally.crashed += crash || base.front().crash_sender ? 1 : 0;
        tally.violating += fresh.violations.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(targets, 0u);
}

/// Seeded 1-3-event walks from the t = 0 checkpoint.
void check_walks(const ScenarioConfig& cfg, Universe& universe,
                 const Universe::Checkpoint& origin, std::uint64_t seed,
                 std::size_t count, Tally& tally) {
  const std::vector<TxLogEntry> window = window_of(cfg, {});
  sim::Rng rng{seed};
  for (std::size_t w = 0; w < count; ++w) {
    FaultScript script;
    const std::size_t events = 1 + rng.below(3);
    for (std::size_t i = 0; i < events; ++i) {
      const TxLogEntry& e = window[rng.below(window.size())];
      const bool error = rng.below(4) == 0;
      script.push_back(FaultEvent{
          e.tx_index, error ? FaultOp::kError : FaultOp::kOmit,
          error ? can::NodeSet{} : random_victims(rng, e.receivers),
          rng.below(2) == 1});
    }
    RunOptions opts;
    if (w % 2 == 1) {
      opts.want_tx_log = true;
      opts.sample_at = [](const TxLogEntry& x) { return x.tx_index % 5 == 0; };
    }
    universe.restore(origin);
    universe.arm(script, opts);
    const RunResult restored = universe.finish();
    SCOPED_TRACE(::testing::Message() << "walk " << w);
    expect_same(restored, run_checked(cfg, script, opts));
    ++tally.units;
    tally.violating += restored.violations.empty() ? 0 : 1;
  }
}

TEST(UniverseRestore, MatchesFreshRunsN8FdaOn) {
  const ScenarioConfig cfg = ScenarioConfig::membership(8, true);
  sim::Arena arena;
  Universe universe{cfg, arena};
  Universe::Checkpoint origin;
  universe.checkpoint(origin);
  sim::Rng rng{0x5eed8};
  Tally tally;
  for (const std::size_t u : {1, 509, 5000}) {
    SCOPED_TRACE(::testing::Message() << "base " << u);
    check_base(cfg, universe, origin, depth1_placement(cfg, u), rng, tally);
  }
  check_walks(cfg, universe, origin, 0xa11c8, 40, tally);
  // The restores really followed rejoined, crashing and violating runs.
  EXPECT_GT(tally.rejoined, 0u);
  EXPECT_GT(tally.crashed, 0u);
  EXPECT_GT(tally.violating, 0u);  // base 509's late seconds violate
}

TEST(UniverseRestore, MatchesFreshRunsN10FdaOff) {
  const ScenarioConfig cfg = ScenarioConfig::membership(10, false);
  sim::Arena arena;
  Universe universe{cfg, arena};
  Universe::Checkpoint origin;
  universe.checkpoint(origin);
  sim::Rng rng{0x5eed10};
  Tally tally;
  for (const std::size_t u : {3, 20000}) {
    SCOPED_TRACE(::testing::Message() << "base " << u);
    check_base(cfg, universe, origin, depth1_placement(cfg, u), rng, tally);
  }
  check_walks(cfg, universe, origin, 0xa11c10, 40, tally);
  EXPECT_GT(tally.rejoined, 0u);
  EXPECT_GT(tally.crashed, 0u);
}

TEST(UniverseRestore, RunToAttemptStopsAtTheBoundaryAndKeepsTheClock) {
  const ScenarioConfig cfg = ScenarioConfig::membership(8, true);
  sim::Arena arena;
  Universe universe{cfg, arena};
  universe.arm({}, RunOptions{});
  ASSERT_TRUE(universe.run_to_attempt(20));
  EXPECT_EQ(universe.attempts(), 20u);
  // The same boundary is reached again by a fresh universe: same digest.
  EXPECT_EQ(universe.state_digest(),
            fresh_boundary_digest(cfg, {}, RunOptions{}, 20));
  // Continuing to the end matches an uninterrupted run.
  const RunResult resumed = universe.finish();
  expect_same(resumed, run_checked(cfg, {}));
  // Past the end: the boundary is never reached.
  sim::Arena other;
  Universe late{cfg, other};
  late.arm({}, RunOptions{});
  EXPECT_FALSE(late.run_to_attempt(1'000'000));
}

}  // namespace
}  // namespace canely::check
