// Tests for the checker subsystem (src/check): checked-run determinism,
// invariant monitors on known-good and known-bad scripts, exploration
// thread-count invariance, counterexample shrinking, and the replayable
// artifact round-trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check/artifact.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "check/monitor.hpp"
#include "check/shrink.hpp"

namespace canely::testing {
namespace {

using check::FaultEvent;
using check::FaultOp;
using check::FaultScript;
using check::RunResult;
using check::ScenarioConfig;
using check::Violation;

// The verified FDA-ablation counterexample (found by check_explorer's
// depth-2 search): omit n5's life-sign at n0 and crash n5 — n0 detects a
// whole heartbeat period early, just before a membership cycle boundary —
// then omit n0's resulting failure-sign at n7 and crash n0.  Survivors
// split over whether the intermediate view was installed.
FaultScript ablation_counterexample() {
  FaultEvent base;
  base.tx = 32;
  base.op = FaultOp::kOmit;
  base.victims = can::NodeSet{0};
  base.crash_sender = true;
  FaultEvent second;
  second.tx = 35;
  second.op = FaultOp::kOmit;
  second.victims = can::NodeSet{7};
  second.crash_sender = true;
  return FaultScript{base, second};
}

bool violates(const RunResult& run, std::string_view monitor) {
  for (const Violation& v : run.violations) {
    if (v.monitor == monitor) return true;
  }
  return false;
}

// --- checked-run determinism ------------------------------------------------

TEST(CheckHarness, FaultFreeMembershipRunIsClean) {
  const auto cfg = ScenarioConfig::membership(8);
  const RunResult run = check::run_checked(cfg, {});
  EXPECT_TRUE(run.violations.empty()) << run.violations.front().detail;
  EXPECT_GT(run.attempts, 0u);
}

TEST(CheckHarness, SameScriptSameSeedSameTraceHash) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  const FaultScript script = ablation_counterexample();
  const RunResult a = check::run_checked(cfg, script);
  const RunResult b = check::run_checked(cfg, script);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(CheckHarness, DifferentScriptsDifferentTraceHash) {
  const auto cfg = ScenarioConfig::membership(8);
  FaultEvent ev;
  ev.tx = 12;
  ev.op = FaultOp::kOmit;
  ev.victims = can::NodeSet{3};
  ev.crash_sender = false;
  const RunResult clean = check::run_checked(cfg, {});
  const RunResult faulty = check::run_checked(cfg, {ev});
  EXPECT_NE(clean.trace_hash, faulty.trace_hash);
}

TEST(CheckHarness, ScenarioBoundsAreOrdered) {
  const auto cfg = ScenarioConfig::membership(8);
  EXPECT_LT(cfg.detection_bound(), cfg.expel_grace());
  EXPECT_LT(cfg.converge_by(), cfg.duration - cfg.expel_grace());
}

// --- rejoining a base trajectory -------------------------------------------

// A run given its base probe's trajectory stops once it rejoins it and
// reports the probe's verdict; that must be the verdict the same script
// reaches when run to the end.  The base is a violating two-fault script
// from the record-mode explorer's depth-2 space (n0 and n1 crash in the
// join burst; n2 detects n0's crash only after join_wait, past the
// detection-latency bound), so the inherited verdict is not empty.
TEST(CheckHarness, RejoinedRunReturnsTheFullRunsViolations) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/true);
  FaultEvent first;
  first.tx = 0;
  first.victims = can::NodeSet{1};
  first.crash_sender = true;
  FaultEvent second;
  second.tx = 8;
  second.victims = can::NodeSet{2};
  second.crash_sender = true;
  const FaultScript base{first, second};
  check::RunOptions probe_opts;
  probe_opts.want_tx_log = true;
  probe_opts.want_samples = true;
  const RunResult probe = check::run_checked(cfg, base, probe_opts);
  ASSERT_FALSE(probe.violations.empty());
  const check::RejoinTarget target{probe.samples, check::script_end(base),
                                   probe.violations};
  EXPECT_EQ(target.script_end, 9u);
  check::RunOptions opts;
  opts.rejoin = &target;
  // Tampered trajectories: one bit off in every sample's digest, or in
  // every crash set.  Each half of the match is necessary, so nothing
  // may rejoin these.
  std::vector<check::StateSample> bad_hash = probe.samples;
  std::vector<check::StateSample> bad_crash = probe.samples;
  for (check::StateSample& s : bad_hash) s.state_hash ^= 1;
  for (check::StateSample& s : bad_crash) {
    s.crashed = can::NodeSet::from_bits(s.crashed.bits() ^ 1ULL << 7);
  }

  // Third faults: a single-victim omission (no crash) on each of the
  // first post-base attempts.  Rejoined or not, the early-stopping run
  // must agree with the full one.
  std::size_t tried = 0;
  std::size_t rejoins = 0;
  for (const check::TxLogEntry& e : probe.tx_log) {
    if (e.tx_index < target.script_end || e.receivers.empty()) continue;
    if (++tried > 12) break;
    FaultEvent third;
    third.tx = e.tx_index;
    third.op = FaultOp::kOmit;
    third.victims = can::NodeSet{*e.receivers.begin()};
    FaultScript script = base;
    script.push_back(third);
    const RunResult early = check::run_checked(cfg, script, opts);
    const RunResult full = check::run_checked(cfg, script);
    EXPECT_FALSE(full.rejoined);
    if (early.rejoined) {
      ++rejoins;
      EXPECT_LT(early.attempts, full.attempts);
      for (const auto& samples : {bad_hash, bad_crash}) {
        const check::RejoinTarget bad{samples, target.script_end,
                                      target.violations};
        check::RunOptions bad_opts;
        bad_opts.rejoin = &bad;
        EXPECT_FALSE(check::run_checked(cfg, script, bad_opts).rejoined);
      }
    } else {
      EXPECT_EQ(early.trace_hash, full.trace_hash);
    }
    ASSERT_EQ(early.violations.size(), full.violations.size()) << e.tx_index;
    for (std::size_t i = 0; i < full.violations.size(); ++i) {
      EXPECT_EQ(early.violations[i].monitor, full.violations[i].monitor);
      EXPECT_EQ(early.violations[i].when, full.violations[i].when);
      EXPECT_EQ(early.violations[i].detail, full.violations[i].detail);
    }
  }
  EXPECT_GT(rejoins, 0u);
}

TEST(CheckHarness, ScriptEndIsOnePastTheLastScriptedAttempt) {
  EXPECT_EQ(check::script_end({}), 0u);
  FaultScript script = ablation_counterexample();  // tx 32, 35
  EXPECT_EQ(check::script_end(script), 36u);
  std::swap(script[0], script[1]);  // order-insensitive
  EXPECT_EQ(check::script_end(script), 36u);
}

// --- monitors on known scripts ----------------------------------------------

TEST(CheckMonitors, AblatedFdaCounterexampleViolatesViewConsistency) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  const RunResult run = check::run_checked(cfg, ablation_counterexample());
  EXPECT_TRUE(violates(run, "view-consistency"));
}

TEST(CheckMonitors, SameScriptWithFdaEnabledIsConsistent) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/true);
  const RunResult run = check::run_checked(cfg, ablation_counterexample());
  EXPECT_FALSE(violates(run, "view-consistency"));
}

TEST(CheckMonitors, CrashedNodeIsExpelledFromSurvivorViews) {
  const auto cfg = ScenarioConfig::membership(8);
  FaultEvent ev;
  ev.tx = 11;  // n0's first life-sign
  ev.op = FaultOp::kOmit;
  ev.victims = can::NodeSet{1};
  ev.crash_sender = true;
  const RunResult run = check::run_checked(cfg, {ev}, /*want_tx_log=*/true);
  EXPECT_TRUE(run.violations.empty()) << run.violations.front().detail;
  // Survivors converged on the 7-node view; the installs are visible.
  bool saw_expulsion = false;
  for (std::size_t i = 1; i < 8; ++i) {
    for (const check::ViewInstall& vi : run.installs[i]) {
      if (!vi.view.contains(0)) saw_expulsion = true;
    }
  }
  EXPECT_TRUE(saw_expulsion);
}

TEST(CheckMonitors, IsInfixContract) {
  using Seq = std::vector<can::NodeSet>;
  const can::NodeSet a{1}, b{2}, c{3};
  EXPECT_TRUE(check::is_infix(Seq{}, Seq{a, b}));
  EXPECT_TRUE(check::is_infix(Seq{a, b}, Seq{a, b, c}));
  EXPECT_TRUE(check::is_infix(Seq{b, c}, Seq{a, b, c}));
  EXPECT_FALSE(check::is_infix(Seq{a, c}, Seq{a, b, c}));
}

// --- exploration ------------------------------------------------------------

TEST(CheckExplore, SmallBudgetExplorationIsCleanWithFdaOn) {
  check::ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8);
  cfg.threads = 2;
  cfg.max_frames = 8;
  cfg.max_victim_sets = 8;
  const check::ExploreResult result = check::explore(cfg);
  EXPECT_GT(result.placements, 0u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(CheckExplore, AggregateIsByteIdenticalForAnyThreadCount) {
  check::ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8);
  cfg.max_frames = 10;
  cfg.max_victim_sets = 8;
  cfg.random_walks = 16;

  cfg.threads = 1;
  const check::ExploreResult seq = check::explore(cfg);
  cfg.threads = 4;
  const check::ExploreResult par = check::explore(cfg);

  EXPECT_EQ(seq.placements, par.placements);
  EXPECT_EQ(seq.runs, par.runs);
  EXPECT_EQ(seq.aggregate_hash, par.aggregate_hash);
  ASSERT_EQ(seq.violations.size(), par.violations.size());
  for (std::size_t i = 0; i < seq.violations.size(); ++i) {
    EXPECT_EQ(seq.violations[i].run_index, par.violations[i].run_index);
    EXPECT_EQ(seq.violations[i].script, par.violations[i].script);
  }
}

// --- shrinking --------------------------------------------------------------

TEST(CheckShrink, PaddedCounterexampleShrinksToMinimalCore) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  // Pad the real counterexample with two inert events.  They must come
  // AFTER the core events in wire order: a fault on an earlier frame
  // inserts a retransmission attempt and shifts every later tx index,
  // which would derail the core script.  Late faults on steady-state
  // life-signs are absorbed (the retransmission restores consistency).
  FaultScript padded = ablation_counterexample();
  FaultEvent junk1;
  junk1.tx = 70;
  junk1.op = FaultOp::kOmit;
  junk1.victims = can::NodeSet{2};
  junk1.crash_sender = false;
  FaultEvent junk2;
  junk2.tx = 80;
  junk2.op = FaultOp::kError;
  junk2.victims = can::NodeSet{};
  junk2.crash_sender = false;
  padded.push_back(junk1);
  padded.push_back(junk2);
  ASSERT_TRUE(
      violates(check::run_checked(cfg, padded), "view-consistency"));

  const check::ShrinkResult shrunk =
      check::shrink(cfg, padded, "view-consistency");
  EXPECT_LE(shrunk.script.size(), 2u);
  EXPECT_TRUE(shrunk.locally_minimal);
  EXPECT_EQ(shrunk.violation.monitor, "view-consistency");

  // The shrunk script still violates, and removing any single event no
  // longer does — local minimality, checked from the outside.
  EXPECT_TRUE(
      violates(check::run_checked(cfg, shrunk.script), "view-consistency"));
  for (std::size_t drop = 0; drop < shrunk.script.size(); ++drop) {
    FaultScript smaller = shrunk.script;
    smaller.erase(smaller.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(
        violates(check::run_checked(cfg, smaller), "view-consistency"));
  }
}

// --- artifact round-trip ----------------------------------------------------

TEST(CheckArtifact, JsonRoundTripPreservesEverything) {
  check::Artifact artifact;
  artifact.scenario = ScenarioConfig::membership(8, /*fda_on=*/false);
  artifact.script = ablation_counterexample();
  artifact.monitor = "view-consistency";
  artifact.trace_hash = 0x64b9f50534ae66b0ULL;
  artifact.violation =
      Violation{"view-consistency", sim::Time::ms(160), "detail text"};

  const std::string path =
      ::testing::TempDir() + "check_artifact_roundtrip.json";
  check::write_artifact(path, artifact);
  const check::Artifact loaded = check::load_artifact(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.monitor, artifact.monitor);
  EXPECT_EQ(loaded.trace_hash, artifact.trace_hash);
  EXPECT_EQ(loaded.script, artifact.script);
  EXPECT_EQ(loaded.scenario.n, artifact.scenario.n);
  EXPECT_EQ(loaded.scenario.params.fda_agreement,
            artifact.scenario.params.fda_agreement);
  EXPECT_EQ(loaded.scenario.duration, artifact.scenario.duration);
  EXPECT_EQ(loaded.scenario.settle, artifact.scenario.settle);
  EXPECT_EQ(loaded.violation.monitor, artifact.violation.monitor);
  EXPECT_EQ(loaded.violation.when, artifact.violation.when);

  // A replay of the loaded artifact reproduces the recorded run exactly.
  const RunResult replayed =
      check::run_checked(loaded.scenario, loaded.script);
  EXPECT_EQ(replayed.trace_hash, artifact.trace_hash);
  EXPECT_TRUE(violates(replayed, loaded.monitor));
}

}  // namespace
}  // namespace canely::testing
