// Tests for the exploration engine's record machinery: shard-union
// byte-identity, dedup-on vs dedup-off verdict equality, prefix-cache
// replay against the from-scratch oracle, the targeted search and walks
// under every record hook, frontier resume-after-kill, merge validation,
// and --shard argument parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/cli.hpp"
#include "check/explore.hpp"
#include "check/frontier.hpp"
#include "check/harness.hpp"
#include "check/prefix_cache.hpp"

namespace canely::testing {
namespace {

using check::ExploreConfig;
using check::ExploreResult;
using check::FrontierFile;
using check::FrontierRecord;
using check::ScenarioConfig;

// The CI smoke budget: depth-2 exhaustive over a clipped space (8 frames
// x 4 victim sets -> 32 bases, capped to 8, x 2 targets x 4 sets x 2
// crash flags = 128 units) — violation-free with FDA on, sub-second.
ExploreConfig smoke_config() {
  ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8);
  cfg.exhaustive = true;
  cfg.dedup = true;
  cfg.depth = 2;
  cfg.max_frames = 8;
  cfg.max_victim_sets = 4;
  cfg.max_bases = 8;
  cfg.depth2_targets = 2;
  cfg.threads = 2;
  return cfg;
}

// The FDA-off targeted depth-2 search (early stop at the first violating
// base) over a clipped space, plus random walks: 338 units in 169 bases,
// the last one violating, then 8 walks — a second violation among them.
ExploreConfig targeted_config() {
  ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8, /*fda_on=*/false);
  cfg.depth = 2;
  cfg.max_frames = 36;
  cfg.max_victim_sets = 2;
  cfg.depth2_targets = 2;
  cfg.random_walks = 8;
  cfg.threads = 2;
  return cfg;
}

void expect_same_exploration(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.aggregate_hash, b.aggregate_hash);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].run_index, b.violations[i].run_index);
    EXPECT_EQ(a.violations[i].script, b.violations[i].script);
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- shard union == unsharded, across thread counts -------------------------

TEST(Frontier, ShardUnionIsByteIdenticalToUnshardedRun) {
  const std::string all = temp_path("frontier_all.json");
  const std::string s0 = temp_path("frontier_s0.json");
  const std::string s1 = temp_path("frontier_s1.json");
  std::remove(all.c_str());
  std::remove(s0.c_str());
  std::remove(s1.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.frontier_path = all;
  const ExploreResult whole = check::explore(cfg);
  EXPECT_GT(whole.placements, 0u);

  // Shards deliberately run with different thread counts: the frontier
  // bytes must not care.
  cfg.shard_count = 2;
  cfg.shard_index = 0;
  cfg.threads = 1;
  cfg.frontier_path = s0;
  (void)check::explore(cfg);
  cfg.shard_index = 1;
  cfg.threads = 4;
  cfg.frontier_path = s1;
  (void)check::explore(cfg);

  const FrontierFile merged =
      check::merge_frontiers({check::load_frontier(s0),
                              check::load_frontier(s1)});
  const FrontierFile unsharded = check::load_frontier(all);
  EXPECT_EQ(check::frontier_json(merged).dump(2),
            check::frontier_json(unsharded).dump(2));
  EXPECT_EQ(merged.aggregate, whole.aggregate_hash);

  std::remove(all.c_str());
  std::remove(s0.c_str());
  std::remove(s1.c_str());
}

// --- dedup on == dedup off ---------------------------------------------------

TEST(Frontier, DedupOnAndOffProduceIdenticalVerdicts) {
  const std::string on = temp_path("frontier_dedup_on.json");
  const std::string off = temp_path("frontier_dedup_off.json");
  std::remove(on.c_str());
  std::remove(off.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.dedup = true;
  cfg.dedup_verify_every = 1;  // tripwire every skip: must all agree
  cfg.frontier_path = on;
  const ExploreResult deduped = check::explore(cfg);

  cfg.dedup = false;
  cfg.dedup_verify_every = 0;
  cfg.frontier_path = off;
  const ExploreResult plain = check::explore(cfg);

  // The dedup run must actually have skipped (and rejoined) something
  // for this test to mean anything, and every tripwire re-execution —
  // one per skip, one per rejoin, and one per unit simulated from a
  // checkpoint (every unit not skipped) — must have agreed.
  EXPECT_GT(deduped.dedup_skips, 0u);
  EXPECT_GT(deduped.rejoined, 0u);
  const std::size_t restored = deduped.placements - deduped.dedup_skips;
  EXPECT_EQ(deduped.dedup_verified,
            deduped.dedup_skips + deduped.rejoined + restored);
  EXPECT_EQ(deduped.dedup_mismatches, 0u);
  // Discounting the tripwire re-executions, dedup saved real runs.
  EXPECT_LT(deduped.runs - deduped.dedup_verified, plain.runs);

  EXPECT_EQ(deduped.placements, plain.placements);
  EXPECT_EQ(deduped.aggregate_hash, plain.aggregate_hash);
  ASSERT_EQ(deduped.violations.size(), plain.violations.size());
  for (std::size_t i = 0; i < plain.violations.size(); ++i) {
    EXPECT_EQ(deduped.violations[i].run_index, plain.violations[i].run_index);
    EXPECT_EQ(deduped.violations[i].script, plain.violations[i].script);
  }
  EXPECT_EQ(slurp(on), slurp(off));

  std::remove(on.c_str());
  std::remove(off.c_str());
}

// --- rejoin: verdicts inherited from the base trajectory -------------------

// An exhaustive space whose records include violations (the
// detection-latency finding of DESIGN.md §12): with
// dedup on, rejoined units must leave the frontier byte-identical to
// the dedup-off run, and the tripwire must re-run every rejoin to full
// length without a mismatch.
TEST(Frontier, RejoinKeepsFrontierByteIdenticalOnAViolatingSpace) {
  const std::string on = temp_path("frontier_rejoin_on.json");
  const std::string off = temp_path("frontier_rejoin_off.json");
  std::remove(on.c_str());
  std::remove(off.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.max_victim_sets = 2;
  cfg.max_bases = 16;
  cfg.depth2_targets = 8;
  cfg.checkpoint_every = 4096;  // one final write: compare final bytes
  cfg.dedup_verify_every = 1;
  cfg.frontier_path = on;
  const ExploreResult rejoining = check::explore(cfg);

  cfg.dedup = false;
  cfg.dedup_verify_every = 0;
  cfg.frontier_path = off;
  const ExploreResult plain = check::explore(cfg);

  ASSERT_FALSE(plain.violations.empty());
  EXPECT_GT(rejoining.rejoined, 0u);
  EXPECT_EQ(plain.rejoined, 0u);  // --no-dedup disables rejoin
  EXPECT_EQ(rejoining.dedup_verified,
            rejoining.dedup_skips + rejoining.rejoined +
                (rejoining.placements - rejoining.dedup_skips));
  EXPECT_EQ(rejoining.dedup_mismatches, 0u);
  EXPECT_EQ(slurp(on), slurp(off));

  std::remove(on.c_str());
  std::remove(off.c_str());
}

// Units keep viewing their base's cache slot until their chunk is
// resolved; a one-slot cache evicts a base with units still pending
// unless the explorer resolves them first.  Records and rejoins must
// not depend on the capacity.
TEST(Frontier, OneSlotPrefixCacheKeepsRejoinsAndRecords) {
  ExploreConfig cfg = smoke_config();
  cfg.max_victim_sets = 2;
  cfg.max_bases = 16;
  cfg.depth2_targets = 8;
  const ExploreResult roomy = check::explore(cfg);
  cfg.prefix_cache_cells = 1;
  const ExploreResult tiny = check::explore(cfg);
  EXPECT_GT(roomy.rejoined, 0u);
  EXPECT_EQ(tiny.rejoined, roomy.rejoined);
  EXPECT_EQ(tiny.runs, roomy.runs);
  EXPECT_EQ(tiny.aggregate_hash, roomy.aggregate_hash);
  EXPECT_EQ(tiny.violations.size(), roomy.violations.size());
}

// With dedup off nothing holds a pending unit's base in the cache, so a
// one-slot cache hands every base of a chunk the same slot.  Units of
// consecutive bases that target the same attempt must still start from
// their own base's checkpoint: records equal the roomy-cache run's, and
// the tripwire re-runs every restored unit in a fresh universe.
TEST(Frontier, OneSlotPrefixCacheWithoutDedupKeepsEachUnitsBase) {
  const std::string roomy_path = temp_path("frontier_nodedup_roomy.json");
  const std::string tiny_path = temp_path("frontier_nodedup_tiny.json");
  std::remove(roomy_path.c_str());
  std::remove(tiny_path.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.dedup = false;
  cfg.max_bases = 16;
  cfg.depth2_targets = 1;
  cfg.dedup_verify_every = 1;
  cfg.checkpoint_every = 4096;  // one final write: compare final bytes
  cfg.frontier_path = roomy_path;
  const ExploreResult roomy = check::explore(cfg);
  cfg.prefix_cache_cells = 1;
  cfg.frontier_path = tiny_path;
  const ExploreResult tiny = check::explore(cfg);

  EXPECT_EQ(roomy.dedup_verified, roomy.placements);
  EXPECT_EQ(tiny.dedup_verified, tiny.placements);
  EXPECT_EQ(roomy.dedup_mismatches, 0u);
  EXPECT_EQ(tiny.dedup_mismatches, 0u);
  EXPECT_EQ(tiny.prefix_runs, roomy.prefix_runs);
  expect_same_exploration(tiny, roomy);
  EXPECT_EQ(slurp(tiny_path), slurp(roomy_path));

  std::remove(roomy_path.c_str());
  std::remove(tiny_path.c_str());
}

// --- prefix cache vs from-scratch oracle ------------------------------------

TEST(PrefixCache, ReplayMatchesFromScratchOracle) {
  const auto scenario = ScenarioConfig::membership(8);
  check::FaultScript base;
  check::FaultEvent ev;
  ev.tx = 12;
  ev.op = check::FaultOp::kOmit;
  ev.victims = can::NodeSet{3};
  ev.crash_sender = true;
  base.push_back(ev);

  check::RunOptions opts;
  opts.want_tx_log = true;
  opts.sample_at = [](const check::TxLogEntry&) { return true; };
  const check::RunResult oracle = check::run_checked(scenario, base, opts);
  ASSERT_FALSE(oracle.tx_log.empty());
  ASSERT_FALSE(oracle.samples.empty());

  check::PrefixCache cache(4);
  const std::uint64_t key = check::hash_script(base);
  EXPECT_EQ(cache.find(key), nullptr);  // cold: miss
  const check::PrefixProbe* probe =
      cache.insert(key, oracle.tx_log, oracle.samples, oracle.violations,
                   check::script_end(base));
  ASSERT_NE(probe, nullptr);

  // A second from-scratch run is the oracle the cached replay must match
  // entry for entry (the harness is deterministic, so it equals the first).
  const check::RunResult fresh = check::run_checked(scenario, base, opts);
  const check::PrefixProbe* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->tx_log.size(), fresh.tx_log.size());
  for (std::size_t i = 0; i < fresh.tx_log.size(); ++i) {
    EXPECT_EQ(hit->tx_log[i].tx_index, fresh.tx_log[i].tx_index);
    EXPECT_EQ(hit->tx_log[i].transmitter, fresh.tx_log[i].transmitter);
    EXPECT_EQ(hit->tx_log[i].receivers, fresh.tx_log[i].receivers);
    EXPECT_EQ(hit->tx_log[i].start, fresh.tx_log[i].start);
  }
  const check::RejoinTarget& got = hit->trajectory;
  ASSERT_EQ(got.samples.size(), fresh.samples.size());
  bool crashed_seen = false;
  for (std::size_t i = 0; i < fresh.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].tx_index, fresh.samples[i].tx_index);
    EXPECT_EQ(got.samples[i].state_hash, fresh.samples[i].state_hash);
    EXPECT_EQ(got.samples[i].start, fresh.samples[i].start);
    EXPECT_EQ(got.samples[i].crashed, fresh.samples[i].crashed);
    // The crash set is the harness's at judge-time: empty up to the
    // scripted attempt, the crashed sender after it.
    if (fresh.samples[i].tx_index <= ev.tx) {
      EXPECT_TRUE(fresh.samples[i].crashed.empty());
    } else {
      crashed_seen = crashed_seen || !fresh.samples[i].crashed.empty();
    }
  }
  EXPECT_TRUE(crashed_seen);
  // The stored verdict and script end are the probe's.
  EXPECT_EQ(got.script_end, ev.tx + 1);
  ASSERT_EQ(got.violations.size(), fresh.violations.size());
  for (std::size_t i = 0; i < fresh.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].monitor, fresh.violations[i].monitor);
    EXPECT_EQ(got.violations[i].when, fresh.violations[i].when);
    EXPECT_EQ(got.violations[i].detail, fresh.violations[i].detail);
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PrefixCache, LruEvictsLeastRecentlyUsedSlot) {
  check::PrefixCache cache(2);
  const std::vector<check::TxLogEntry> log(1);
  const std::vector<check::StateSample> samples(1);
  (void)cache.insert(10, log, samples);
  (void)cache.insert(20, log, samples);
  EXPECT_NE(cache.find(10), nullptr);  // refresh 10: 20 is now LRU
  (void)cache.insert(30, log, samples);
  EXPECT_EQ(cache.find(20), nullptr);
  EXPECT_NE(cache.find(10), nullptr);
  EXPECT_NE(cache.find(30), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// --- the targeted search and random walks on the record engine ------------

// The frontier and the stop hook only observe: the targeted search
// explores the same units, finds the same violations, and folds the same
// aggregate with them or without — dedup on included, walks included.
TEST(Frontier, TargetedSearchIsTheSameUnderEveryRecordHook) {
  const std::string path = temp_path("frontier_targeted.json");
  std::remove(path.c_str());

  ExploreConfig cfg = targeted_config();
  const ExploreResult plain = check::explore(cfg);
  ASSERT_EQ(plain.violations.size(), 2u);
  EXPECT_EQ(plain.placements, 346u);
  EXPECT_EQ(plain.runs, plain.placements + plain.probe_runs);

  cfg.stop_after_units = 1'000'000;  // armed, never reached
  cfg.frontier_path = path;
  const ExploreResult hooked = check::explore(cfg);
  expect_same_exploration(plain, hooked);
  const FrontierFile frontier = check::load_frontier(path);
  EXPECT_TRUE(frontier.complete);
  ASSERT_EQ(frontier.records.size(), plain.placements);
  EXPECT_EQ(frontier.aggregate, plain.aggregate_hash);
  // The walks are the last 8 records: units (u0 + w, 0) past every base.
  const std::uint64_t u0 = frontier.records[frontier.records.size() - 8].u;
  for (std::uint64_t w = 0; w < 8; ++w) {
    const FrontierRecord& rec = frontier.records[frontier.records.size() - 8 + w];
    EXPECT_EQ(rec.u, u0 + w);
    EXPECT_EQ(rec.j, 0u);
  }
  EXPECT_GT(u0, frontier.records[frontier.records.size() - 9].u);

  std::remove(path.c_str());
  cfg.dedup = true;
  cfg.dedup_verify_every = 1;
  const ExploreResult deduped = check::explore(cfg);
  expect_same_exploration(plain, deduped);
  EXPECT_EQ(deduped.dedup_mismatches, 0u);
  std::remove(path.c_str());
}

// A verdict-dependent unit space has no shard-computable slices.
TEST(Frontier, ShardedEarlyStopSearchAndWalksAreRejected) {
  ExploreConfig cfg = targeted_config();
  cfg.random_walks = 0;
  cfg.shard_count = 2;
  EXPECT_THROW((void)check::explore(cfg), std::invalid_argument);
  cfg.exhaustive = true;  // no early stop: shardable
  cfg.max_bases = 2;
  EXPECT_NO_THROW((void)check::explore(cfg));
  cfg.random_walks = 1;  // walk seeds count the units of every shard
  EXPECT_THROW((void)check::explore(cfg), std::invalid_argument);
}

// --- resume after a kill -----------------------------------------------------

// Stopped mid-run and resumed from its frontier, an exploration ends in
// the bytes of a straight run — the exhaustive space, and the targeted
// search whose early stop and walks depend on the resumed verdicts.
TEST(Frontier, ResumeAfterStopYieldsByteIdenticalFrontier) {
  const std::string resumable = temp_path("frontier_resume.json");
  const std::string straight = temp_path("frontier_straight.json");
  for (ExploreConfig cfg : {smoke_config(), targeted_config()}) {
    std::remove(resumable.c_str());
    std::remove(straight.c_str());
    // The targeted search stops right after its violating base (units
    // 336 and 337): the resumed run must stop its search there too, from
    // the resumed verdicts alone, and go on to the walks.
    const std::size_t stop = cfg.exhaustive ? 40 : 337;
    cfg.frontier_path = resumable;
    cfg.checkpoint_every = 8;
    cfg.stop_after_units = stop;  // "kill" mid-run, after a checkpoint
    (void)check::explore(cfg);
    const FrontierFile at_stop = check::load_frontier(resumable);
    EXPECT_FALSE(at_stop.complete);
    // `total` only counts units enumerated so far (depth-2 units surface
    // lazily, base by base), so cursor == total here; incomplete is what
    // distinguishes a stopped run from a finished one.
    EXPECT_GE(at_stop.cursor, stop);

    cfg.stop_after_units = 0;
    const ExploreResult resumed = check::explore(cfg);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_TRUE(check::load_frontier(resumable).complete);

    cfg.frontier_path = straight;
    const ExploreResult whole = check::explore(cfg);
    EXPECT_FALSE(whole.resumed);
    expect_same_exploration(resumed, whole);
    EXPECT_EQ(slurp(resumable), slurp(straight));
    cfg.frontier_path.clear();  // and the same as without a frontier
    expect_same_exploration(whole, check::explore(cfg));
  }
  std::remove(resumable.c_str());
  std::remove(straight.c_str());
}

// --- merge validation --------------------------------------------------------

FrontierFile shard_stub(std::uint32_t index, std::uint32_t count) {
  FrontierFile f;
  f.fingerprint = 0xF00D;
  f.shard_index = index;
  f.shard_count = count;
  f.total = 1;
  f.cursor = 1;
  f.complete = true;
  FrontierRecord r;
  r.u = index;
  f.records.push_back(r);
  f.aggregate = check::fold_records(f.records);
  return f;
}

TEST(Frontier, MergeRejectsInvalidShardSets) {
  const FrontierFile s0 = shard_stub(0, 2);
  const FrontierFile s1 = shard_stub(1, 2);
  EXPECT_NO_THROW((void)check::merge_frontiers({s0, s1}));

  // Missing shard 1.
  EXPECT_THROW((void)check::merge_frontiers({s0}), std::runtime_error);
  // Duplicate shard index.
  EXPECT_THROW((void)check::merge_frontiers({s0, s0}), std::runtime_error);
  // Mixed fingerprints.
  FrontierFile other = s1;
  other.fingerprint = 0xBEEF;
  EXPECT_THROW((void)check::merge_frontiers({s0, other}), std::runtime_error);
  // Incomplete shard.
  FrontierFile unfinished = s1;
  unfinished.complete = false;
  EXPECT_THROW((void)check::merge_frontiers({s0, unfinished}),
               std::runtime_error);
}

// --- --shard parsing ---------------------------------------------------------

TEST(Frontier, ParseShardAcceptsOnlyValidSlices) {
  std::size_t index = 99;
  std::size_t count = 99;
  EXPECT_TRUE(campaign::parse_shard("0/1", index, count));
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(campaign::parse_shard("3/12", index, count));
  EXPECT_EQ(index, 3u);
  EXPECT_EQ(count, 12u);

  index = count = 99;
  EXPECT_FALSE(campaign::parse_shard("2/2", index, count));   // i >= N
  EXPECT_FALSE(campaign::parse_shard("0/0", index, count));   // N == 0
  EXPECT_FALSE(campaign::parse_shard("1", index, count));     // no slash
  EXPECT_FALSE(campaign::parse_shard("a/4", index, count));   // junk index
  EXPECT_FALSE(campaign::parse_shard("1/4x", index, count));  // junk count
  EXPECT_FALSE(campaign::parse_shard("", index, count));
  EXPECT_EQ(index, 99u);  // failures leave the outputs untouched
  EXPECT_EQ(count, 99u);
}

}  // namespace
}  // namespace canely::testing
