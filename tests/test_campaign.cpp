// Tests for the deterministic campaign runner (src/campaign): grid
// enumeration, seed forking, the sequential/parallel byte-identity
// contract (results AND dumped JSON), cancellation, exception
// propagation, aggregation, and the shared bench CLI.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "sim/rng.hpp"
#include "testing.hpp"

namespace canely::testing {
namespace {

using campaign::Grid;
using campaign::Runner;
using campaign::RunSpec;
using sim::Time;

// --- grid enumeration -------------------------------------------------------

TEST(CampaignGrid, EnumeratesCartesianProductFirstAxisSlowest) {
  Grid g;
  g.axis("a", {1, 2, 3}).axis("b", {10, 20}).repeats(2).master_seed(7);
  EXPECT_EQ(g.cells(), 6u);
  EXPECT_EQ(g.size(), 12u);

  // index = ((ia * 2) + ib) * 2 + repeat: axis "a" slowest, repeat innermost.
  const RunSpec r0 = g.run(0);
  EXPECT_EQ(r0.cell, 0u);
  EXPECT_EQ(r0.repeat, 0u);
  EXPECT_EQ(r0.param("a"), 1);
  EXPECT_EQ(r0.param("b"), 10);

  const RunSpec r3 = g.run(3);  // cell 1 (a=1, b=20), repeat 1
  EXPECT_EQ(r3.cell, 1u);
  EXPECT_EQ(r3.repeat, 1u);
  EXPECT_EQ(r3.param("a"), 1);
  EXPECT_EQ(r3.param("b"), 20);

  const RunSpec r11 = g.run(11);  // last: a=3, b=20, repeat 1
  EXPECT_EQ(r11.cell, 5u);
  EXPECT_EQ(r11.repeat, 1u);
  EXPECT_EQ(r11.param("a"), 3);
  EXPECT_EQ(r11.param("b"), 20);

  EXPECT_THROW((void)r0.param("missing"), std::out_of_range);
}

TEST(CampaignGrid, SeedsArePureFunctionsOfTheIndex) {
  Grid g;
  g.axis("x", {0, 1}).repeats(4).master_seed(1234);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < g.size(); ++i) {
    seeds.push_back(g.run(i).seed);
    EXPECT_EQ(g.run(i).seed, campaign::fork_seed(1234, i)) << "index " << i;
  }
  // All distinct (forked, not sequential draws from one stream)...
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
    }
  }
  // ...and stable across re-enumeration.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.run(i).seed, seeds[i]);
  }
}

// --- the determinism contract ----------------------------------------------

/// A run function with real seed-dependent branching: mixes the seed and
/// the axis values through a private RNG stream.
double synthetic_trial(const RunSpec& spec) {
  sim::Rng rng{spec.seed};
  double acc = spec.param("x") * 1000 + spec.param("y");
  const int steps = static_cast<int>(16 + rng.below(16));
  for (int s = 0; s < steps; ++s) acc += rng.uniform01();
  return acc;
}

TEST(CampaignRunner, ParallelResultsAreByteIdenticalToSequential) {
  Grid g;
  g.axis("x", {0, 1, 2, 3}).axis("y", {5, 6}).repeats(4).master_seed(99);
  ASSERT_EQ(g.size(), 32u);

  const auto seq = Runner{1}.run<double>(g, synthetic_trial);
  ASSERT_EQ(seq.completed, g.size());
  // Repeat the parallel campaign several times: scheduling noise across
  // attempts must never reach the results.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto par = Runner{4}.run<double>(g, synthetic_trial);
    ASSERT_EQ(par.completed, g.size()) << "attempt " << attempt;
    EXPECT_FALSE(par.cancelled);
    for (std::size_t i = 0; i < g.size(); ++i) {
      // Bitwise equality, not tolerance: the slots must hold the very
      // same doubles the sequential pass produced.
      EXPECT_EQ(seq.results[i], par.results[i])
          << "run " << i << " attempt " << attempt;
    }
  }
}

/// A run function that builds a full simulation universe per run, the way
/// the benches do: a 3-node cluster, one seed-chosen crash, detection
/// latency in microseconds.
double simulated_trial(const RunSpec& spec) {
  sim::Rng rng{spec.seed};
  Params p;
  p.heartbeat_period = Time::ms(5 + spec.param("hb"));
  Cluster c{3, p};
  c.join_all();
  c.settle(Time::ms(500));
  if (!c.views_agree(can::NodeSet::first_n(3))) return -1.0;

  const auto victim = static_cast<std::size_t>(rng.below(3));
  const std::size_t observer = (victim + 1) % 3;
  can::NodeSet expect = can::NodeSet::first_n(3);
  expect.erase(static_cast<can::NodeId>(victim));

  const Time crashed_at = c.engine().now();
  c.node(victim).crash();
  while (c.node(observer).view() != expect) {
    if (c.engine().now() - crashed_at > Time::ms(200)) return -2.0;
    c.settle(Time::us(100));
  }
  return static_cast<double>((c.engine().now() - crashed_at).to_us());
}

TEST(CampaignRunner, SimulationBackedRunsAreThreadCountInvariant) {
  Grid g;
  g.axis("hb", {0, 5}).repeats(3).master_seed(2026);
  const auto seq = Runner{1}.run<double>(g, simulated_trial);
  const auto par = Runner{4}.run<double>(g, simulated_trial);
  ASSERT_EQ(seq.completed, g.size());
  ASSERT_EQ(par.completed, g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(seq.results[i], par.results[i]) << "run " << i;
    EXPECT_GT(seq.results[i], 0.0) << "run " << i;  // detected, no timeout
  }
}

/// Dump an Outcome exactly the way the benches build their trajectories.
std::string dump_trajectory(const Grid& g,
                            const campaign::Outcome<double>& out) {
  json::Value root = campaign::trajectory_header("test_campaign", g);
  json::Value cells = json::Value::array();
  for (std::size_t cell = 0; cell < g.cells(); ++cell) {
    std::vector<double> samples;
    for (const double* r : out.cell(g, cell)) samples.push_back(*r);
    const campaign::Summary s = campaign::summarize(samples);
    json::Value jc = json::Value::object();
    for (const auto& [name, value] : g.cell_params(cell)) {
      jc.set(name, json::Value::number(value));
    }
    jc.set("mean", json::Value::number(s.mean));
    jc.set("p90", json::Value::number(s.p90));
    jc.set("stddev", json::Value::number(s.stddev));
    cells.push(std::move(jc));
  }
  root.set("cells", std::move(cells));
  return root.dump(2);
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// The goldenized determinism contract for the simulator core: a
// simulation-backed campaign (full node stack — engine, timers, bus,
// membership — with a seed-chosen crash per run) must dump byte-identical
// JSON across engine/bus rewrites.  The constant was captured from the
// pre-optimization engine (PR 1); any change to event dispatch order,
// timer semantics, or bus delivery order shows up here as a hash change.
TEST(CampaignRunner, GoldenTrajectoryHashIsStable) {
  Grid g;
  g.axis("hb", {0, 5}).repeats(3).master_seed(2026);
  const std::string json =
      dump_trajectory(g, Runner{1}.run<double>(g, simulated_trial));
  EXPECT_EQ(fnv1a(json), 1069868970218217984ULL)
      << "trajectory bytes changed — event dispatch order is no longer "
         "identical to the goldenized engine:\n"
      << json;
}

TEST(CampaignRunner, DumpedJsonIsByteIdenticalAcrossThreadCounts) {
  Grid g;
  g.axis("x", {1, 2, 3}).axis("y", {0, 1}).repeats(5).master_seed(4242);
  const std::string seq =
      dump_trajectory(g, Runner{1}.run<double>(g, synthetic_trial));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const std::string par =
        dump_trajectory(g, Runner{threads}.run<double>(g, synthetic_trial));
    EXPECT_EQ(seq, par) << "threads=" << threads;
  }
}

// --- cancellation -----------------------------------------------------------

TEST(CampaignRunner, CancelFromRunBodyStopsClaimingSequential) {
  Grid g;
  g.axis("x", {0}).repeats(64).master_seed(1);
  Runner runner{1};
  const auto out = runner.run<double>(g, [&](const RunSpec& spec) {
    if (spec.index == 4) runner.cancel();
    return static_cast<double>(spec.index);
  });
  EXPECT_TRUE(out.cancelled);
  // Sequential: indices claimed in order, the cancelling run completes.
  EXPECT_EQ(out.completed, 5u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(out.done[i] != 0, i <= 4) << "slot " << i;
    if (out.done[i]) {
      EXPECT_EQ(out.results[i], static_cast<double>(i));
    }
  }
}

TEST(CampaignRunner, CancelMidCampaignParallelLeavesConsistentOutcome) {
  Grid g;
  g.axis("x", {0}).repeats(256).master_seed(1);
  Runner runner{4};
  std::atomic<std::size_t> started{0};
  const auto out = runner.run<double>(g, [&](const RunSpec& spec) {
    if (started.fetch_add(1) == 20) runner.cancel();
    return static_cast<double>(spec.index) * 2;
  });
  EXPECT_TRUE(out.cancelled);
  // In-flight runs complete; nothing new is claimed afterwards.
  EXPECT_LT(out.completed, g.size());
  EXPECT_GE(out.completed, 1u);
  std::size_t done_count = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (out.done[i]) {
      ++done_count;
      // Every completed slot holds its own run's value — never another
      // run's (the slot-by-index discipline holds under cancellation).
      EXPECT_EQ(out.results[i], static_cast<double>(i) * 2) << "slot " << i;
    }
  }
  EXPECT_EQ(done_count, out.completed);
}

TEST(CampaignRunner, CancellationIsNotStickyAcrossCampaigns) {
  Grid g;
  g.axis("x", {0}).repeats(8).master_seed(1);
  Runner runner{2};
  const auto first = runner.run<double>(g, [&](const RunSpec& spec) {
    runner.cancel();
    return static_cast<double>(spec.index);
  });
  EXPECT_TRUE(first.cancelled);
  const auto second =
      runner.run<double>(g, [](const RunSpec& spec) {
        return static_cast<double>(spec.index);
      });
  EXPECT_FALSE(second.cancelled);
  EXPECT_EQ(second.completed, g.size());
}

TEST(CampaignRunner, RunExceptionAbortsCampaignAndRethrows) {
  Grid g;
  g.axis("x", {0}).repeats(32).master_seed(1);
  Runner runner{4};
  EXPECT_THROW(runner.run<double>(g,
                                  [](const RunSpec& spec) -> double {
                                    if (spec.index == 3) {
                                      throw std::runtime_error{"boom"};
                                    }
                                    return 0.0;
                                  }),
               std::runtime_error);
}

// --- aggregation ------------------------------------------------------------

TEST(CampaignAggregate, SummarizeAndPercentilesAreExact) {
  const std::vector<double> samples{5, 1, 4, 2, 3};
  const campaign::Summary s = campaign::summarize(samples);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.p50, 3.0);   // nearest rank
  EXPECT_EQ(s.p90, 5.0);
  EXPECT_EQ(s.p99, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);

  EXPECT_EQ(campaign::percentile(samples, 0), 1.0);
  EXPECT_EQ(campaign::percentile(samples, 100), 5.0);
  EXPECT_EQ(campaign::percentile(std::vector<double>{}, 50), 0.0);

  const std::vector<std::uint8_t> flags{1, 0, 1, 1};
  EXPECT_DOUBLE_EQ(campaign::fraction_true(flags), 0.75);
  EXPECT_DOUBLE_EQ(campaign::total(samples), 15.0);

  const campaign::Summary empty = campaign::summarize(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean, 0.0);
}

TEST(CampaignJson, NumbersFormatShortestRoundTrip) {
  EXPECT_EQ(json::format_number(0.005), "0.005");
  EXPECT_EQ(json::format_number(30), "30");
  EXPECT_EQ(json::format_number(-1.5), "-1.5");
  json::Value o = json::Value::object();
  o.set("b", json::Value::boolean(true));
  // Insertion order preserved, no sorting.
  o.set("a", json::Value::integer(-3));
  EXPECT_EQ(o.dump(), "{\"b\":true,\"a\":-3}");
}

// --- the shared bench CLI ---------------------------------------------------

TEST(CampaignCli, ParsesSharedFlags) {
  const char* argv[] = {"bench", "--threads", "3", "--seed", "77",
                        "--json", "out.json"};
  const auto opts = campaign::parse_cli(7, const_cast<char**>(argv), "d.json");
  EXPECT_FALSE(opts.help);
  EXPECT_EQ(opts.threads, 3u);
  EXPECT_EQ(opts.seed, 77u);
  EXPECT_EQ(opts.json_path, "out.json");
}

TEST(CampaignCli, DefaultsAndNoJson) {
  const char* argv1[] = {"bench"};
  const auto defaults =
      campaign::parse_cli(1, const_cast<char**>(argv1), "d.json");
  EXPECT_EQ(defaults.threads, 0u);
  EXPECT_EQ(defaults.seed, 42u);
  EXPECT_EQ(defaults.json_path, "d.json");

  const char* argv2[] = {"bench", "--no-json"};
  const auto nojson =
      campaign::parse_cli(2, const_cast<char**>(argv2), "d.json");
  EXPECT_TRUE(nojson.json_path.empty());

  const char* argv3[] = {"bench", "--frobnicate"};
  const auto unknown =
      campaign::parse_cli(2, const_cast<char**>(argv3), "");
  EXPECT_TRUE(unknown.help);  // unknown flags must not be silently eaten
}

TEST(CampaignCli, ShardIsNotACampaignFlag) {
  // A campaign bench runs its whole grid: --shard would be parsed and
  // then ignored, so it is rejected like any unknown flag.
  const char* argv[] = {"bench", "--shard", "1/20"};
  const auto opts = campaign::parse_cli(3, const_cast<char**>(argv), "");
  EXPECT_TRUE(opts.help);
}

}  // namespace
}  // namespace canely::testing
