// Core-simulator microbenchmarks (DESIGN.md "Engine internals";
// EXPERIMENTS.md "perf_core"): wall-clock throughput of the hot paths
// every protocol experiment is built on —
//
//   * engine_churn  — events/sec through sim::Engine under a mixed
//     schedule / cancel / dispatch workload (the surveillance-timer
//     pattern: most alarms are cancelled and re-armed, few expire);
//   * engine_fifo   — events/sec for pure schedule -> dispatch chains;
//   * bus_load      — frames/sec through a near-saturated 8/32/64-node
//     bus (arbitration + serialization + delivery fan-out);
//   * membership_cycle — full CANELy membership formations/sec (8 nodes
//     join, converge to a common view), the end-to-end macro number.
//     The cell also carries the formation's deterministic work counts —
//     frames, engine queue pushes and re-keys, and both per frame —
//     which the CI gate compares exactly;
//   * net_medium    — delivered messages/sec through the lossy
//     point-to-point medium at 64 nodes (delay + loss + dup draws, the
//     per-copy cost floor under every net baseline);
//   * swim_steady   — delivered SWIM protocol messages/sec at 128 nodes
//     in failure-free steady state (probe rotation, acks, piggyback
//     encode/decode);
//   * check_explore — depth-2 exhaustive explorer placements/sec; its
//     `work` object (placements, simulated units, rejoins, dedup skips,
//     probes, task prefix runs, attempts skipped by restored units) is
//     compared exactly by the CI gate;
//   * trace_overhead — the bus_load workload with the obs recorder off
//     vs on: the structured-observability emit path (typed event into the
//     ring + counter adds) must cost <= 5% of hot-path throughput.
//   * telemetry_overhead — the check_explore workload with campaign
//     telemetry off vs on (live sampler thread, scratch JSONL sink): the
//     per-worker counter adds and stage timers must cost <= 2% of
//     explorer throughput.
//
// Unlike the protocol benches the measured values are wall-clock rates,
// so BENCH_core.json is a perf *trajectory* — comparable across commits
// on the same machine, not gated by thresholds.  The simulated workload
// itself is deterministic (sim::Rng, fixed seeds); only the timings vary.
//
//   perf_core [--reps N] [--quick] [--seed S] [--json PATH | --no-json]
//
// --quick divides every workload size by 10 (CI smoke).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/swim.hpp"
#include "campaign/campaign.hpp"
#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "check/explore.hpp"
#include "lint/lint.hpp"
#include "net/medium.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using namespace canely;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Division-free uniform reduction for the load generator: maps a
/// random 64-bit word into [0, bound) with a multiply-shift (Lemire).
/// Rng::below's unbiased rejection costs two data-dependent divisions
/// per draw — fine for simulation, but inside a timed loop it made the
/// harness division-bound and understated engine throughput by ~10%.
/// The negligible modulo bias is irrelevant for a load generator.
std::uint64_t reduce(std::uint64_t r, std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(r) * bound) >> 64);
}

/// Schedule/cancel churn: keep a working set of pending events; every
/// round schedules a burst, cancels random picks from that set, and
/// dispatches what comes due.  The callback capture (32 bytes) is
/// sized like the real timer/bus lambdas.  Returns engine operations
/// (schedule + cancel + dispatch) per wall-clock second.
///
/// Candidate ids live in a fixed 16-slot ring; a schedule overwrites a
/// random slot (the displaced event simply fires later, like a timer
/// nobody cancels) and a cancel draws a random slot, so roughly half
/// the cancels hit a still-pending event and the rest exercise the
/// stale-handle path.  An earlier version pushed every id into an
/// unbounded vector and never removed dispatched ones, so the vector
/// grew to millions of stale handles: essentially every cancel missed,
/// and the measured cost was the harness's own out-of-cache vector
/// shuffling — the benchmark had stopped measuring the engine.
double engine_churn_rate(std::uint64_t seed, std::uint64_t target_dispatches) {
  sim::Engine engine;
  sim::Rng rng{seed};
  constexpr std::size_t kRing = 16;
  sim::EventId ring[kRing] = {};
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  const std::uint64_t a = rng.next_u64(), b = rng.next_u64();
  const auto t0 = Clock::now();
  while (engine.dispatched() < target_dispatches) {
    for (int i = 0; i < 8; ++i) {
      ring[reduce(rng.next_u64(), kRing)] = engine.schedule_after(
          sim::Time::ns(1 + static_cast<std::int64_t>(
                                reduce(rng.next_u64(), 2000))),
          [&sink, a, b, s = ops] { sink += a ^ b ^ s; });
      ++ops;
    }
    for (int i = 0; i < 4; ++i) {
      const auto k = static_cast<std::size_t>(reduce(rng.next_u64(), kRing));
      if (engine.cancel(ring[k])) ring[k] = sim::EventId{};
      ++ops;
    }
    ops += engine.run_for(sim::Time::ns(1000));
  }
  const double secs = seconds_since(t0);
  if (sink == 0xdead) std::cerr << "";  // keep the accumulator observable
  return static_cast<double>(ops) / secs;
}

/// Pure FIFO throughput: schedule->dispatch chains with no cancellation.
double engine_fifo_rate(std::uint64_t target_dispatches) {
  sim::Engine engine;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  while (engine.dispatched() < target_dispatches) {
    for (int i = 0; i < 64; ++i) {
      engine.schedule_after(sim::Time::ns(1 + i), [&sink] { ++sink; });
    }
    engine.run_for(sim::Time::ns(128));
  }
  const double secs = seconds_since(t0);
  if (sink == 0xdead) std::cerr << "";
  return static_cast<double>(engine.dispatched()) / secs;
}

/// Near-saturated bus: n controllers, each offered one data frame per
/// n*frame_time/0.9, run until `target_frames` complete.  Frames/sec.
/// With `recorder` non-null every frame additionally feeds the obs emit
/// path (a kFrameTx event + per-node counters).
double bus_load_rate(std::size_t n, std::uint64_t target_frames,
                     obs::Recorder* recorder = nullptr) {
  sim::Engine engine;
  can::Bus bus{engine};
  bus.set_recorder(recorder);
  std::vector<std::unique_ptr<can::Controller>> ctl;
  ctl.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctl.push_back(
        std::make_unique<can::Controller>(static_cast<can::NodeId>(i), bus));
  }
  const std::uint8_t payload[4] = {0x5A, 0xA5, 0x0F, 0xF0};
  const auto proto = can::Frame::make_data(0x100, payload);
  const auto frame_time = sim::bits_to_time(
      static_cast<std::int64_t>(can::frame_bits_on_wire(proto) +
                                can::kIntermissionBits),
      bus.config().bit_rate_bps);
  // Offered load ~0.9 of capacity, spread round-robin over the nodes.
  const sim::Time period = frame_time * static_cast<std::int64_t>(n) * 10 / 9;
  struct Source {
    can::Controller* c;
    can::Frame frame;
  };
  std::vector<Source> sources;
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back(Source{
        ctl[i].get(),
        can::Frame::make_data(0x100 + static_cast<std::uint32_t>(i), payload)});
  }
  // One self-rescheduling pump per node, phase-staggered.
  std::function<void(std::size_t)> pump = [&](std::size_t i) {
    sources[i].c->request_tx(sources[i].frame);
    engine.schedule_after(period, [&pump, i] { pump(i); });
  };
  for (std::size_t i = 0; i < n; ++i) {
    engine.schedule_after(period * static_cast<std::int64_t>(i) /
                              static_cast<std::int64_t>(n),
                          [&pump, i] { pump(i); });
  }
  const auto t0 = Clock::now();
  while (bus.stats().ok < target_frames) {
    engine.run_for(sim::Time::ms(10));
  }
  const double secs = seconds_since(t0);
  return static_cast<double>(bus.stats().ok) / secs;
}

/// Deterministic work of one membership formation.
struct FormationWork {
  std::uint64_t frames{0};  ///< frames completed on the bus
  std::uint64_t pushes{0};  ///< engine queue pushes (schedules + re-keys)
  std::uint64_t rekeys{0};  ///< postponed engine entries re-keyed

  friend bool operator==(const FormationWork&,
                         const FormationWork&) = default;

  [[nodiscard]] double per_frame(std::uint64_t v) const {
    return static_cast<double>(v) / static_cast<double>(frames);
  }

  [[nodiscard]] json::Value to_json() const {
    json::Value w = json::Value::object();
    w.set("frames", json::Value::integer(static_cast<std::int64_t>(frames)));
    w.set("engine_pushes",
          json::Value::integer(static_cast<std::int64_t>(pushes)));
    w.set("engine_rekeys",
          json::Value::integer(static_cast<std::int64_t>(rekeys)));
    w.set("pushes_per_frame", json::Value::number(per_frame(pushes)));
    w.set("rekeys_per_frame", json::Value::number(per_frame(rekeys)));
    return w;
  }
};

/// Full membership formation: n nodes join and converge.  Formations/sec;
/// `work` receives the (identical) work counts of every formation.
double membership_cycle_rate(std::size_t n, std::uint64_t formations,
                             FormationWork& work) {
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < formations; ++k) {
    sim::Engine engine;
    can::Bus bus{engine};
    Params params;
    params.n = n;
    params.tx_delay_bound = sim::Time::ms(5);
    std::vector<std::unique_ptr<Node>> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<Node>(bus, static_cast<can::NodeId>(i), params));
    }
    for (auto& nd : nodes) nd->join();
    engine.run_until(sim::Time::ms(400));
    if (nodes[0]->view() != can::NodeSet::first_n(n)) {
      std::cerr << "perf_core: membership view did not form\n";
      return 0.0;
    }
    const FormationWork w{bus.stats().ok, engine.pushes(), engine.rekeys()};
    if (k > 0 && w != work) {
      std::cerr << "perf_core: membership work counts differ between "
                   "formations\n";
      return 0.0;
    }
    work = w;
  }
  return static_cast<double>(formations) / seconds_since(t0);
}

/// Lossy point-to-point medium throughput (DESIGN.md §13): n nodes,
/// each pumping unicasts to a rotating peer with every 16th send a
/// broadcast, under modest delay/loss/duplication draws.  Delivered
/// messages/sec — the per-copy cost floor under every net baseline.
double net_medium_rate(std::size_t n, std::uint64_t target_deliveries,
                       std::uint64_t seed) {
  sim::Engine engine;
  net::MediumConfig cfg;
  cfg.n = n;
  cfg.default_link.delay_min = sim::Time::us(50);
  cfg.default_link.delay_max = sim::Time::ms(1);
  cfg.default_link.drop_p = 0.01;
  cfg.default_link.dup_p = 0.01;
  net::Medium medium{engine, cfg, seed};
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < n; ++i) {
    medium.attach(static_cast<net::NodeId>(i),
                  [&sink](const net::Message& m) { sink += m.bytes.size(); });
  }
  const sim::Time period = sim::Time::us(100);
  std::uint64_t round = 0;
  std::function<void()> pump = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      net::Message m;
      m.from = static_cast<net::NodeId>(i);
      m.to = round % 16 == 15
                 ? net::kBroadcast
                 : static_cast<net::NodeId>((i + 1 + round % (n - 1)) % n);
      m.kind = 1;
      m.bytes.assign(24, static_cast<std::uint8_t>(round));
      medium.send(std::move(m));
    }
    ++round;
    engine.schedule_after(period, pump);
  };
  engine.schedule_after(sim::Time::zero(), pump);
  const auto t0 = Clock::now();
  while (medium.stats().delivered < target_deliveries) {
    engine.run_for(sim::Time::ms(10));
  }
  const double secs = seconds_since(t0);
  if (sink == 0xdead) std::cerr << "";
  return static_cast<double>(medium.stats().delivered) / secs;
}

/// SWIM steady state at n=128 on a clean medium: full protocol machinery
/// (probe rotation, acks, piggyback encode/decode) with no failures.
/// Delivered protocol messages/sec of wall clock.
double swim_steady_rate(std::size_t n, std::uint64_t target_deliveries,
                        std::uint64_t seed) {
  sim::Engine engine;
  net::MediumConfig cfg;
  cfg.n = n;
  cfg.default_link.delay_min = sim::Time::us(100);
  cfg.default_link.delay_max = sim::Time::ms(2);
  net::Medium medium{engine, cfg, seed};
  baselines::SwimCluster swim{medium, n, baselines::SwimParams{}, seed ^ 1};
  swim.start();
  const auto t0 = Clock::now();
  while (medium.stats().delivered < target_deliveries) {
    engine.run_for(sim::Time::ms(100));
  }
  const double secs = seconds_since(t0);
  if (!swim.views_agree(net::Members::all(n))) {
    std::cerr << "perf_core: SWIM steady state lost agreement\n";
    return 0.0;
  }
  return static_cast<double>(medium.stats().delivered) / secs;
}

/// Deterministic work of one check_explore run: what the explorer
/// resolved, and how (simulated, rejoined, skipped, probed), plus what
/// restoring units from checkpoints saved (prefix runs paid, attempts
/// not re-simulated).
struct ExploreWork {
  std::uint64_t placements{0};
  std::uint64_t sim_units{0};  ///< units simulated (runs minus probes)
  std::uint64_t rejoined{0};   ///< simulated units stopped on their base
  std::uint64_t dedup_skips{0};
  std::uint64_t probe_runs{0};
  std::uint64_t prefix_runs{0};       ///< task prefix simulations
  std::uint64_t attempts_skipped{0};  ///< sum of k over restored units

  friend bool operator==(const ExploreWork&, const ExploreWork&) = default;

  [[nodiscard]] json::Value to_json() const {
    json::Value w = json::Value::object();
    for (const auto& [name, v] :
         {std::pair{"placements", placements},
          std::pair{"sim_units", sim_units}, std::pair{"rejoined", rejoined},
          std::pair{"dedup_skips", dedup_skips},
          std::pair{"probe_runs", probe_runs},
          std::pair{"prefix_runs", prefix_runs},
          std::pair{"attempts_skipped", attempts_skipped}}) {
      w.set(name, json::Value::integer(static_cast<std::int64_t>(v)));
    }
    return w;
  }
};

/// Exploration-at-scale throughput (DESIGN.md §12): placements resolved
/// per second by the depth-2 exhaustive explorer over the n=8 membership
/// scenario.  `naive` off measures the scale engine (equivalence dedup +
/// per-base prefix probes); `naive` on costs out the re-run-from-zero
/// strategy — stateless workers re-simulating every proper prefix of
/// each unit's script, nothing shared — on a uniform 1/12 shard sample
/// of the same space (its per-unit cost is workload-size independent by
/// construction, so the sample keeps the cell affordable).  The ratio
/// between the two committed cells is the scale engine's speedup.
/// `work`, when given, receives the run's work counts.
double check_explore_rate(bool naive, std::size_t threads,
                          std::uint64_t scale,
                          obs::Telemetry* telemetry = nullptr,
                          ExploreWork* work = nullptr) {
  check::ExploreConfig cfg;
  cfg.scenario = check::ScenarioConfig::membership(8, /*fda_on=*/true);
  cfg.threads = threads;
  cfg.depth = 2;
  cfg.exhaustive = true;
  cfg.max_frames = 0;
  cfg.max_victim_sets = scale > 1 ? 4 : 6;
  cfg.max_bases = scale > 1 ? 24 : 120;
  cfg.depth2_targets = scale > 1 ? 8 : 0;
  cfg.dedup = !naive;
  cfg.naive_rerun = naive;
  cfg.telemetry = telemetry;
  if (naive) {
    cfg.shard_index = 0;
    cfg.shard_count = 12;
  }
  const auto t0 = Clock::now();
  const check::ExploreResult result = check::explore(cfg);
  const double secs = seconds_since(t0);
  if (result.placements == 0) {
    std::cerr << "perf_core: explorer resolved no placements\n";
    return 0.0;
  }
  if (work != nullptr) {
    *work = ExploreWork{result.placements, result.runs - result.probe_runs,
                        result.rejoined,    result.dedup_skips,
                        result.probe_runs,  result.prefix_runs,
                        result.attempts_skipped};
  }
  return static_cast<double>(result.placements) / secs;
}

/// lint_full_tree — the whole-program canely_lint pass (per-TU indexing,
/// call-graph merge, transitive analyses) over the real tree, in
/// files/sec.  Tracked so the CI lint stage's cost cannot silently
/// regress as the tree and the analyses grow.
double lint_full_tree_rate() {
  lint::Options lo;
  lo.whole_program = true;
  const auto t0 = Clock::now();
  lint::RunResult result;
  std::string error;
  if (!lint::lint_paths(CANELY_SOURCE_DIR,
                        {"src", "tests", "bench", "examples", "tools"}, lo,
                        result, error)) {
    std::cerr << "perf_core: lint walk failed: " << error << "\n";
    return 0.0;
  }
  const double secs = seconds_since(t0);
  if (result.files == 0 || secs <= 0.0) return 0.0;
  return static_cast<double>(result.files) / secs;
}

json::Value cell(const char* scenario, json::Value params,
                    const char* metric, const campaign::Summary& s) {
  params.set("scenario", json::Value::string(scenario));
  json::Value metrics = json::Value::object();
  metrics.set(metric, campaign::summary_json(s));
  json::Value c = json::Value::object();
  c.set("params", std::move(params));
  c.set("metrics", std::move(metrics));
  return c;
}

void report(const char* name, const campaign::Summary& s, const char* unit) {
  // Headline is the best-of rate — the tracked statistic (see
  // tools/ci.sh perf gate): on a shared host the max over reps is the
  // least noise-contaminated estimate of the true speed.
  std::cout << "  " << std::left << std::setw(24) << name << std::right
            << std::setw(12) << std::fixed << std::setprecision(0) << s.max
            << " " << unit << "  (p50 " << s.p50 << ", min " << s.min
            << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the perf-only flags before handing argv to the shared CLI.
  std::size_t reps = 5;
  std::uint64_t scale = 1;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (i > 0 && std::strcmp(argv[i], "--quick") == 0) {
      scale = 10;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto opts = campaign::parse_cli(static_cast<int>(rest.size()),
                                        rest.data(), "BENCH_core.json");
  if (opts.help) {
    campaign::print_cli_usage(argv[0]);
    std::cerr << "  --reps N      measurement repetitions (default 5)\n"
              << "  --quick       divide workload sizes by 10 (CI smoke)\n";
    return 2;
  }
  if (reps == 0) reps = 1;

  // Each measurement window must be long (>= ~50 ms) relative to host
  // scheduler preemption: on a shared machine a single stolen timeslice
  // inside a short window destroys that rep's rate.  Best-of over reps
  // (below) then recovers the machine's true speed.
  const std::uint64_t churn_events = 6'000'000 / scale;
  const std::uint64_t fifo_events = 6'000'000 / scale;
  const std::uint64_t bus_frames = 120'000 / scale;
  const std::uint64_t formations = 150 / scale + 1;
  const std::uint64_t net_deliveries = 600'000 / scale;
  const std::uint64_t swim_deliveries = 200'000 / scale;

  std::cout << "perf_core — simulator hot-path throughput (" << reps
            << " reps" << (scale > 1 ? ", quick" : "") << ")\n\n";

  std::vector<double> churn, fifo, members, net_med, swim_st, trace_off,
      trace_on, lint_tree;
  std::vector<std::vector<double>> bus_rates;
  FormationWork members_work;
  const std::size_t bus_sizes[] = {8, 32, 64};
  bus_rates.resize(std::size(bus_sizes));
  for (std::size_t r = 0; r < reps; ++r) {
    churn.push_back(engine_churn_rate(opts.seed + r, churn_events));
    fifo.push_back(engine_fifo_rate(fifo_events));
    for (std::size_t bi = 0; bi < std::size(bus_sizes); ++bi) {
      bus_rates[bi].push_back(bus_load_rate(bus_sizes[bi], bus_frames));
    }
    members.push_back(membership_cycle_rate(8, formations, members_work));
    lint_tree.push_back(lint_full_tree_rate());
    net_med.push_back(net_medium_rate(64, net_deliveries, opts.seed + r));
    swim_st.push_back(swim_steady_rate(128, swim_deliveries, opts.seed + r));
    // Back-to-back pair so the off/on ratio sees the same machine state;
    // alternating the order cancels any monotone drift (thermal, turbo
    // decay) that would otherwise bias whichever side always ran second.
    if (r % 2 == 0) {
      trace_off.push_back(bus_load_rate(8, bus_frames));
      obs::Recorder recorder;
      trace_on.push_back(bus_load_rate(8, bus_frames, &recorder));
    } else {
      {
        obs::Recorder recorder;
        trace_on.push_back(bus_load_rate(8, bus_frames, &recorder));
      }
      trace_off.push_back(bus_load_rate(8, bus_frames));
    }
  }

  const auto churn_s = campaign::summarize(churn);
  const auto fifo_s = campaign::summarize(fifo);
  const auto members_s = campaign::summarize(members);
  report("engine_churn", churn_s, "ops/s");
  report("engine_fifo", fifo_s, "events/s");
  json::Value cells = json::Value::array();
  cells.push(cell("engine_churn", json::Value::object(), "events_per_sec",
                  churn_s));
  cells.push(cell("engine_fifo", json::Value::object(), "events_per_sec",
                  fifo_s));
  for (std::size_t bi = 0; bi < std::size(bus_sizes); ++bi) {
    const auto s = campaign::summarize(bus_rates[bi]);
    const std::string label =
        "bus_load_n" + std::to_string(bus_sizes[bi]);
    report(label.c_str(), s, "frames/s");
    json::Value params = json::Value::object();
    params.set("nodes", json::Value::integer(
                            static_cast<std::int64_t>(bus_sizes[bi])));
    cells.push(cell("bus_load", std::move(params), "frames_per_sec", s));
  }
  report("membership_cycle", members_s, "formations/s");
  std::cout << "  membership_cycle work: " << members_work.frames
            << " frames, " << std::setprecision(2)
            << members_work.per_frame(members_work.pushes)
            << " engine pushes and "
            << members_work.per_frame(members_work.rekeys)
            << " re-keys per frame\n";
  {
    json::Value params = json::Value::object();
    params.set("nodes", json::Value::integer(8));
    json::Value c = cell("membership_cycle", std::move(params),
                         "formations_per_sec", members_s);
    c.set("work", members_work.to_json());
    cells.push(std::move(c));
  }
  const auto lint_s = campaign::summarize(lint_tree);
  report("lint_full_tree", lint_s, "files/s");
  cells.push(cell("lint_full_tree", json::Value::object(),
                  "files_per_sec", lint_s));
  const auto net_med_s = campaign::summarize(net_med);
  const auto swim_st_s = campaign::summarize(swim_st);
  report("net_medium_n64", net_med_s, "msgs/s");
  report("swim_steady_n128", swim_st_s, "msgs/s");
  {
    json::Value params = json::Value::object();
    params.set("nodes", json::Value::integer(64));
    cells.push(cell("net_medium", std::move(params), "msgs_per_sec",
                    net_med_s));
  }
  {
    json::Value params = json::Value::object();
    params.set("nodes", json::Value::integer(128));
    cells.push(cell("swim_steady", std::move(params), "msgs_per_sec",
                    swim_st_s));
  }
  // Exploration cells run fewer reps: each rep is a seconds-long
  // deterministic workload (noise-robust on its own), and the naive
  // comparator triples every unit's cost by design.
  const std::size_t explore_reps = reps < 3 ? reps : 3;
  std::vector<double> explore_on, explore_naive;
  ExploreWork explore_work;
  for (std::size_t r = 0; r < explore_reps; ++r) {
    ExploreWork w;
    explore_on.push_back(check_explore_rate(/*naive=*/false, opts.threads,
                                            scale, nullptr, &w));
    if (r > 0 && w != explore_work) {
      std::cerr << "perf_core: check_explore work counts differ between "
                   "reps\n";
      explore_on.back() = 0.0;
    }
    explore_work = w;
    explore_naive.push_back(
        check_explore_rate(/*naive=*/true, opts.threads, scale));
  }
  const auto explore_on_s = campaign::summarize(explore_on);
  const auto explore_naive_s = campaign::summarize(explore_naive);
  report("check_explore", explore_on_s, "placements/s");
  report("check_explore_naive", explore_naive_s, "placements/s");
  std::cout << "  check_explore work: " << explore_work.placements
            << " placements, " << explore_work.sim_units
            << " simulated units (" << explore_work.rejoined
            << " rejoined), " << explore_work.dedup_skips
            << " dedup skips, " << explore_work.probe_runs << " probes, "
            << explore_work.prefix_runs << " prefix runs ("
            << explore_work.attempts_skipped << " attempts skipped)\n";
  std::cout << "  check_explore: scale engine resolves placements "
            << std::setprecision(1)
            << explore_on_s.max / explore_naive_s.max
            << "x faster than naive re-run-from-zero\n";
  for (int naive = 0; naive <= 1; ++naive) {
    json::Value params = json::Value::object();
    params.set("nodes", json::Value::integer(8));
    json::Value c =
        cell(naive != 0 ? "check_explore_naive" : "check_explore",
             std::move(params), "placements_per_sec",
             naive != 0 ? explore_naive_s : explore_on_s);
    if (naive == 0) c.set("work", explore_work.to_json());
    cells.push(std::move(c));
  }
  // Campaign-telemetry overhead on the same explorer workload.  Same
  // back-to-back alternating-order protocol as trace_overhead; the "on"
  // side runs a real service (live sampler thread, JSONL sink) so the
  // cell prices the whole feature, not just the counter adds.
  const char* tel_scratch = "BENCH_core.telemetry_scratch.jsonl";
  std::vector<double> tel_off, tel_on;
  const auto tel_on_rate = [&] {
    obs::TelemetryConfig tcfg;
    tcfg.path = tel_scratch;
    tcfg.sample_period_ms = 250;
    obs::Telemetry telemetry{std::move(tcfg)};
    return check_explore_rate(/*naive=*/false, opts.threads, scale,
                              &telemetry);
  };
  for (std::size_t r = 0; r < explore_reps; ++r) {
    if (r % 2 == 0) {
      tel_off.push_back(check_explore_rate(/*naive=*/false, opts.threads,
                                           scale));
      tel_on.push_back(tel_on_rate());
    } else {
      tel_on.push_back(tel_on_rate());
      tel_off.push_back(check_explore_rate(/*naive=*/false, opts.threads,
                                           scale));
    }
  }
  std::remove(tel_scratch);
  const auto tel_off_s = campaign::summarize(tel_off);
  const auto tel_on_s = campaign::summarize(tel_on);
  report("telemetry_overhead tel=0", tel_off_s, "placements/s");
  report("telemetry_overhead tel=1", tel_on_s, "placements/s");
  std::cout << "  telemetry_overhead: telemetry costs "
            << std::setprecision(1)
            << 100.0 * (1.0 - tel_on_s.max / tel_off_s.max)
            << "% of check_explore throughput (target <= 2%)\n";
  for (int tel = 0; tel <= 1; ++tel) {
    json::Value params = json::Value::object();
    params.set("tel", json::Value::integer(tel));
    cells.push(cell("telemetry_overhead", std::move(params),
                    "placements_per_sec", tel != 0 ? tel_on_s : tel_off_s));
  }
  const auto trace_off_s = campaign::summarize(trace_off);
  const auto trace_on_s = campaign::summarize(trace_on);
  report("trace_overhead obs=0", trace_off_s, "frames/s");
  report("trace_overhead obs=1", trace_on_s, "frames/s");
  // Best-of rates: the max over reps is the least noise-contaminated
  // estimate of each configuration's true speed on a shared machine.
  std::cout << "  trace_overhead: recorder costs " << std::setprecision(1)
            << 100.0 * (1.0 - trace_on_s.max / trace_off_s.max)
            << "% of bus_load:8 throughput (target <= 5%)\n";
  for (int obs_on = 0; obs_on <= 1; ++obs_on) {
    json::Value params = json::Value::object();
    params.set("obs", json::Value::integer(obs_on));
    cells.push(cell("trace_overhead", std::move(params), "frames_per_sec",
                    obs_on != 0 ? trace_on_s : trace_off_s));
  }

  if (!opts.json_path.empty()) {
    json::Value root = json::Value::object();
    root.set("bench", json::Value::string("perf_core"));
    root.set("master_seed",
             json::Value::integer(static_cast<std::int64_t>(opts.seed)));
    root.set("repeats",
             json::Value::integer(static_cast<std::int64_t>(reps)));
    root.set("cells", std::move(cells));
    if (!campaign::emit_trajectory(root, opts)) return 1;
  }
  return 0;
}
