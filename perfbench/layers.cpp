// perfbench_layers — the benchmark's traced run: times calls into each
// layer's public API and reads the counters those APIs expose.  The spans
// live here, around the calls, not inside the program.
//
//   perfbench_layers stack [--reps N]
//       Stack-only replay of the membership scenario (sim::Engine +
//       can::Bus + canely::Node, without the harness's injector, monitors
//       and observers) at n=8 (FDA on) and n=10 (FDA off), interleaved
//       with check::run_checked on the same fault-free script.
//   perfbench_layers counterexample --artifact PATH --telemetry PATH
//                    [--nodes N] [--walks W] [--seed S]
//       check::explore (targeted depth 2, FDA off) -> check::shrink ->
//       flight-recorder run -> check::write_artifact -> load_artifact ->
//       replay, each call timed; campaign telemetry attached to explore.
//   perfbench_layers cells [--seed S] [--quick]
//       Rebuilds membership_shootout cells from the public cluster,
//       medium and node APIs, timing each cell and its phases and
//       sampling engine.pending() at every run_until step.
//
// Each subcommand prints one JSON object on stdout (doubles with 17
// significant digits, so they parse back to the exact value) and exits 0;
// usage or I/O errors exit 2.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/latency.hpp"
#include "baselines/gossip.hpp"
#include "baselines/rapid.hpp"
#include "baselines/swim.hpp"
#include "campaign/grid.hpp"
#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "check/artifact.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "check/shrink.hpp"
#include "net/medium.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"

namespace {

using namespace canely;
using sim::Time;
using Clock = std::chrono::steady_clock;

/// Worker threads of the parallel subcommands; run.py's THREADS, which
/// every measured process of the benchmark uses.
constexpr std::size_t kThreads = 2;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

/// Flat insertion-ordered JSON object writer for this tool's output.
class Obj {
 public:
  Obj& add(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& add(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  Obj& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quoted(key) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Highest percentile with at least ten samples beyond it (nearest rank).
double tail_percentile(std::vector<double> v, double* pct) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : 0;
  *pct = v.empty() ? 0 : 100.0 * static_cast<double>(idx + 1) /
                             static_cast<double>(v.size());
  return v.empty() ? 0 : v[idx];
}

// -- stack ----------------------------------------------------------------

struct StackUnit {
  double construct_us{0};
  double run_us{0};
  double unit_us{0};  ///< construct + join/run + teardown
  std::uint64_t events{0};
  std::uint64_t frames{0};
  std::uint64_t bits{0};
};

/// One fault-free unit of the scenario on the bare stack: the harness's
/// engine/bus/node wiring, node arena included, without its injector,
/// monitors or observers — so run_checked minus this is the harness's cost.
StackUnit stack_unit(const check::ScenarioConfig& cfg, sim::Arena& arena) {
  StackUnit u;
  const auto t0 = Clock::now();
  {
    sim::Engine engine;
    can::BusConfig bus_cfg;
    bus_cfg.clustering = cfg.clustering;
    can::Bus bus{engine, bus_cfg};
    struct ArenaScope {
      sim::Arena& a;
      ~ArenaScope() { a.reset(); }
    } arena_scope{arena};  // nodes die before the bus
    std::vector<Node*> nodes;
    nodes.reserve(cfg.n);
    for (std::size_t i = 0; i < cfg.n; ++i) {
      nodes.push_back(
          arena.make<Node>(bus, static_cast<can::NodeId>(i), cfg.params));
    }
    const auto t1 = Clock::now();
    for (Node* node : nodes) node->join();
    engine.run_until(cfg.duration);
    u.construct_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    u.run_us = secs_since(t1) * 1e6;
    u.events = engine.dispatched();
    u.frames = bus.stats().attempts;
    u.bits = bus.stats().bits_total;
  }
  u.unit_us = secs_since(t0) * 1e6;
  return u;
}

int cmd_stack(std::size_t reps) {
  struct Case {
    std::string tag;
    check::ScenarioConfig cfg;
    std::vector<double> construct, run, unit, harness;
    StackUnit first;
    bool repeat_ok{true};
  };
  // n=8 FDA on is explore_exhaustive's scenario, n=10 FDA off
  // explore_ablation's.
  std::array<Case, 2> cases;
  cases[0].tag = "n8";
  cases[0].cfg = check::ScenarioConfig::membership(8, /*fda_on=*/true);
  cases[1].tag = "n10";
  cases[1].cfg = check::ScenarioConfig::membership(10, /*fda_on=*/false);
  sim::Arena arena;
  const std::size_t warmup = std::max<std::size_t>(1, reps / 20);
  for (std::size_t r = 0; r < warmup + reps; ++r) {
    // Interleave both sizes, bare stack and harness, so drift in the
    // host's speed hits all four series alike.
    for (Case& c : cases) {
      const StackUnit u = stack_unit(c.cfg, arena);
      const auto t0 = Clock::now();
      const check::RunResult h = check::run_checked(c.cfg, {});
      const double h_us = secs_since(t0) * 1e6;
      if (r == 0) c.first = u;
      c.repeat_ok = c.repeat_ok && u.events == c.first.events &&
                    u.frames == c.first.frames && u.bits == c.first.bits &&
                    h.attempts == c.first.frames && h.violations.empty();
      if (r < warmup) continue;
      c.construct.push_back(u.construct_us);
      c.run.push_back(u.run_us);
      c.unit.push_back(u.unit_us);
      c.harness.push_back(h_us);
    }
  }
  Obj out;
  for (const Case& c : cases) {
    const std::string& t = c.tag;
    double pct = 0;
    const double unit_tail = tail_percentile(c.unit, &pct);
    out.add("sim.events_per_unit." + t, static_cast<double>(c.first.events))
        .add("can.frames_per_unit." + t, static_cast<double>(c.first.frames))
        .add("can.bits_per_unit." + t, static_cast<double>(c.first.bits))
        .add("stack.construct_us." + t, median(c.construct))
        .add("stack.run_us." + t, median(c.run))
        .add("stack.us_per_unit." + t, median(c.unit))
        .add("stack.us_per_unit_tail." + t, unit_tail)
        .add("stack.tail_pct." + t, pct)
        .add("harness.us_per_unit." + t, median(c.harness))
        .add("stack.samples." + t, static_cast<double>(c.unit.size()))
        .add("stack.repeatable." + t, c.repeat_ok);
  }
  std::cout << out.str() << "\n";
  return 0;
}

// -- counterexample --------------------------------------------------------

int cmd_counterexample(std::size_t nodes, std::size_t walks,
                       std::uint64_t seed, const std::string& artifact_path,
                       const std::string& telemetry_path) {
  obs::TelemetryConfig tcfg;
  tcfg.path = telemetry_path;
  tcfg.sample_period_ms = 0;  // one snapshot, taken below
  tcfg.label = "perfbench";
  obs::Telemetry telemetry{tcfg};

  // The same configuration check_explorer builds for
  // `--no-fda --nodes N --random-walks W --seed S --threads 2`.
  check::ExploreConfig cfg;
  cfg.scenario = check::ScenarioConfig::membership(nodes, /*fda_on=*/false);
  cfg.depth = 2;
  cfg.random_walks = walks;
  cfg.seed = seed;
  cfg.threads = kThreads;
  cfg.telemetry = &telemetry;

  auto t0 = Clock::now();
  const check::ExploreResult result = check::explore(cfg);
  const double search_s = secs_since(t0);

  Obj out;
  out.add("placements", static_cast<double>(result.placements))
      .add("runs", static_cast<double>(result.runs))
      .add("search_s", search_s);
  if (result.violations.empty()) {
    (void)telemetry.sample_now();
    out.add("found", false);
    std::cout << out.str() << "\n";
    return 0;
  }
  const check::FoundViolation& found = result.violations.front();

  t0 = Clock::now();
  const check::ShrinkResult shrunk =
      check::shrink(cfg.scenario, found.script, found.violation.monitor);
  const double shrink_s = secs_since(t0);
  telemetry.add(obs::TelemetryCounter::kShrinkSteps, shrunk.probes);

  t0 = Clock::now();
  obs::Recorder flight;
  const check::RunResult flight_run = check::run_checked(
      cfg.scenario, shrunk.script, /*want_tx_log=*/false, &flight);
  check::Artifact artifact;
  artifact.scenario = cfg.scenario;
  artifact.script = shrunk.script;
  artifact.monitor = shrunk.violation.monitor;
  artifact.trace_hash = flight_run.trace_hash;
  artifact.violation = shrunk.violation;
  artifact.flight.present = true;
  artifact.flight.ring_capacity = flight.ring().capacity();
  artifact.flight.dropped = flight.ring().dropped();
  for (std::size_t i = 0; i < flight.ring().size(); ++i) {
    artifact.flight.events.push_back(flight.ring().at(i));
  }
  artifact.flight.has_metrics = true;
  artifact.flight.metrics = flight.metrics().snapshot_json(true);
  const double flight_s = secs_since(t0);

  t0 = Clock::now();
  try {
    check::write_artifact(artifact_path, artifact);
  } catch (const std::exception& e) {
    std::cerr << "artifact: " << e.what() << "\n";
    return 2;
  }
  const double write_s = secs_since(t0);
  const auto bytes = std::filesystem::file_size(artifact_path);

  t0 = Clock::now();
  check::Artifact loaded;
  try {
    loaded = check::load_artifact(artifact_path);
  } catch (const std::exception& e) {
    std::cerr << "artifact: " << e.what() << "\n";
    return 2;
  }
  const double load_s = secs_since(t0);
  const check::RunResult replay =
      check::run_checked(loaded.scenario, loaded.script);
  const double replay_s = secs_since(t0);
  bool fired = false;
  for (const check::Violation& v : replay.violations) {
    fired = fired || v.monitor == loaded.monitor;
  }
  (void)telemetry.sample_now();

  out.add("found", true)
      .add("monitor", found.violation.monitor)
      .add("found_events", static_cast<double>(found.script.size()))
      .add("shrunk_events", static_cast<double>(shrunk.script.size()))
      .add("shrink_probes", static_cast<double>(shrunk.probes))
      .add("reproduced", fired && replay.trace_hash == loaded.trace_hash)
      .add("shrink_s", shrink_s)
      .add("flight_s", flight_s)
      .add("artifact_write_s", write_s)
      .add("artifact_bytes", static_cast<double>(bytes))
      .add("artifact_load_s", load_s)
      .add("replay_s", replay_s);
  std::cout << out.str() << "\n";
  return 0;
}

// -- shootout cells ----------------------------------------------------------
//
// The cell bodies below follow bench/membership_shootout.cpp step for step
// (same constants, medium model, recorder policy and polling), so their
// curves must equal the shootout's JSON at the same seed; run.py checks
// that in every traced run.

enum class Proto { kCanely = 0, kSwim = 1, kGossip = 2, kRapid = 3 };
constexpr std::array<const char*, 4> kProtoNames = {"canely", "swim",
                                                    "gossip", "rapid"};
const std::vector<double> kSizes = {8, 32, 128, 512, 1024};

constexpr Time kSteadyStart = Time::sec(3);
constexpr Time kCrashAt = Time::sec(8);
constexpr Time kConvergeBy = Time::sec(60);
constexpr Time kPollStep = Time::ms(100);

Time scaled_tx_delay_bound(std::size_t n) {
  return std::max(Time::ms(2), Time::us(125) * static_cast<std::int64_t>(n));
}

struct CellOut {
  std::string proto;
  std::size_t n{0};
  std::uint64_t seed{0};
  // Curves (membership_shootout's per-cell "metrics").
  double detect_first_ms{0}, detect_last_ms{0}, bytes_per_node_s{0};
  double view_changes{0}, false_positives{0}, converged{0}, measured{1};
  // Work and time.
  std::uint64_t events{0}, msgs_delivered{0};
  std::size_t peak_pending{0};
  double cell_s{0}, steady_s{0}, converge_s{0};
  double end_s{0};  ///< offset from the pool's start
  std::size_t worker{0};
};

/// Tracks the largest engine backlog seen at run_until boundaries.
struct PendingProbe {
  sim::Engine& engine;
  std::size_t peak{0};
  void step(Time t) {
    engine.run_until(t);
    peak = std::max(peak, engine.pending());
  }
};

void measure_baseline(Proto proto, CellOut& c) {
  const std::size_t n = c.n;
  sim::Engine engine;
  net::MediumConfig cfg;
  cfg.n = n;
  cfg.default_link.delay_min = Time::us(100);
  cfg.default_link.delay_max = Time::ms(2);
  cfg.default_link.drop_p = 0.01;
  net::Medium medium{engine, cfg, c.seed};
  obs::Recorder recorder;
  obs::Recorder* rec = n <= 32 ? &recorder : nullptr;
  if (rec != nullptr) medium.set_recorder(rec);

  std::unique_ptr<baselines::MembershipBaseline> cluster;
  switch (proto) {
    case Proto::kSwim:
      cluster = std::make_unique<baselines::SwimCluster>(
          medium, n, baselines::SwimParams{}, c.seed ^ 0x5157, rec);
      break;
    case Proto::kGossip:
      cluster = std::make_unique<baselines::GossipCluster>(
          medium, n, baselines::GossipParams{}, c.seed ^ 0x6057, rec);
      break;
    case Proto::kRapid:
    default:
      cluster = std::make_unique<baselines::RapidCluster>(
          medium, n, baselines::RapidParams{}, c.seed ^ 0x7a57, rec);
      break;
  }

  const net::NodeId victim = static_cast<net::NodeId>(n / 2);
  bool crashed = false;
  Time first = Time::max(), last = Time::zero();
  cluster->set_failure_handler([&](net::NodeId, net::NodeId failed) {
    if (crashed && failed == victim) {
      const Time lat = engine.now() - kCrashAt;
      first = std::min(first, lat);
      last = std::max(last, lat);
      if (rec != nullptr) {
        rec->metrics()
            .histogram("fd.detection_latency_us",
                       {1000, 10000, 100000, 1000000, 10000000})
            .add(lat.to_ns() / 1000);
      }
    } else {
      c.false_positives += 1;
    }
  });

  PendingProbe probe{engine};
  const auto t_steady = Clock::now();
  cluster->start();
  probe.step(kSteadyStart);
  const std::uint64_t bytes0 = medium.stats().bytes_sent;
  probe.step(kCrashAt);
  c.steady_s = secs_since(t_steady);
  const double window_s = (kCrashAt - kSteadyStart).to_ms_f() / 1e3;
  c.bytes_per_node_s =
      static_cast<double>(medium.stats().bytes_sent - bytes0) / window_s /
      static_cast<double>(n);

  const auto t_conv = Clock::now();
  const std::uint64_t vc0 = cluster->view_changes();
  medium.crash(victim);
  cluster->crash(victim);
  crashed = true;
  net::Members expect = net::Members::all(n);
  expect.erase(victim);
  for (Time t = kCrashAt + kPollStep; t <= kConvergeBy; t += kPollStep) {
    probe.step(t);
    if (cluster->views_agree(expect)) {
      c.converged = 1;
      break;
    }
  }
  c.converge_s = secs_since(t_conv);
  c.view_changes = static_cast<double>(cluster->view_changes() - vc0);
  c.detect_first_ms = first == Time::max() ? -1 : first.to_ms_f();
  c.detect_last_ms = last == Time::zero() ? -1 : last.to_ms_f();
  c.events = engine.dispatched();
  c.msgs_delivered = medium.stats().delivered;
  c.peak_pending = probe.peak;
}

void measure_canely(CellOut& c) {
  const std::size_t n = c.n;
  sim::Engine engine;
  can::Bus bus{engine};
  Params params;
  params.n = n;
  params.heartbeat_period = Time::ms(10);
  params.tx_delay_bound = scaled_tx_delay_bound(n);
  obs::Recorder recorder;
  obs::Recorder* obs_rec = n <= 32 ? &recorder : nullptr;
  if (obs_rec != nullptr) bus.set_recorder(obs_rec);

  std::uint64_t steady_bits = 0;
  bool counting = false;
  bus.set_observer([&](const can::TxRecord& rec) {
    if (counting) steady_bits += rec.bits;
  });
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Node>(bus, static_cast<can::NodeId>(i),
                                           params, nullptr, obs_rec));
  }

  PendingProbe probe{engine};
  const auto t_steady = Clock::now();
  for (auto& node : nodes) node->join();
  for (Time t = Time::ms(400); t <= Time::sec(10); t += kPollStep) {
    probe.step(t);
    const bool stable = std::all_of(
        nodes.begin(), nodes.end(), [&](const std::unique_ptr<Node>& node) {
          return node->is_member() && node->view().size() == n;
        });
    if (stable) break;
  }

  const can::NodeId victim = static_cast<can::NodeId>(n / 2);
  bool crashed = false;
  Time t_crash = Time::zero();
  Time first = Time::max(), last = Time::zero();
  std::vector<bool> notified(n, false);
  std::size_t notified_count = 0;
  std::uint64_t view_changes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i]->on_membership_change([&, i](can::NodeSet, can::NodeSet failed) {
      if (failed.empty()) return;
      ++view_changes;
      for (can::NodeId f = 0; f < static_cast<can::NodeId>(n); ++f) {
        if (!failed.contains(f)) continue;
        if (crashed && f == victim) {
          const Time lat = engine.now() - t_crash;
          first = std::min(first, lat);
          last = std::max(last, lat);
          if (!notified[i]) {
            notified[i] = true;
            ++notified_count;
          }
        } else {
          c.false_positives += 1;
        }
      }
    });
  }

  const Time window = Time::sec(2);
  counting = true;
  probe.step(Time::ms(400) + window);
  counting = false;
  c.steady_s = secs_since(t_steady);
  c.bytes_per_node_s = static_cast<double>(steady_bits) / 8.0 /
                       (window.to_ms_f() / 1e3) / static_cast<double>(n);

  const auto t_conv = Clock::now();
  t_crash = engine.now();
  crashed = true;
  nodes[victim]->crash();
  for (Time t = t_crash + kPollStep; t <= t_crash + Time::sec(5);
       t += kPollStep) {
    probe.step(t);
    if (notified_count >= n - 1) {
      c.converged = 1;
      break;
    }
  }
  c.converge_s = secs_since(t_conv);
  c.view_changes = static_cast<double>(view_changes);
  c.detect_first_ms = first == Time::max() ? -1 : first.to_ms_f();
  c.detect_last_ms = last == Time::zero() ? -1 : last.to_ms_f();
  c.events = engine.dispatched();
  c.peak_pending = probe.peak;
}

void canely_model(CellOut& c) {
  Params params;
  params.n = can::kMaxNodes;
  params.heartbeat_period = Time::ms(10);
  params.tx_delay_bound = scaled_tx_delay_bound(c.n);
  const auto bounds = analysis::latency_bounds(params, c.n);
  const std::uint8_t payload[] = {0, 0};
  const can::Frame els =
      can::Frame::make_data(0x1FFFFFFF, payload, can::IdFormat::kExtended);
  const double frame_bytes =
      static_cast<double>(can::frame_bits_on_wire(els)) / 8.0;
  c.detect_first_ms = bounds.detection.to_ms_f();
  c.detect_last_ms = bounds.detection.to_ms_f();
  c.bytes_per_node_s = frame_bytes / (params.heartbeat_period.to_ms_f() / 1e3);
  c.view_changes = static_cast<double>(c.n - 1);
  c.false_positives = 0;
  c.converged = 1;
  c.measured = 0;
}

std::string cell_json(const CellOut& c) {
  Obj o;
  o.add("protocol", c.proto)
      .add("nodes", static_cast<double>(c.n))
      .add("detection_first_ms", c.detect_first_ms)
      .add("detection_last_ms", c.detect_last_ms)
      .add("bytes_per_node_s", c.bytes_per_node_s)
      .add("view_changes", c.view_changes)
      .add("false_positives", c.false_positives)
      .add("converged", c.converged)
      .add("measured", c.measured)
      .add("events", static_cast<double>(c.events))
      .add("msgs_delivered", static_cast<double>(c.msgs_delivered))
      .add("peak_pending", static_cast<double>(c.peak_pending))
      .add("cell_s", c.cell_s)
      .add("steady_s", c.steady_s)
      .add("converge_s", c.converge_s)
      .add("end_s", c.end_s)
      .add("worker", static_cast<double>(c.worker));
  return o.str();
}

int cmd_cells(std::uint64_t seed, bool quick) {
  // The shootout's grid, so each cell gets the seed the shootout gives it,
  // claimed in index order by the workers as campaign::Runner does.
  campaign::Grid grid;
  grid.axis("protocol", {0, 1, 2, 3})
      .axis("nodes", quick ? std::vector<double>{8, 32} : kSizes)
      .master_seed(seed);

  std::vector<CellOut> cells(grid.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> worker_ids{0};
  std::mutex error_mu;
  std::string error;  ///< first cell failure, guarded by error_mu
  const auto pool_start = Clock::now();
  const auto worker = [&] {
    const std::size_t me = worker_ids.fetch_add(1);
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= cells.size()) return;
      const campaign::RunSpec spec = grid.run(k);
      CellOut& c = cells[k];
      const auto proto = static_cast<Proto>(
          static_cast<int>(spec.param("protocol")));
      c.proto = kProtoNames[static_cast<std::size_t>(proto)];
      c.n = static_cast<std::size_t>(spec.param("nodes"));
      c.seed = spec.seed;
      c.worker = me;
      const auto t0 = Clock::now();
      try {
        if (proto != Proto::kCanely) {
          measure_baseline(proto, c);
        } else if (c.n <= can::kMaxNodes) {
          measure_canely(c);
        } else {
          canely_model(c);
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock{error_mu};
        if (error.empty()) error = e.what();
        return;
      }
      c.cell_s = secs_since(t0);
      c.end_s = std::chrono::duration<double>(Clock::now() - pool_start)
                    .count();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < kThreads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  const double wall_s = secs_since(pool_start);
  if (!error.empty()) {
    std::cerr << "cell failed: " << error << "\n";
    return 2;
  }

  std::string list;
  for (const CellOut& c : cells) {
    list += (list.empty() ? "" : ",") + cell_json(c);
  }
  Obj out;
  out.add("seed", static_cast<double>(seed))
      .add("wall_s", wall_s)
      .raw("cells", "[" + list + "]");
  std::cout << out.str() << "\n";
  return 0;
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_layers stack [--reps N]\n"
               "       perfbench_layers counterexample --artifact PATH "
               "--telemetry PATH [--nodes N] [--walks W] [--seed S]\n"
               "       perfbench_layers cells [--seed S] [--quick]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::size_t reps = 1000, nodes = 10, walks = 0;
  std::uint64_t seed = 42;
  std::string artifact, telemetry;
  bool quick = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick = true;
        continue;
      }
      if (i + 1 >= argc) usage();
      const std::string val = argv[++i];
      if (arg == "--reps") {
        reps = std::stoul(val);
      } else if (arg == "--nodes") {
        nodes = std::stoul(val);
      } else if (arg == "--walks") {
        walks = std::stoul(val);
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--artifact") {
        artifact = val;
      } else if (arg == "--telemetry") {
        telemetry = val;
      } else {
        usage();
      }
    }
  } catch (const std::exception&) {
    usage();
  }
  if (cmd == "stack" && reps > 0) return cmd_stack(reps);
  if (cmd == "counterexample" && !artifact.empty() && !telemetry.empty()) {
    return cmd_counterexample(nodes, walks, seed, artifact, telemetry);
  }
  if (cmd == "cells") return cmd_cells(seed, quick);
  usage();
}
