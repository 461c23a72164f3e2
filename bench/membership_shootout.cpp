// Membership shootout: CANELy vs SWIM vs gossip vs Rapid-style cut
// detection (DESIGN.md §13, EXPERIMENTS.md "Membership shootout").
//
// Each protocol runs on its natural medium through the shared Transport
// seam: CANELy on the simulated CAN bus (its broadcast wire is the
// point), the three distributed baselines on the lossy point-to-point
// net::Medium (100us..2ms uniform delay, 1% loss).  Scenario per cell:
// steady state, one crash at t=8s, run to view convergence.  Curves:
//
//   * detection latency  — crash -> first / last survivor notification
//   * bandwidth          — steady-state bytes/s per node (sender-side)
//   * false positives    — failure declarations of live nodes
//   * view stability     — view installations caused by the one crash
//
// n = 8, 32, 128, 512, 1024.  CANELy's CAN bitmap caps at 64 nodes, so
// its n >= 128 cells are the analytic worst-case model
// (analysis/latency_bounds), flagged "measured": 0 in the JSON.  Every
// run is an isolated seeded simulation on campaign::Runner: output is
// byte-identical for any --threads.
//
// Observability: the n <= 32 cells run under an obs::Recorder and embed
// the run's metrics snapshot as the cell's "obs_metrics" object;
// `--trace-out PREFIX` additionally re-runs one representative n = 8
// cell per protocol and writes its event ring as Chrome trace_event
// JSON (Perfetto-loadable) to PREFIX.<proto>.json.
//
//   --quick       n = 8, 32 only (CI smoke)
//   --trace-out PREFIX   per-protocol Perfetto timeline export
//   --threads/--seed/--json: the standard campaign flags.  There is no
//   --shard: the grid is small enough to run whole, and an unknown flag
//   prints usage and exits 2 like any other.

#include <algorithm>
#include <array>
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/latency.hpp"
#include "baselines/gossip.hpp"
#include "baselines/rapid.hpp"
#include "baselines/swim.hpp"
#include "campaign/campaign.hpp"
#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "net/medium.hpp"
#include "obs/perfetto.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace {

using namespace canely;
using sim::Time;

enum class Proto { kCanely = 0, kSwim = 1, kGossip = 2, kRapid = 3 };
constexpr std::array<const char*, 4> kProtoNames = {"canely", "swim",
                                                    "gossip", "rapid"};

/// One cell's curve points (all doubles: campaign cells are numeric).
struct RunResult {
  double detect_first_ms{0};   ///< crash -> first survivor notification
  double detect_last_ms{0};    ///< crash -> last survivor notification
  double bytes_per_node_s{0};  ///< steady-state sender-side bandwidth
  double view_changes{0};      ///< installations caused by the crash
  double false_positives{0};   ///< declarations of live nodes (whole run)
  double converged{0};         ///< 1 = all survivors agree on the view
  double measured{1};          ///< 0 = analytic model (CANELy n > 64)
};

/// What a run hands back to the campaign runner: the numeric curves
/// plus — on the n <= 32 measured cells — the run's metrics registry
/// snapshot, embedded verbatim in the cell JSON as "obs_metrics".
struct ShootResult {
  RunResult r;
  bool has_metrics{false};
  json::Value metrics;
};

/// The paper's Ttd must bound the worst-case frame transmission delay.
/// A membership event synchronizes every node's explicit life-sign, so
/// the lowest-priority node waits out n-1 higher-priority ELS frames
/// (~70 us each at 1 Mbps) — at n = 32 that overruns the 2 ms default
/// and the tail of the id space gets falsely expelled.  Scale Ttd with
/// the burst bound, as a deployment of the paper's protocol would.
Time scaled_tx_delay_bound(std::size_t n) {
  return std::max(Time::ms(2), Time::us(125) * static_cast<std::int64_t>(n));
}

constexpr Time kSteadyStart = Time::sec(3);   // timers armed, grace over
constexpr Time kCrashAt = Time::sec(8);       // 5 s bandwidth window
constexpr Time kConvergeBy = Time::sec(60);
constexpr Time kPollStep = Time::ms(100);

/// SWIM / gossip / Rapid on the lossy medium.  `trace_rec`, when set,
/// replaces the cell-local recorder (the --trace-out path needs the
/// event ring to outlive the run).
ShootResult measure_baseline(Proto proto, std::size_t n, std::uint64_t seed,
                             obs::Recorder* trace_rec = nullptr) {
  sim::Engine engine;
  net::MediumConfig cfg;
  cfg.n = n;
  cfg.default_link.delay_min = Time::us(100);
  cfg.default_link.delay_max = Time::ms(2);
  cfg.default_link.drop_p = 0.01;
  net::Medium medium{engine, cfg, seed};

  // Structured observability on the small cells; at n = 512+ the
  // per-message counter lookups would dominate the run.
  obs::Recorder recorder;
  obs::Recorder* rec =
      trace_rec != nullptr ? trace_rec : (n <= 32 ? &recorder : nullptr);
  if (rec != nullptr) medium.set_recorder(rec);

  std::unique_ptr<baselines::MembershipBaseline> cluster;
  switch (proto) {
    case Proto::kSwim:
      cluster = std::make_unique<baselines::SwimCluster>(
          medium, n, baselines::SwimParams{}, seed ^ 0x5157, rec);
      break;
    case Proto::kGossip:
      cluster = std::make_unique<baselines::GossipCluster>(
          medium, n, baselines::GossipParams{}, seed ^ 0x6057, rec);
      break;
    case Proto::kRapid:
    default:
      cluster = std::make_unique<baselines::RapidCluster>(
          medium, n, baselines::RapidParams{}, seed ^ 0x7a57, rec);
      break;
  }

  const net::NodeId victim = static_cast<net::NodeId>(n / 2);
  RunResult r;
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
      r.false_positives += 1;  // live node declared dead
    }
  });

  cluster->start();
  engine.run_until(kSteadyStart);
  const std::uint64_t bytes0 = medium.stats().bytes_sent;
  engine.run_until(kCrashAt);
  const double window_s = (kCrashAt - kSteadyStart).to_ms_f() / 1e3;
  r.bytes_per_node_s =
      static_cast<double>(medium.stats().bytes_sent - bytes0) / window_s /
      static_cast<double>(n);

  const std::uint64_t vc0 = cluster->view_changes();
  medium.crash(victim);
  cluster->crash(victim);
  crashed = true;

  net::Members expect = net::Members::all(n);
  expect.erase(victim);
  for (Time t = kCrashAt + kPollStep; t <= kConvergeBy; t += kPollStep) {
    engine.run_until(t);
    if (cluster->views_agree(expect)) {
      r.converged = 1;
      break;
    }
  }
  r.view_changes = static_cast<double>(cluster->view_changes() - vc0);
  r.detect_first_ms = first == Time::max() ? -1 : first.to_ms_f();
  r.detect_last_ms = last == Time::zero() ? -1 : last.to_ms_f();

  ShootResult out;
  out.r = r;
  if (rec != nullptr) {
    out.has_metrics = true;
    out.metrics = rec->metrics().snapshot_json();
  }
  return out;
}

/// CANELy measured on its native CAN bus (n <= 64 by protocol design).
ShootResult measure_canely(std::size_t n, obs::Recorder* trace_rec = nullptr) {
  sim::Engine engine;
  can::Bus bus{engine};
  Params params;
  params.n = n;
  params.heartbeat_period = Time::ms(10);
  params.tx_delay_bound = scaled_tx_delay_bound(n);

  // Same recorder policy as the baselines: structured observability on
  // the small cells, embedded in the cell JSON.
  obs::Recorder recorder;
  obs::Recorder* obs_rec =
      trace_rec != nullptr ? trace_rec : (n <= 32 ? &recorder : nullptr);
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
  for (auto& node : nodes) node->join();
  // Joins are serialized by the membership cycle; wait until every node
  // holds the full view (n = 32 needs well past fig11's 400 ms).
  for (Time t = Time::ms(400); t <= Time::sec(10); t += kPollStep) {
    engine.run_until(t);
    const bool stable = std::all_of(
        nodes.begin(), nodes.end(), [&](const std::unique_ptr<Node>& node) {
          return node->is_member() && node->view().size() == n;
        });
    if (stable) break;
  }

  const can::NodeId victim = static_cast<can::NodeId>(n / 2);
  RunResult r;
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
          r.false_positives += 1;
        }
      }
    });
  }

  // Steady-state bandwidth: quiet nodes, so every frame is protocol
  // traffic (life-signs + cycle machinery).
  const Time window = Time::sec(2);
  counting = true;
  engine.run_until(Time::ms(400) + window);
  counting = false;
  r.bytes_per_node_s = static_cast<double>(steady_bits) / 8.0 /
                       (window.to_ms_f() / 1e3) / static_cast<double>(n);

  t_crash = engine.now();
  crashed = true;
  nodes[victim]->crash();
  for (Time t = t_crash + kPollStep; t <= t_crash + Time::sec(5);
       t += kPollStep) {
    engine.run_until(t);
    if (notified_count >= n - 1) {
      r.converged = 1;
      break;
    }
  }
  r.view_changes = static_cast<double>(view_changes);
  r.detect_first_ms = first == Time::max() ? -1 : first.to_ms_f();
  r.detect_last_ms = last == Time::zero() ? -1 : last.to_ms_f();

  ShootResult out;
  out.r = r;
  if (obs_rec != nullptr) {
    out.has_metrics = true;
    out.metrics = obs_rec->metrics().snapshot_json();
  }
  return out;
}

/// CANELy analytic worst case beyond the 64-node CAN bitmap: the
/// latency_bounds model plus the fixed per-node life-sign cost (one
/// frame per heartbeat period; receive side is free on a broadcast bus).
ShootResult canely_model(std::size_t n) {
  Params params;
  params.n = can::kMaxNodes;  // model inputs; n itself exceeds the cap
  params.heartbeat_period = Time::ms(10);
  params.tx_delay_bound = scaled_tx_delay_bound(n);
  const auto bounds = analysis::latency_bounds(params, n);

  const std::uint8_t payload[] = {0, 0};
  const can::Frame els =
      can::Frame::make_data(0x1FFFFFFF, payload, can::IdFormat::kExtended);
  const double frame_bytes =
      static_cast<double>(can::frame_bits_on_wire(els)) / 8.0;

  RunResult r;
  r.detect_first_ms = bounds.detection.to_ms_f();
  r.detect_last_ms = bounds.detection.to_ms_f();
  r.bytes_per_node_s =
      frame_bytes / (params.heartbeat_period.to_ms_f() / 1e3);
  r.view_changes = static_cast<double>(n - 1);
  r.false_positives = 0;
  r.converged = 1;
  r.measured = 0;
  return ShootResult{r, false, json::Value{}};
}

ShootResult measure(Proto proto, std::size_t n, std::uint64_t seed,
                    obs::Recorder* trace_rec = nullptr) {
  if (proto != Proto::kCanely)
    return measure_baseline(proto, n, seed, trace_rec);
  return n <= can::kMaxNodes ? measure_canely(n, trace_rec) : canely_model(n);
}

/// --trace-out: re-run the n = 8 cell of each protocol under a fresh
/// recorder and write the event ring as validated Chrome trace_event
/// JSON to `PREFIX.<proto>.json`.  Returns false on validation or IO
/// failure.
bool export_traces(const std::string& prefix, std::uint64_t master_seed) {
  for (std::size_t p = 0; p < kProtoNames.size(); ++p) {
    obs::Recorder rec;
    (void)measure(static_cast<Proto>(p), 8, master_seed ^ (0xBEEF + p), &rec);
    const auto events = obs::build_trace_events(rec.ring());
    const auto check = obs::validate_trace_events(events);
    if (!check.ok) {
      std::cerr << "error: " << kProtoNames[p] << " trace invalid: "
                << check.error << "\n";
      return false;
    }
    const std::string path = prefix + "." + kProtoNames[p] + ".json";
    try {
      json::write_file(
          path, obs::render_trace_json(events, &rec.metrics(), rec.ring()));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return false;
    }
    std::cout << "  trace (" << events.size() << " events) written to "
              << path << "\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_prefix;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--quick") {
      quick = true;
    } else if (std::string_view{argv[i]} == "--trace-out" && i + 1 < argc) {
      trace_prefix = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  const auto opts =
      campaign::parse_cli(static_cast<int>(args.size()), args.data(),
                          "BENCH_membership_shootout.json");
  if (opts.help) {
    campaign::print_cli_usage(argv[0]);
    std::cerr << "  --quick       n = 8, 32 only (CI smoke)\n"
                 "  --trace-out PREFIX  write PREFIX.<proto>.json Perfetto "
                 "timelines (n = 8)\n";
    return 2;
  }

  campaign::Grid grid;
  grid.axis("protocol", {0, 1, 2, 3})
      .axis("nodes", quick ? std::vector<double>{8, 32}
                           : std::vector<double>{8, 32, 128, 512, 1024})
      .master_seed(opts.seed);
  campaign::Runner runner{opts.threads};
  const auto outcome =
      runner.run<ShootResult>(grid, [](const campaign::RunSpec& s) {
        return measure(static_cast<Proto>(static_cast<int>(s.param("protocol"))),
                       static_cast<std::size_t>(s.param("nodes")), s.seed);
      });

  std::cout << "Membership shootout — CANELy vs SWIM vs gossip vs Rapid\n"
               "One crash at t=8s; lossy medium 100us..2ms delay, 1% loss "
               "(baselines);\nCANELy on its native CAN bus, analytic model "
               "beyond 64 nodes (*).\n"
            << grid.size() << " runs on " << runner.threads()
            << " threads.\n\n"
            << "  proto    n     detect_first  detect_last   bytes/node/s  "
               "view_chg  false_pos  ok\n";
  bool all_converged = true;
  json::Value cells = json::Value::array();
  for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
    const auto params = grid.cell_params(cell);
    const auto proto = static_cast<std::size_t>(params[0].second);
    const auto n = static_cast<std::size_t>(params[1].second);
    const ShootResult& res = *outcome.cell(grid, cell).at(0);
    const RunResult& r = res.r;
    all_converged = all_converged && r.converged == 1;

    std::cout << "  " << std::left << std::setw(7) << kProtoNames[proto]
              << std::right << std::setw(5) << n << std::fixed
              << std::setprecision(1) << std::setw(12) << r.detect_first_ms
              << " ms" << std::setw(11) << r.detect_last_ms << " ms"
              << std::setprecision(0) << std::setw(13) << r.bytes_per_node_s
              << std::setw(10) << r.view_changes << std::setw(11)
              << r.false_positives << "  "
              << (r.converged == 1 ? "yes" : "NO")
              << (r.measured == 0 ? " *" : "") << "\n";

    json::Value metrics = json::Value::object();
    metrics.set("detection_first_ms", json::Value::number(r.detect_first_ms));
    metrics.set("detection_last_ms", json::Value::number(r.detect_last_ms));
    metrics.set("bytes_per_node_s", json::Value::number(r.bytes_per_node_s));
    metrics.set("view_changes", json::Value::number(r.view_changes));
    metrics.set("false_positives", json::Value::number(r.false_positives));
    metrics.set("converged", json::Value::number(r.converged));
    metrics.set("measured", json::Value::number(r.measured));
    json::Value cell_json = json::Value::object();
    cell_json.set("params", campaign::params_json(params));
    cell_json.set("metrics", std::move(metrics));
    if (res.has_metrics) cell_json.set("obs_metrics", res.metrics);
    cells.push(std::move(cell_json));
  }

  if (!opts.json_path.empty()) {
    json::Value root =
        campaign::trajectory_header("membership_shootout", grid);
    root.set("cells", std::move(cells));
    if (!campaign::emit_trajectory(root, opts)) return 1;
  }

  if (!trace_prefix.empty() && !export_traces(trace_prefix, opts.seed)) {
    return 1;
  }

  std::cout << "\nReading: CANELy detects in tens of ms at a fixed "
               "frame/period budget\n(the paper's Fig. 11 row); SWIM holds "
               "per-node bandwidth flat as n grows;\nall-to-all gossip pays "
               "O(n) per node; Rapid batches the cut but pays\nmulti-second "
               "stability delay.\n";
  return all_converged ? 0 : 1;
}
