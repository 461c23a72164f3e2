// Fault-injection campaign (extension experiment; DESIGN.md "Ablations"
// row): sweep the bus fault intensity and measure the dependability of
// the failure detection + membership suite —
//
//   * consistency: fraction of checkpoints at which all member views
//     agreed (must stay 1.0 while faults respect the j-bound regime);
//   * false suspicions: live nodes wrongly declared failed;
//   * detection latency distribution (p50/p99/max) for real crashes;
//   * protocol bandwidth overhead as faults force retransmissions.
//
// Fault intensity = probability that a transmission attempt is destroyed
// (half globally, half as an inconsistent omission with random victims).
//
// The sweep runs on campaign::Runner: every (intensity, trial) pair is
// one independent simulation universe whose RNG is forked from the
// campaign master seed by run index, so `--threads N` produces the same
// aggregates — and the same BENCH_fault_campaign.json bytes — as
// `--threads 1`.

#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "campaign/campaign.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using namespace canely;

constexpr std::size_t kN = 8;
constexpr std::size_t kTrials = 3;

/// One independent trial: 8 nodes, 2 s of checkpointed life, one crash.
struct TrialResult {
  double consistency{1.0};
  int false_suspicions{0};
  bool crash_detected{false};
  double detection_ms{0};
  double protocol_bandwidth_pct{0};
};

TrialResult run_trial(const campaign::RunSpec& spec) {
  const double intensity = spec.param("intensity");
  sim::Rng rng{spec.seed};
  TrialResult res;

  sim::Engine engine;
  can::Bus bus{engine};
  Params params;
  params.n = kN;
  params.tx_delay_bound = sim::Time::ms(4);

  can::RandomFaults faults{rng.fork(), intensity / 2, intensity / 2};
  bus.set_fault_injector(&faults);
  std::uint64_t protocol_bits = 0;
  bus.set_observer([&](const can::TxRecord& r) {
    const auto mid = Mid::decode(r.frame);
    if (mid.has_value() && mid->type != MsgType::kApp) {
      protocol_bits += r.bits;
    }
  });

  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kN; ++i) {
    nodes.push_back(std::make_unique<Node>(
        bus, static_cast<can::NodeId>(i), params));
  }
  for (auto& n : nodes) n->join();
  engine.run_until(sim::Time::ms(600));
  for (std::size_t i = 0; i < kN; i += 2) {
    nodes[i]->start_periodic(1, sim::Time::ms(5),
                             {static_cast<std::uint8_t>(i)});
  }

  // Track false suspicions: any failure notification naming a node
  // that is actually alive at that moment.
  std::vector<bool> dead(kN, false);
  for (auto& n : nodes) {
    n->on_membership_change([&](can::NodeSet, can::NodeSet failed) {
      for (can::NodeId f : failed) {
        if (!dead[f]) ++res.false_suspicions;
      }
    });
  }

  const sim::Time bw_start = engine.now();
  const std::uint64_t bw_bits0 = protocol_bits;

  // 2 s of life with consistency checkpoints every 250 ms.
  int checks = 0, consistent = 0;
  for (int step = 0; step < 8; ++step) {
    engine.run_until(engine.now() + sim::Time::ms(250));
    ++checks;
    can::NodeSet ref;
    bool first = true, agree = true;
    for (std::size_t i = 0; i < kN; ++i) {
      if (dead[i]) continue;
      if (first) {
        ref = nodes[i]->view();
        first = false;
      } else if (nodes[i]->view() != ref) {
        agree = false;
      }
    }
    if (agree) ++consistent;
  }
  res.consistency = static_cast<double>(consistent) / checks;
  res.protocol_bandwidth_pct =
      100.0 * static_cast<double>(protocol_bits - bw_bits0) /
      (engine.now() - bw_start).to_us_f();

  // One real crash; measure last-observer latency.
  const can::NodeId victim = 5;
  sim::Time last = sim::Time::zero();
  int notified = 0;
  for (auto& n : nodes) {
    n->on_membership_change(
        [&engine, &last, &notified, victim](can::NodeSet,
                                            can::NodeSet failed) {
          if (failed.contains(victim)) {
            last = std::max(last, engine.now());
            ++notified;
          }
        });
  }
  const sim::Time t_crash = engine.now();
  dead[victim] = true;
  nodes[victim]->crash();
  engine.run_until(t_crash + sim::Time::ms(200));
  if (notified >= static_cast<int>(kN) - 1) {
    res.crash_detected = true;
    res.detection_ms = (last - t_crash).to_ms_f();
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts =
      campaign::parse_cli(argc, argv, "BENCH_fault_campaign.json");
  if (opts.help) {
    campaign::print_cli_usage(argv[0]);
    return 2;
  }

  campaign::Grid grid;
  grid.axis("intensity", {0.0, 0.005, 0.01, 0.02, 0.05})
      .repeats(kTrials)
      .master_seed(opts.seed);
  campaign::Runner runner{opts.threads};
  const auto outcome = runner.run<TrialResult>(grid, run_trial);

  std::cout << "Fault-injection campaign — 8 nodes, 1 Mbps, " << kTrials
            << " trials per intensity\n(half global errors, half "
               "inconsistent omissions; "
            << grid.size() << " runs on " << runner.threads()
            << " threads)\n\n";
  std::cout << "  intensity | consistency | false susp. | detect p50 / max  "
               "| proto bw | crashes\n";
  std::cout << "  ----------+-------------+-------------+------------------"
               "-+----------+--------\n";

  json::Value cells = json::Value::array();
  bool ok = true;
  for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
    const auto trials = outcome.cell(grid, cell);
    const double intensity = grid.cell_params(cell)[0].second;

    double consistency = 1.0, bandwidth = 0;
    int false_susp = 0, detected = 0;
    std::vector<double> detection;
    for (const TrialResult* t : trials) {
      consistency = std::min(consistency, t->consistency);
      false_susp += t->false_suspicions;
      bandwidth += t->protocol_bandwidth_pct;
      if (t->crash_detected) {
        ++detected;
        detection.push_back(t->detection_ms);
      }
    }
    bandwidth /= trials.empty() ? 1 : static_cast<double>(trials.size());
    const auto det = campaign::summarize(detection);

    std::cout << "    " << std::setw(4) << std::fixed << std::setprecision(1)
              << intensity * 100 << "%   |    " << std::setprecision(2)
              << consistency << "     |      " << false_susp
              << "      |  " << std::setprecision(1) << std::setw(5)
              << det.p50 << " / " << std::setw(5) << det.max << " ms |  "
              << std::setw(5) << std::setprecision(2) << bandwidth
              << "% |   " << detected << "/" << trials.size() << "\n";
    if (intensity <= 0.02) {
      if (consistency < 1.0 || false_susp != 0 ||
          detected != static_cast<int>(trials.size())) {
        ok = false;
      }
    }

    json::Value metrics = json::Value::object();
    metrics.set("consistency", json::Value::number(consistency));
    metrics.set("false_suspicions", json::Value::integer(false_susp));
    metrics.set("crashes_detected", json::Value::integer(detected));
    metrics.set("crashes_total",
                json::Value::integer(static_cast<std::int64_t>(
                    trials.size())));
    metrics.set("protocol_bandwidth_pct", json::Value::number(bandwidth));
    metrics.set("detection_ms", campaign::summary_json(det));
    json::Value cell_json = json::Value::object();
    cell_json.set("params", campaign::params_json(grid.cell_params(cell)));
    cell_json.set("metrics", std::move(metrics));
    cells.push(std::move(cell_json));
  }

  if (!opts.json_path.empty()) {
    json::Value root = campaign::trajectory_header("fault_campaign", grid);
    root.set("cells", std::move(cells));
    if (!campaign::emit_trajectory(root, opts)) return 1;
  }

  std::cout <<
      "\n  -> within the assumed fault regime (the paper's j-bounded "
      "omissions,\n     here <=2% of frames) the suite never loses view "
      "consistency, never\n     falsely suspects a live node, and detects "
      "every crash; detection\n     latency stays flat because the "
      "failure-sign outranks all traffic.\n     At 5% the weak-fail-silent "
      "envelope itself begins to matter\n     (fault confinement may "
      "legitimately silence a battered node).\n";
  std::cout << (ok ? "\nSHAPE OK\n" : "\nSHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
