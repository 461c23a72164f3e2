// Figure 10 reproduction: CAN bandwidth utilization by the site
// membership protocol suite vs. the membership cycle period Tm.
//
// Paper setting: n = 32 nodes, b = 8 nodes issuing explicit life-signs,
// f = 4 crash failures, c = 20 join/leave requests, 1 Mbps; Tm swept over
// 30..90 ms.  Four scenarios: no membership changes / f crash failures /
// one join+leave event / multiple (c) join-leave requests.
//
// Two columns per scenario: the reconstructed analytic worst-case model
// (analysis/bandwidth.hpp) and the utilization actually measured on the
// simulated bus running the real protocol stack.
//
// The 28 (Tm, scenario) measurements are independent simulations and run
// on campaign::Runner; the protocol stack draws no randomness, so the
// numbers — and the BENCH_fig10_bandwidth.json trajectory — are the same
// for any --threads.

#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "campaign/campaign.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "sim/engine.hpp"

namespace {

using namespace canely;

constexpr std::size_t kNodes = 32;
constexpr std::size_t kLifeSigners = 8;  // b: quiet nodes needing ELS
constexpr std::size_t kCrashes = 4;      // f
constexpr std::size_t kChurn = 20;       // c

enum class Scenario { kNoChanges, kCrashFailures, kSingleJoinLeave, kMultiple };

/// Measure protocol bandwidth (ELS+FDA+RHA+JOIN+LEAVE frames) in one
/// membership cycle containing the scenario's events.
double measure(Scenario scenario, sim::Time tm) {
  sim::Engine engine;
  can::Bus bus{engine};
  Params params;
  params.n = kNodes;
  params.membership_cycle = tm;
  params.heartbeat_period = tm;  // at most one life-sign per cycle
  params.tx_delay_bound = sim::Time::ms(6);
  params.rha_timeout = sim::Time::ms(8);

  std::uint64_t protocol_bits = 0;
  bool counting = false;
  bus.set_observer([&](const can::TxRecord& r) {
    if (!counting) return;
    const auto mid = Mid::decode(r.frame);
    if (!mid.has_value()) return;
    switch (mid->type) {
      case MsgType::kEls:
      case MsgType::kFda:
      case MsgType::kJoin:
      case MsgType::kLeave:
      case MsgType::kRha:
        protocol_bits += r.bits;
        break;
      default:
        break;
    }
  });

  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<Node>(
        bus, static_cast<can::NodeId>(i), params));
  }
  // Founding membership: everything except the churn reserve.
  const std::size_t founders =
      scenario == Scenario::kMultiple ? kNodes - kChurn : kNodes - 1;
  for (std::size_t i = 0; i < founders; ++i) nodes[i]->join();
  engine.run_until(sim::Time::ms(400));
  // All but the b life-signers chat periodically (implicit heartbeats).
  for (std::size_t i = kLifeSigners; i < founders; ++i) {
    nodes[i]->start_periodic(1, tm / 3, {static_cast<std::uint8_t>(i)});
  }
  engine.run_until(sim::Time::ms(800));

  // Align on a cycle boundary: watch for the next view-install or simply
  // measure an integral number of cycles; we measure 4 cycles and divide.
  const int cycles = 4;
  counting = true;
  const sim::Time t0 = engine.now();
  switch (scenario) {
    case Scenario::kNoChanges:
      break;
    case Scenario::kCrashFailures:
      for (std::size_t i = 0; i < kCrashes; ++i) {
        nodes[kLifeSigners + i]->crash();  // busy nodes die
      }
      break;
    case Scenario::kSingleJoinLeave:
      nodes[founders]->join();
      nodes[kLifeSigners]->leave();
      break;
    case Scenario::kMultiple:
      for (std::size_t i = founders; i < kNodes; ++i) nodes[i]->join();
      break;
  }
  engine.run_until(t0 + tm * cycles);
  counting = false;

  const double window_bits = (tm * cycles).to_us_f();  // 1 Mbps
  return static_cast<double>(protocol_bits) / window_bits;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts =
      campaign::parse_cli(argc, argv, "BENCH_fig10_bandwidth.json");
  if (opts.help) {
    campaign::print_cli_usage(argv[0]);
    return 2;
  }

  using analysis::BandwidthModel;
  analysis::BandwidthParams bp;
  bp.n = kNodes;
  bp.b = kLifeSigners;
  bp.f = kCrashes;
  BandwidthModel model{bp};

  // Grid: Tm (slow axis) x scenario (fast axis); one deterministic
  // simulation per run, fanned across the worker pool.
  campaign::Grid grid;
  grid.axis("tm_ms", {30, 40, 50, 60, 70, 80, 90})
      .axis("scenario", {0, 1, 2, 3})
      .master_seed(opts.seed);
  campaign::Runner runner{opts.threads};
  const auto outcome = runner.run<double>(grid, [](const campaign::RunSpec& s) {
    return measure(static_cast<Scenario>(static_cast<int>(s.param("scenario"))),
                   sim::Time::ms(static_cast<int>(s.param("tm_ms"))));
  });

  std::cout <<
      "Figure 10 — CAN bandwidth utilization by the site membership "
      "protocols\n"
      "n=32, b=8, f=4, c=20, 1 Mbps.  Analytic = conservative worst-case "
      "model;\nmeasured = real protocol stack on the simulated bus "
      "(averaged over 4 cycles\ncontaining the scenario's events; "
      << grid.size() << " runs on " << runner.threads() << " threads).\n\n";
  std::cout << "  Tm(ms) |  no-changes   | f crash fail. |  join/leave   | "
               "multiple(c=20)\n";
  std::cout << "         |  model  meas  |  model  meas  |  model  meas  |  "
               "model  meas\n";
  std::cout << "  -------+---------------+---------------+---------------+--"
               "-------------\n";
  json::Value cells = json::Value::array();
  for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
    const auto params = grid.cell_params(cell);
    const int tm_ms = static_cast<int>(params[0].second);
    const int scenario = static_cast<int>(params[1].second);
    const sim::Time tm = sim::Time::ms(tm_ms);
    const double tm_bits = tm.to_us_f();
    double analytic = 0;
    switch (static_cast<Scenario>(scenario)) {
      case Scenario::kNoChanges:
        analytic = BandwidthModel::utilization(model.no_changes(), tm_bits);
        break;
      case Scenario::kCrashFailures:
        analytic = BandwidthModel::utilization(model.crash_failures(), tm_bits);
        break;
      case Scenario::kSingleJoinLeave:
        analytic =
            BandwidthModel::utilization(model.single_join_leave(), tm_bits);
        break;
      case Scenario::kMultiple:
        analytic = BandwidthModel::utilization(
            model.multiple_join_leave(kChurn), tm_bits);
        break;
    }
    const double measured = *outcome.cell(grid, cell).at(0);

    auto pct = [](double u) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(2) << std::setw(5) << 100 * u
         << "%";
      return os.str();
    };
    if (scenario == 0) std::cout << "    " << std::setw(2) << tm_ms << "   |";
    std::cout << " " << pct(analytic) << " " << pct(measured)
              << (scenario == 3 ? "\n" : " |");

    json::Value metrics = json::Value::object();
    metrics.set("model_utilization", json::Value::number(analytic));
    metrics.set("measured_utilization", json::Value::number(measured));
    json::Value cell_json = json::Value::object();
    cell_json.set("params", campaign::params_json(params));
    cell_json.set("metrics", std::move(metrics));
    cells.push(std::move(cell_json));
  }

  if (!opts.json_path.empty()) {
    json::Value root = campaign::trajectory_header("fig10_bandwidth", grid);
    root.set("cells", std::move(cells));
    if (!campaign::emit_trajectory(root, opts)) return 1;
  }

  // The paper's own stack packs the mid into base-format (11-bit)
  // identifiers; our reproduction needs 29-bit ones (type+ref+node do not
  // fit 11 bits at n = 32).  For apples-to-apples against the paper's
  // absolute numbers, re-run the model with base-format frame costs.
  analysis::BandwidthParams bp_base = bp;
  bp_base.format = can::IdFormat::kBase;
  BandwidthModel base_model{bp_base};
  std::cout << "\nModel with base-format (11-bit) identifiers — the "
               "paper's own frame sizes:\n\n";
  std::cout << "  Tm(ms) | no-chg | crash | join/lv | mult(c=20)   "
               "(paper: ~2% ~5-6% ~7% ~14% @30ms)\n";
  for (int tm_ms = 30; tm_ms <= 90; tm_ms += 30) {
    const double tm_bits = sim::Time::ms(tm_ms).to_us_f();
    auto pct = [](double u) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(1) << std::setw(5) << 100 * u
         << "%";
      return os.str();
    };
    std::cout << "    " << std::setw(2) << tm_ms << "   | "
              << pct(BandwidthModel::utilization(base_model.no_changes(),
                                                 tm_bits))
              << " | "
              << pct(BandwidthModel::utilization(base_model.crash_failures(),
                                                 tm_bits))
              << " |  "
              << pct(BandwidthModel::utilization(
                     base_model.single_join_leave(), tm_bits))
              << " |  "
              << pct(BandwidthModel::utilization(
                     base_model.multiple_join_leave(kChurn), tm_bits))
              << "\n";
  }

  std::cout <<
      "\nPaper's Figure 10 (reading off the plot): no-changes ~2%, crash "
      "failures\n~5-6%, join/leave ~7%, multiple join/leave up to ~14% at "
      "Tm=30ms, all\ndecaying hyperbolically towards 90ms.  The model "
      "reproduces ordering and\nshape; measured values sit below the "
      "conservative model, as expected\n(clustering + abort rules beat the "
      "worst case).\n";
  return 0;
}
