// Ablation: what do FDA's two design ingredients actually buy?
//
//  (a) agreement (the eager echo of Fig. 6) — without it, a failure-sign
//      lost to an inconsistent omission whose sender then crashes leaves
//      the survivors split on who is alive;
//  (b) remote-frame clustering (wired-AND merge of identical frames) —
//      without it, the echo costs one frame per recipient instead of one.
//
// Sweep over victim-subset sizes and group sizes; report inconsistency
// rates and frame counts.
//
// Both sweeps fan their independent deterministic trials across
// campaign::Runner.  The emitted BENCH_ablation_fda.json carries the
// agreement grid as the primary trajectory plus a "clustering" object
// with the second grid's axes and cells.

#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "campaign/campaign.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "sim/engine.hpp"

namespace {

using namespace canely;

/// One trial: node 1 signals failure of node 0; the first failure-sign
/// suffers an inconsistent omission at `n_victims` receivers and node 1
/// crashes immediately after.  Returns the number of survivors notified
/// (out of n-2: nodes 2..n-1).
int trial(std::size_t n, std::size_t n_victims, bool use_fda) {
  sim::Engine engine;
  can::Bus bus{engine};
  Params params;
  params.n = n;
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Node>(
        bus, static_cast<can::NodeId>(i), params));
  }

  can::NodeSet victims;
  for (std::size_t v = 0; v < n_victims; ++v) {
    victims.insert(static_cast<can::NodeId>(2 + v));
  }
  can::ScriptedFaults faults;
  faults.inconsistent_once(
      [](const can::TxContext& ctx) {
        const auto mid = Mid::decode(ctx.frame);
        return mid.has_value() && mid->type == MsgType::kFda;
      },
      victims);
  bus.set_fault_injector(&faults);
  bus.set_observer([&](const can::TxRecord& r) {
    const auto mid = Mid::decode(r.frame);
    if (mid.has_value() && mid->type == MsgType::kFda) {
      bus.set_observer({});
      engine.schedule_after(sim::Time::ns(1), [&] { nodes[1]->crash(); });
    }
  });

  int notified = 0;
  for (std::size_t i = 2; i < n; ++i) {
    nodes[i]->fda().set_nty_handler([&notified](can::NodeId) { ++notified; });
    if (!use_fda) {
      // "Naive" mode: deliver on reception but DO NOT echo — emulated by
      // counting raw indications instead of running the FDA recipient
      // rule.  We model it by watching the driver directly.
    }
  }
  if (use_fda) {
    nodes[1]->fda().fda_can_req(0);
  } else {
    // Naive signalling: one plain failure-sign remote frame, no echo —
    // disable the FDA recipient rule at EVERY node (node 0 included, or
    // its endpoint would echo on the others' behalf).
    notified = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i]->driver().on_rtr_ind(
          MsgType::kFda, [&notified, i](const Mid&, bool own) {
            if (!own && i >= 2) ++notified;
          });
    }
    nodes[1]->driver().can_rtr_req(Mid{MsgType::kFda, 0, 0});
  }
  engine.run_until(sim::Time::ms(10));
  return notified;
}

/// Frames consumed by one FDA execution among n nodes, with/without
/// wired-AND clustering of the echo.
std::pair<std::uint64_t, std::uint64_t> clustering_cost(std::size_t n,
                                                        bool clustering) {
  sim::Engine engine;
  can::BusConfig cfg;
  cfg.clustering = clustering;
  can::Bus bus{engine, cfg};
  Params params;
  params.n = n;
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Node>(
        bus, static_cast<can::NodeId>(i), params));
  }
  nodes[1]->fda().fda_can_req(0);
  engine.run_until(sim::Time::ms(20));
  return {bus.stats().ok, bus.stats().bits_total};
}

struct ClusterCost {
  std::uint64_t frames{0};
  std::uint64_t bits{0};
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = campaign::parse_cli(argc, argv, "BENCH_ablation_fda.json");
  if (opts.help) {
    campaign::print_cli_usage(argv[0]);
    return 2;
  }
  campaign::Runner runner{opts.threads};

  // Sweep (a): agreement under inconsistent omissions + sender crash.
  campaign::Grid agreement;
  agreement.axis("victims", {1, 2, 3, 4, 5})
      .axis("use_fda", {0, 1})
      .master_seed(opts.seed);
  const auto agreement_out =
      runner.run<int>(agreement, [](const campaign::RunSpec& s) {
        return trial(8, static_cast<std::size_t>(s.param("victims")),
                     s.param("use_fda") != 0);
      });

  // Sweep (b): frames per FDA execution with/without wired-AND merge.
  campaign::Grid clustering;
  clustering.axis("n", {4, 8, 16, 32})
      .axis("clustering", {1, 0})
      .master_seed(opts.seed);
  const auto clustering_out =
      runner.run<ClusterCost>(clustering, [](const campaign::RunSpec& s) {
        const auto [frames, bits] =
            clustering_cost(static_cast<std::size_t>(s.param("n")),
                            s.param("clustering") != 0);
        return ClusterCost{frames, bits};
      });

  std::cout << "Ablation A — agreement: survivors notified after an "
               "inconsistent\nfailure-sign omission + sender crash "
               "(8 nodes, 6 survivors):\n\n";
  std::cout << "  victims | naive signalling | FDA (Fig. 6)\n";
  std::cout << "  --------+------------------+-------------\n";
  json::Value agreement_cells = json::Value::array();
  bool agreement_ok = true;
  for (std::size_t v = 1; v <= 5; ++v) {
    // Cell layout: victims-major, use_fda minor — {v,0} then {v,1}.
    const std::size_t base = (v - 1) * 2;
    const int naive = *agreement_out.cell(agreement, base).at(0);
    const int fda = *agreement_out.cell(agreement, base + 1).at(0);
    std::cout << "     " << v << "    |       " << naive << " of 6       |   "
              << fda << " of 6\n";
    if (fda != 6) agreement_ok = false;
    if (naive != static_cast<int>(6 - v)) agreement_ok = false;
  }
  for (std::size_t cell = 0; cell < agreement.cells(); ++cell) {
    json::Value metrics = json::Value::object();
    metrics.set("notified",
                json::Value::integer(
                    *agreement_out.cell(agreement, cell).at(0)));
    json::Value cell_json = json::Value::object();
    cell_json.set("params",
                  campaign::params_json(agreement.cell_params(cell)));
    cell_json.set("metrics", std::move(metrics));
    agreement_cells.push(std::move(cell_json));
  }
  std::cout << "\n  -> naive signalling loses exactly the victims; FDA "
               "recovers all of them.\n";

  std::cout << "\nAblation B — clustering: cost of one FDA execution vs "
               "group size:\n\n";
  std::cout << "  nodes | clustered frames (bits) | unclustered frames "
               "(bits)\n";
  std::cout << "  ------+-------------------------+-----------------------"
               "---\n";
  json::Value clustering_cells = json::Value::array();
  bool clustering_ok = true;
  for (std::size_t row = 0; row < 4; ++row) {
    const std::size_t n = clustering.cell_params(row * 2)[0].second;
    const ClusterCost& on = *clustering_out.cell(clustering, row * 2).at(0);
    const ClusterCost& off =
        *clustering_out.cell(clustering, row * 2 + 1).at(0);
    std::cout << "   " << std::setw(3) << n << "  |        " << std::setw(2)
              << on.frames << " (" << std::setw(5) << on.bits
              << ")      |        " << std::setw(2) << off.frames << " ("
              << std::setw(5) << off.bits << ")\n";
    if (on.frames != 2) clustering_ok = false;   // original + merged echo
    if (off.frames != n) clustering_ok = false;  // original + n-1 echoes
  }
  for (std::size_t cell = 0; cell < clustering.cells(); ++cell) {
    const ClusterCost& c = *clustering_out.cell(clustering, cell).at(0);
    json::Value metrics = json::Value::object();
    metrics.set("frames", json::Value::integer(
                              static_cast<std::int64_t>(c.frames)));
    metrics.set("bits",
                json::Value::integer(static_cast<std::int64_t>(c.bits)));
    json::Value cell_json = json::Value::object();
    cell_json.set("params",
                  campaign::params_json(clustering.cell_params(cell)));
    cell_json.set("metrics", std::move(metrics));
    clustering_cells.push(std::move(cell_json));
  }
  std::cout << "\n  -> with the wired-AND merge the echo is O(1); without "
               "it, O(n) —\n     the bandwidth lever Fig. 10's FDA budget "
               "rests on.\n";

  if (!opts.json_path.empty()) {
    json::Value root =
        campaign::trajectory_header("ablation_fda", agreement);
    root.set("cells", std::move(agreement_cells));
    json::Value cl = campaign::trajectory_header("ablation_fda", clustering);
    cl.set("cells", std::move(clustering_cells));
    root.set("clustering", std::move(cl));
    if (!campaign::emit_trajectory(root, opts)) return 1;
  }

  const bool ok = agreement_ok && clustering_ok;
  std::cout << (ok ? "\nSHAPE OK\n" : "\nSHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
