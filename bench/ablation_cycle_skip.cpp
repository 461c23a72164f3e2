// Ablation: skipping the RHA execution in idle membership cycles
// (Fig. 9, s24-s25 — "should no request be pending when the membership
// cycle timer expires, the execution of the RHA micro-protocol is
// skipped, in order to save CAN bandwidth").
//
// Run the same quiet 16-node system with the optimization on and off and
// compare the standing protocol bandwidth; then verify that churn is
// handled identically in both modes (the optimization must not cost
// correctness or latency when changes DO happen).
//
// The two configurations are independent simulations and run on
// campaign::Runner (trivially small, but it buys the shared CLI and the
// BENCH_*.json trajectory for free).

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

struct Outcome {
  double rha_bandwidth_pct{0};
  double total_protocol_pct{0};
  sim::Time join_latency{sim::Time::max()};
};

Outcome run(bool skip_idle_cycles) {
  sim::Engine engine;
  can::Bus bus{engine};
  Params params;
  params.n = 16;
  params.tx_delay_bound = sim::Time::ms(4);
  params.skip_idle_cycles = skip_idle_cycles;

  std::uint64_t rha_bits = 0, protocol_bits = 0;
  bus.set_observer([&](const can::TxRecord& r) {
    const auto mid = Mid::decode(r.frame);
    if (!mid.has_value() || mid->type == MsgType::kApp) return;
    protocol_bits += r.bits;
    if (mid->type == MsgType::kRha) rha_bits += r.bits;
  });

  std::vector<std::unique_ptr<Node>> nodes;
  for (can::NodeId id = 0; id < 16; ++id) {
    nodes.push_back(std::make_unique<Node>(bus, id, params));
  }
  for (std::size_t i = 0; i < 15; ++i) nodes[i]->join();
  engine.run_until(sim::Time::ms(500));

  // Quiet steady state: 4 s.
  const std::uint64_t rha0 = rha_bits, prot0 = protocol_bits;
  const sim::Time t0 = engine.now();
  engine.run_until(t0 + sim::Time::sec(4));
  Outcome out;
  out.rha_bandwidth_pct = 100.0 * static_cast<double>(rha_bits - rha0) /
                          (engine.now() - t0).to_us_f();
  out.total_protocol_pct = 100.0 *
                           static_cast<double>(protocol_bits - prot0) /
                           (engine.now() - t0).to_us_f();

  // One late join: latency must be comparable in both modes.
  bool admitted = false;
  sim::Time t_admit = sim::Time::max();
  nodes[0]->on_membership_change(
      [&](can::NodeSet active, can::NodeSet) {
        if (!admitted && active.contains(15)) {
          admitted = true;
          t_admit = engine.now();
        }
      });
  const sim::Time t_join = engine.now();
  nodes[15]->join();
  engine.run_until(t_join + sim::Time::ms(300));
  if (admitted) out.join_latency = t_admit - t_join;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts =
      campaign::parse_cli(argc, argv, "BENCH_ablation_cycle_skip.json");
  if (opts.help) {
    campaign::print_cli_usage(argv[0]);
    return 2;
  }

  campaign::Grid grid;
  grid.axis("skip_idle", {1, 0}).master_seed(opts.seed);
  campaign::Runner runner{opts.threads};
  const auto outcome =
      runner.run<Outcome>(grid, [](const campaign::RunSpec& s) {
        return run(s.param("skip_idle") != 0);
      });
  const Outcome& skip = *outcome.cell(grid, 0).at(0);
  const Outcome& always = *outcome.cell(grid, 1).at(0);

  std::cout << "Ablation — idle-cycle RHA skipping (16 nodes, Tm = 30 ms, "
               "quiet system)\n\n";
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "                      |  skip idle (paper) | always run RHA\n";
  std::cout << "  --------------------+--------------------+---------------\n";
  std::cout << "  RHA bandwidth       |      " << std::setw(6)
            << skip.rha_bandwidth_pct << "%       |    " << std::setw(6)
            << always.rha_bandwidth_pct << "%\n";
  std::cout << "  protocol bandwidth  |      " << std::setw(6)
            << skip.total_protocol_pct << "%       |    " << std::setw(6)
            << always.total_protocol_pct << "%\n";
  std::cout << std::setprecision(1);
  std::cout << "  join latency        |      " << std::setw(6)
            << skip.join_latency.to_ms_f() << "ms      |    " << std::setw(6)
            << always.join_latency.to_ms_f() << "ms\n";

  if (!opts.json_path.empty()) {
    json::Value cells = json::Value::array();
    for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
      const Outcome& o = *outcome.cell(grid, cell).at(0);
      json::Value metrics = json::Value::object();
      metrics.set("rha_bandwidth_pct",
                  json::Value::number(o.rha_bandwidth_pct));
      metrics.set("total_protocol_pct",
                  json::Value::number(o.total_protocol_pct));
      metrics.set("join_latency_ms",
                  json::Value::number(o.join_latency.to_ms_f()));
      json::Value cell_json = json::Value::object();
      cell_json.set("params",
                    campaign::params_json(grid.cell_params(cell)));
      cell_json.set("metrics", std::move(metrics));
      cells.push(std::move(cell_json));
    }
    json::Value root =
        campaign::trajectory_header("ablation_cycle_skip", grid);
    root.set("cells", std::move(cells));
    if (!campaign::emit_trajectory(root, opts)) return 1;
  }

  std::cout << "\n  -> a quiet system pays zero RHA bandwidth with the "
               "paper's optimization;\n     always-on RHA burns (j+1) RHV "
               "frames every cycle for nothing, while\n     join handling "
               "latency is unchanged.\n";

  const bool ok = skip.rha_bandwidth_pct < 0.01 &&
                  always.rha_bandwidth_pct > 0.5 &&
                  skip.join_latency < sim::Time::ms(100) &&
                  always.join_latency < sim::Time::ms(100);
  std::cout << (ok ? "\nSHAPE OK\n" : "\nSHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
