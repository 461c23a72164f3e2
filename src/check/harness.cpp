#include "check/harness.hpp"

#include <algorithm>

#include "check/universe.hpp"
#include "sim/arena.hpp"

namespace canely::check {

std::uint64_t script_end(const FaultScript& script) {
  std::uint64_t end = 0;
  for (const FaultEvent& ev : script) end = std::max(end, ev.tx + 1);
  return end;
}

ScenarioConfig ScenarioConfig::membership(std::size_t n, bool fda_on) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.params.n = n;
  cfg.params.heartbeat_period = sim::Time::ms(8);
  cfg.params.tx_delay_bound = sim::Time::ms(2);
  cfg.params.membership_cycle = sim::Time::ms(20);
  cfg.params.rha_timeout = sim::Time::ms(5);
  cfg.params.join_wait = sim::Time::ms(60);
  cfg.params.fda_agreement = fda_on;
  cfg.duration = sim::Time::ms(160);
  return cfg;
}

sim::Time ScenarioConfig::detection_bound() const {
  return params.heartbeat_period + 2 * params.tx_delay_bound +
         params.fd_skew_quantum * static_cast<std::int64_t>(n) +
         latency_margin;
}

sim::Time ScenarioConfig::converge_by() const {
  return params.join_wait + params.membership_cycle + params.rha_timeout +
         latency_margin;
}

sim::Time ScenarioConfig::expel_grace() const {
  return detection_bound() + params.membership_cycle + params.rha_timeout +
         latency_margin;
}

RunResult run_checked(const ScenarioConfig& cfg, const FaultScript& script,
                      bool want_tx_log, obs::Recorder* recorder) {
  RunOptions opts;
  opts.want_tx_log = want_tx_log;
  opts.recorder = recorder;
  return run_checked(cfg, script, opts);
}

RunResult run_checked(const ScenarioConfig& cfg, const FaultScript& script,
                      const RunOptions& opts) {
  // Per-thread node storage: the whole node universe of a run comes out
  // of retained blocks, and teardown is one reverse finalizer sweep — the
  // second run on a campaign worker thread does no node mallocs at all.
  // run_checked never nests on a thread, so one arena serves every run.
  static thread_local sim::Arena arena;
  Universe universe{cfg, arena, opts.recorder};
  universe.arm(script, opts);
  return universe.finish();
}

}  // namespace canely::check
