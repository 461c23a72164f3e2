#include "check/harness.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "can/bus.hpp"
#include "canely/mid.hpp"
#include "canely/node.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/hash.hpp"

namespace canely::check {
namespace {

/// Wraps the script injector to also record the per-attempt targeting map
/// (probe runs), sample the state hash, and detect a rejoin.  judge()
/// sees every non-collision attempt exactly once, in wire order, with the
/// full TxContext — including the global attempt index the scripts key on.
class LoggingInjector final : public can::FaultInjector {
 public:
  /// Returns the canonical state hash of the whole universe, evaluated at
  /// the instant of the call (judge-time, pre-verdict).
  using Sampler = std::function<std::uint64_t()>;
  using SampleAt = std::function<bool(const TxLogEntry&)>;

  LoggingInjector(FaultScript script, bool want_log,
                  const can::NodeSet& crashed)
      : own_end_{script_end(script)},
        inner_{std::move(script)},
        want_log_{want_log},
        crashed_{crashed} {}

  void set_sampler(Sampler sampler, SampleAt sample_at) {
    sampler_ = std::move(sampler);
    sample_at_ = std::move(sample_at);
  }

  /// Arm the rejoin check (needs the sampler); a rejoin stops `engine`.
  void set_rejoin(const RejoinTarget& target, sim::Engine& engine) {
    rejoin_ = target.samples;
    const auto post = std::partition_point(
        rejoin_.begin(), rejoin_.end(), [&](const StateSample& s) {
          return s.tx_index < target.script_end;
        });
    rejoin_ = rejoin_.subspan(
        static_cast<std::size_t>(post - rejoin_.begin()));
    engine_ = &engine;
  }

  can::Verdict judge(const can::TxContext& ctx) override {
    if (want_log_ || sample_at_) {
      TxLogEntry e;
      e.tx_index = ctx.tx_index;
      e.transmitter = ctx.transmitter;
      e.co_transmitters = ctx.co_transmitters;
      e.receivers = ctx.receivers;
      e.remote = ctx.frame.remote;
      e.start = ctx.start;
      if (const auto mid = Mid::decode(ctx.frame); mid.has_value()) {
        e.msg_type = static_cast<std::uint8_t>(mid->type);
        e.mid_node = mid->node;
      }
      // Sample before the verdict: the hash captures the state a fault
      // targeting this attempt would act on.
      if (sample_at_ && sample_at_(e)) {
        samples_.push_back(
            StateSample{ctx.tx_index, sampler_(), ctx.start, crashed_});
      }
      if (want_log_) log_.push_back(e);
    }
    if (!rejoin_.empty() && ctx.tx_index >= own_end_) check_rejoin(ctx);
    return inner_.judge(ctx);
  }

  bool take_pending_crash(can::NodeId& node) {
    return inner_.take_pending_crash(node);
  }

  [[nodiscard]] std::vector<TxLogEntry>& log() { return log_; }
  [[nodiscard]] std::vector<StateSample>& samples() { return samples_; }
  [[nodiscard]] bool rejoined() const { return rejoined_; }

 private:
  /// Past the own script: skip target samples that start earlier; at the
  /// first shared instant compare (crash set first — cheap and
  /// necessary — then the digest), and disarm either way.
  void check_rejoin(const can::TxContext& ctx) {
    while (!rejoin_.empty() && rejoin_.front().start < ctx.start) {
      rejoin_ = rejoin_.subspan(1);
    }
    if (rejoin_.empty() || rejoin_.front().start != ctx.start) return;
    const StateSample target = rejoin_.front();
    rejoin_ = {};
    if (target.crashed == crashed_ && target.state_hash == sampler_()) {
      rejoined_ = true;
      engine_->stop();
    }
  }

  std::uint64_t own_end_;
  ScriptInjector inner_;
  bool want_log_;
  const can::NodeSet& crashed_;
  Sampler sampler_;
  SampleAt sample_at_;
  std::vector<TxLogEntry> log_;
  std::vector<StateSample> samples_;
  std::span<const StateSample> rejoin_;  ///< unvisited post-script samples
  sim::Engine* engine_{nullptr};
  bool rejoined_{false};
};

std::uint64_t hash_record(std::uint64_t h, const can::TxRecord& rec) {
  h = fnv1a(h, static_cast<std::uint64_t>(rec.start.to_ns()));
  h = fnv1a(h, static_cast<std::uint64_t>(rec.end.to_ns()));
  h = fnv1a(h, rec.frame.id);
  h = fnv1a(h, (static_cast<std::uint64_t>(rec.frame.format) << 16) |
                   (static_cast<std::uint64_t>(rec.frame.remote) << 8) |
                   rec.frame.dlc);
  for (std::uint8_t byte : rec.frame.payload()) h = fnv1a(h, byte);
  h = fnv1a(h, rec.transmitter);
  h = fnv1a(h, rec.co_transmitters.bits());
  h = fnv1a(h, rec.delivered_to.bits());
  h = fnv1a(h, static_cast<std::uint64_t>(rec.outcome));
  h = fnv1a(h, rec.bits);
  h = fnv1a(h, static_cast<std::uint64_t>(rec.attempt));
  return h;
}

}  // namespace

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
  const bool want_tx_log = opts.want_tx_log;
  obs::Recorder* recorder = opts.recorder;
  sim::Engine engine;
  can::BusConfig bus_cfg;
  bus_cfg.clustering = cfg.clustering;
  can::Bus bus{engine, bus_cfg};

  // The crash record the harness itself maintains; the injector reads
  // its crash set when sampling.
  EndState end;
  end.nodes = can::NodeSet::first_n(cfg.n);
  end.settle = cfg.settle;

  LoggingInjector injector{script, want_tx_log, end.crashed};
  bus.set_fault_injector(&injector);
  bus.set_recorder(recorder);

  // Per-worker arena: the whole node universe for this run comes out of
  // retained blocks, and teardown is one reverse finalizer sweep — the
  // second run on a campaign worker thread does no node mallocs at all.
  static thread_local sim::Arena arena;
  struct ArenaScope {
    sim::Arena& a;
    ~ArenaScope() { a.reset(); }
  } arena_scope{arena};  // declared after bus: nodes die before the bus

  std::vector<Node*> nodes;
  nodes.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    nodes.push_back(arena.make<Node>(bus, static_cast<can::NodeId>(i),
                                     cfg.params, nullptr, recorder));
  }
  obs::Histogram* hist_detect =
      recorder != nullptr
          ? &recorder->metrics().histogram(
                "fd.detection_latency_us",
                {1'000, 2'000, 5'000, 10'000, 20'000, 50'000, 100'000,
                 200'000})
          : nullptr;

  // The monitor panel.
  FdaAgreementMonitor fda_mon{cfg.n};
  RhaAgreementMonitor rha_mon;
  ViewConsistencyMonitor view_mon{cfg.expel_grace(), cfg.converge_by()};
  FailSilenceMonitor silence_mon;
  DetectionLatencyMonitor latency_mon{cfg.detection_bound()};
  const std::array<Monitor*, 5> monitors{&fda_mon, &rha_mon, &view_mon,
                                         &silence_mon, &latency_mon};

  RunResult result;

  // Wire the observation seams.  Protocol code keeps its own handler
  // slots; monitors ride the secondary observer slots.
  for (std::size_t i = 0; i < cfg.n; ++i) {
    const auto id = static_cast<can::NodeId>(i);
    Node& node = *nodes[i];
    node.fda().set_nty_observer([&, id](can::NodeId failed) {
      for (Monitor* m : monitors) m->on_fda_nty(id, failed, engine.now());
      if (hist_detect != nullptr && end.crashed.contains(failed)) {
        hist_detect->add((engine.now() - end.crash_time[failed]).to_us());
      }
    });
    node.rha().set_observer([&, id](RhaEvent e, can::NodeSet agreed) {
      if (e == RhaEvent::kEnd) {
        for (Monitor* m : monitors) m->on_rha_end(id, agreed, engine.now());
      }
    });
    node.membership().set_view_observer([&, id](can::NodeSet view) {
      for (Monitor* m : monitors) m->on_view_installed(id, view, engine.now());
      if (want_tx_log) {
        result.installs[id].push_back(ViewInstall{engine.now(), view});
      }
    });
  }

  if (opts.sample_at || opts.rejoin != nullptr) {
    // Canonical state hash: fixed feed order — instant, bus, nodes 0..n-1,
    // the crash record the harness itself maintains, then the monitor
    // panel.  Everything the run's continuation depends on is in here;
    // each component documents its own exclusions.
    injector.set_sampler(
        [&]() {
          sim::StateHasher h;
          h.feed_time(engine.now());
          bus.hash_state(h);
          for (const Node* node : nodes) node->hash_state(h);
          h.feed(end.crashed.bits());
          for (can::NodeId c : end.crashed) h.feed_time(end.crash_time[c]);
          for (const Monitor* m : monitors) m->hash_state(h, cfg.n);
          return h.digest();
        },
        opts.sample_at);
    if (opts.rejoin != nullptr) {
      injector.set_rejoin(*opts.rejoin, engine);
    }
  }

  std::uint64_t hash = kFnvOffset;
  bus.set_observer([&](const can::TxRecord& rec) {
    hash = hash_record(hash, rec);
    for (Monitor* m : monitors) m->on_tx(rec);
    // Scripted sender crash: end of the judged frame, delivery done, the
    // requeued retransmission still pending — crashing now withdraws it,
    // turning the inconsistent omission into an inconsistent *message*
    // omission (§6.1).
    can::NodeId victim;
    if (injector.take_pending_crash(victim) && victim < cfg.n &&
        !nodes[victim]->crashed()) {
      end.crashed.insert(victim);
      end.crash_time[victim] = engine.now();
      nodes[victim]->crash();
      for (Monitor* m : monitors) m->on_crash(victim, engine.now());
    }
  });

  for (auto& node : nodes) node->join();
  engine.run_until(cfg.duration);

  end.end = engine.now();
  for (std::size_t i = 0; i < cfg.n; ++i) {
    end.final_view[i] = nodes[i]->view();
    if (!nodes[i]->crashed() && nodes[i]->is_member()) {
      end.members_at_end.insert(static_cast<can::NodeId>(i));
    }
  }

  if (injector.rejoined()) {
    // Same state as the target at a post-script instant: its verdict is
    // this run's (RejoinTarget).
    result.rejoined = true;
    result.violations.assign(opts.rejoin->violations.begin(),
                             opts.rejoin->violations.end());
  } else {
    for (Monitor* m : monitors) m->finish(end, result.violations);
  }
  if (recorder != nullptr) {
    obs::set_run_gauges(*recorder, engine.dispatched(),
                        bus.stats().bits_total, bus_cfg.bit_rate_bps,
                        cfg.duration);
  }
  result.trace_hash = hash;
  result.attempts = bus.stats().attempts;
  result.end = end.end;
  if (want_tx_log) result.tx_log = std::move(injector.log());
  result.samples = std::move(injector.samples());
  return result;
}

}  // namespace canely::check
