#include "check/universe.hpp"

#include <algorithm>
#include <stdexcept>

#include "canely/mid.hpp"
#include "sim/hash.hpp"

namespace canely::check {
namespace {

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

// ------------------------------------------------------------ injector

void LoggingInjector::arm(const FaultScript& script, const RunOptions& opts) {
  script_ = script;
  own_end_ = script_end(script);
  want_log_ = opts.want_tx_log;
  sample_at_ = opts.sample_at;
  s_.rejoin = {};
  if (opts.rejoin != nullptr) {
    const std::span<const StateSample> all = opts.rejoin->samples;
    const auto post = std::partition_point(
        all.begin(), all.end(), [&](const StateSample& s) {
          return s.tx_index < opts.rejoin->script_end;
        });
    s_.rejoin = all.subspan(static_cast<std::size_t>(post - all.begin()));
  }
}

can::Verdict LoggingInjector::judge(const can::TxContext& ctx) {
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
      s_.samples.push_back(
          StateSample{ctx.tx_index, sampler_(), ctx.start, crashed_});
    }
    if (want_log_) s_.log.push_back(e);
  }
  if (!s_.rejoin.empty() && ctx.tx_index >= own_end_) check_rejoin(ctx);
  bool crash = false;
  const can::Verdict verdict = script_verdict(script_, ctx, crash);
  if (crash) {
    s_.crash_pending = true;
    s_.crash_node = ctx.transmitter;
  }
  return verdict;
}

/// Past the own script: skip target samples that start earlier; at the
/// first shared instant compare (crash set first — cheap and necessary —
/// then the digest), and disarm either way.
void LoggingInjector::check_rejoin(const can::TxContext& ctx) {
  while (!s_.rejoin.empty() && s_.rejoin.front().start < ctx.start) {
    s_.rejoin = s_.rejoin.subspan(1);
  }
  if (s_.rejoin.empty() || s_.rejoin.front().start != ctx.start) return;
  const StateSample target = s_.rejoin.front();
  s_.rejoin = {};
  if (target.crashed == crashed_ && target.state_hash == sampler_()) {
    s_.rejoined = true;
    engine_.stop();
  }
}

// ------------------------------------------------------------ universe

Universe::Universe(const ScenarioConfig& cfg, sim::Arena& nodes,
                   obs::Recorder* recorder)
    : cfg_{cfg},
      arena_{nodes},
      recorder_{recorder},
      bus_cfg_{[&] {
        can::BusConfig b;
        b.clustering = cfg.clustering;
        return b;
      }()},
      bus_{engine_, bus_cfg_},
      injector_{s_.crashed, engine_, [this] { return state_digest(); }},
      fda_mon_{cfg.n},
      rha_mon_{cfg.n},
      view_mon_{cfg.n, cfg.expel_grace(), cfg.converge_by()},
      latency_mon_{cfg.detection_bound()},
      monitors_{&fda_mon_, &rha_mon_, &view_mon_, &silence_mon_,
                &latency_mon_} {
  s_.crash_time.resize(cfg.n);
  s_.installs.resize(cfg.n);
  bus_.set_fault_injector(&injector_);
  bus_.set_recorder(recorder_);

  nodes_.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    nodes_.push_back(arena_.make<Node>(bus_, static_cast<can::NodeId>(i),
                                       cfg.params, nullptr, recorder_));
  }
  if (recorder_ != nullptr) {
    hist_detect_ = &recorder_->metrics().histogram(
        "fd.detection_latency_us", {1'000, 2'000, 5'000, 10'000, 20'000,
                                    50'000, 100'000, 200'000});
  }

  // Wire the observation seams.  Protocol code keeps its own handler
  // slots; monitors ride the secondary observer slots.
  for (std::size_t i = 0; i < cfg.n; ++i) {
    const auto id = static_cast<can::NodeId>(i);
    Node& node = *nodes_[i];
    node.fda().set_nty_observer([this, id](can::NodeId failed) {
      for (Monitor* m : monitors_) m->on_fda_nty(id, failed, engine_.now());
      if (hist_detect_ != nullptr && s_.crashed.contains(failed)) {
        hist_detect_->add((engine_.now() - s_.crash_time[failed]).to_us());
      }
    });
    node.rha().set_observer([this, id](RhaEvent e, can::NodeSet agreed) {
      if (e != RhaEvent::kEnd) return;
      for (Monitor* m : monitors_) m->on_rha_end(id, agreed, engine_.now());
    });
    node.membership().set_view_observer([this, id](can::NodeSet view) {
      for (Monitor* m : monitors_) {
        m->on_view_installed(id, view, engine_.now());
      }
      if (want_tx_log_) {
        s_.installs[id].push_back(ViewInstall{engine_.now(), view});
      }
    });
  }
  bus_.set_observer([this](const can::TxRecord& rec) { on_tx(rec); });

  for (Node* node : nodes_) node->join();
}

Universe::~Universe() {
  arena_.reset();  // nodes detach from the bus, which is still alive
}

void Universe::on_tx(const can::TxRecord& rec) {
  s_.trace_hash = hash_record(s_.trace_hash, rec);
  for (Monitor* m : monitors_) m->on_tx(rec);
  // Scripted sender crash: end of the judged frame, delivery done, the
  // requeued retransmission still pending — crashing now withdraws it,
  // turning the inconsistent omission into an inconsistent *message*
  // omission (§6.1).
  can::NodeId victim;
  if (injector_.take_pending_crash(victim) && victim < cfg_.n &&
      !nodes_[victim]->crashed()) {
    s_.crashed.insert(victim);
    s_.crash_time[victim] = engine_.now();
    nodes_[victim]->crash();
    for (Monitor* m : monitors_) m->on_crash(victim, engine_.now());
  }
  if (bus_.stats().attempts == stop_at_) engine_.stop();
}

void Universe::arm(const FaultScript& script, const RunOptions& opts) {
  want_tx_log_ = opts.want_tx_log;
  rejoin_ = opts.rejoin;
  injector_.arm(script, opts);
}

bool Universe::run_to_attempt(std::uint64_t attempts) {
  if (bus_.stats().attempts < attempts) {
    stop_at_ = attempts;
    engine_.run_until(cfg_.duration);
    stop_at_ = kNever;
  }
  return bus_.stats().attempts == attempts && !injector_.rejoined();
}

std::uint64_t Universe::attempts() const { return bus_.stats().attempts; }

std::uint64_t Universe::state_digest() const {
  // Canonical state hash: fixed feed order — instant, bus, nodes 0..n-1,
  // the crash record the harness itself maintains, then the monitor
  // panel.  Everything the run's continuation depends on is in here;
  // each component documents its own exclusions.
  sim::StateHasher h;
  h.feed_time(engine_.now());
  bus_.hash_state(h);
  for (const Node* node : nodes_) node->hash_state(h);
  h.feed(s_.crashed.bits());
  for (can::NodeId c : s_.crashed) h.feed_time(s_.crash_time[c]);
  for (const Monitor* m : monitors_) m->hash_state(h, cfg_.n);
  return h.digest();
}

RunResult Universe::finish() {
  engine_.run_until(cfg_.duration);

  RunResult result;
  if (injector_.rejoined()) {
    // Same state as the target at a post-script instant: its verdict is
    // this run's (RejoinTarget).
    result.rejoined = true;
    result.violations.assign(rejoin_->violations.begin(),
                             rejoin_->violations.end());
  } else {
    EndState end;
    end.end = cfg_.duration;
    end.settle = cfg_.settle;
    end.nodes = can::NodeSet::first_n(cfg_.n);
    end.crashed = s_.crashed;
    end.crash_time = s_.crash_time;
    end.final_view.resize(cfg_.n);
    for (std::size_t i = 0; i < cfg_.n; ++i) {
      end.final_view[i] = nodes_[i]->view();
      if (!nodes_[i]->crashed() && nodes_[i]->is_member()) {
        end.members_at_end.insert(static_cast<can::NodeId>(i));
      }
    }
    for (Monitor* m : monitors_) m->finish(end, result.violations);
  }
  if (recorder_ != nullptr) {
    obs::set_run_gauges(*recorder_, engine_.dispatched(),
                        bus_.stats().bits_total, bus_cfg_.bit_rate_bps,
                        cfg_.duration);
  }
  result.trace_hash = s_.trace_hash;
  result.attempts = bus_.stats().attempts;
  // A rejoin stops the engine early; the run still stands for the whole
  // scenario.
  result.end = cfg_.duration;
  if (want_tx_log_) {
    result.tx_log = injector_.state().log;
    result.installs = s_.installs;
  }
  result.samples = injector_.state().samples;
  return result;
}

void Universe::checkpoint(Checkpoint& out) const {
  if (recorder_ != nullptr) {
    throw std::logic_error(
        "check::Universe: a recorded universe cannot be checkpointed");
  }
  engine_.checkpoint(out.engine);
  bus_.checkpoint(out.bus);
  out.nodes.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->checkpoint(out.nodes[i]);
  }
  fda_mon_.checkpoint(out.fda_mon);
  rha_mon_.checkpoint(out.rha_mon);
  view_mon_.checkpoint(out.view_mon);
  silence_mon_.checkpoint(out.silence_mon);
  latency_mon_.checkpoint(out.latency_mon);
  injector_.checkpoint(out.injector);
  out.harness = s_;
}

void Universe::restore(const Checkpoint& in) {
  engine_.restore(in.engine);
  bus_.restore(in.bus);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->restore(in.nodes[i]);
  }
  fda_mon_.restore(in.fda_mon);
  rha_mon_.restore(in.rha_mon);
  view_mon_.restore(in.view_mon);
  silence_mon_.restore(in.silence_mon);
  latency_mon_.restore(in.latency_mon);
  injector_.restore(in.injector);
  s_ = in.harness;
}

}  // namespace canely::check
