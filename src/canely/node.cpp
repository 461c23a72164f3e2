#include "canely/node.hpp"

namespace canely {

Node::Node(can::Bus& bus, can::NodeId id, const Params& params,
           std::nullptr_t, obs::Recorder* recorder)
    : engine_{bus.engine()},
      params_{params},
      recorder_{recorder},
      controller_{id, bus},
      driver_{controller_, engine_},
      // One surveillance alarm per node (FD, Fig. 8) plus the RHA and
      // membership alarms; periodic streams grow the storage on demand.
      timers_{engine_, params.n + 2},
      fda_{driver_, recorder},
      rha_{driver_, timers_, params_, recorder},
      fd_{driver_, timers_, fda_, params_, recorder},
      msh_{driver_, timers_, rha_, fd_, fda_, params_, recorder},
      groups_{driver_, msh_} {
  controller_.set_recorder(recorder);
  fda_.set_agreement(params_.fda_agreement);
  // Site membership changes fan out to the process-group layer first,
  // then to the application handler.
  msh_.set_change_handler([this](can::NodeSet active, can::NodeSet failed) {
    groups_.on_site_change(active, failed);
    if (site_change_) site_change_(active, failed);
  });
  driver_.on_data_ind(MsgType::kApp,
                      [this](const Mid& mid,
                             std::span<const std::uint8_t> data, bool own) {
                        if (app_) app_(mid.node, mid.ref, data, own);
                      });
}

void Node::emit_lifecycle(obs::EventKind kind) {
  if (recorder_ == nullptr) return;
  obs::Event ev;
  ev.when = engine_.now();
  ev.kind = kind;
  ev.node = id();
  ev.u.view = {msh_.view().bits()};
  recorder_->emit(ev);
}

void Node::join() {
  emit_lifecycle(obs::EventKind::kNodeJoin);
  msh_.msh_can_req_join();
}

void Node::leave() {
  emit_lifecycle(obs::EventKind::kNodeLeave);
  msh_.msh_can_req_leave();
}

void Node::send(std::uint8_t stream, std::span<const std::uint8_t> data) {
  if (s_.crashed) return;
  driver_.can_data_req(Mid{MsgType::kApp, stream, id()}, data);
}

void Node::start_periodic(std::uint8_t stream, sim::Time period,
                          std::vector<std::uint8_t> payload) {
  PeriodicStream& s = s_.periodic[stream];
  s.active = true;
  s.period = period;
  s.payload = std::move(payload);
  if (timers_.restart_alarm(s.timer, period)) return;
  s.timer = timers_.start_alarm(period, [this, stream] {
    periodic_tick(stream);
  });
}

void Node::stop_periodic(std::uint8_t stream) {
  const auto it = s_.periodic.find(stream);
  if (it == s_.periodic.end()) return;
  PeriodicStream& s = it->second;
  s.active = false;
  timers_.cancel_alarm(s.timer);
  s.timer = sim::kNullTimer;
}

void Node::periodic_tick(std::uint8_t stream) {
  PeriodicStream& s = s_.periodic.at(stream);  // map nodes never move
  if (!s.active || s_.crashed) return;
  send(stream, s.payload);
  s.timer = timers_.start_alarm(s.period, [this, stream] {
    periodic_tick(stream);
  });
}

void Node::crash() {
  if (s_.crashed) return;
  s_.crashed = true;
  emit_lifecycle(obs::EventKind::kNodeCrash);
  controller_.crash();
  timers_.cancel_all();  // every protocol timer and traffic stream dies
}

void Node::crash_at(sim::Time when) {
  engine_.schedule_at(when, [this] { crash(); });
}

void Node::checkpoint(Checkpoint& out) const {
  out.node = s_;
  controller_.checkpoint(out.controller);
  timers_.checkpoint(out.timers);
  fda_.checkpoint(out.fda);
  rha_.checkpoint(out.rha);
  fd_.checkpoint(out.fd);
  msh_.checkpoint(out.msh);
  groups_.checkpoint(out.groups);
}

void Node::restore(const Checkpoint& in) {
  s_ = in.node;
  controller_.restore(in.controller);
  timers_.restore(in.timers);
  fda_.restore(in.fda);
  rha_.restore(in.rha);
  fd_.restore(in.fd);
  msh_.restore(in.msh);
  groups_.restore(in.groups);
}

void Node::hash_state(sim::StateHasher& h) const {
  // Fixed feed order: liveness, controller, then the stack bottom-up
  // (fd, fda, rha, msh, groups), then the periodic traffic streams.
  // Exclusions beyond what each component documents: crash_at() events
  // (never used by the checked harness — it crashes nodes synchronously
  // from the bus observer) and the recorder wiring (pure observation).
  h.feed_bool(s_.crashed);
  controller_.hash_state(h);
  fd_.hash_state(h);
  fda_.hash_state(h);
  rha_.hash_state(h);
  msh_.hash_state(h);
  groups_.hash_state(h);
  std::uint64_t active_streams = 0;
  for (const auto& [id, s] : s_.periodic) {
    if (s.active) ++active_streams;
  }
  h.feed(active_streams);
  for (const auto& [id, s] : s_.periodic) {
    if (!s.active) continue;
    h.feed(id);
    h.feed_time(s.period);
    h.feed(s.payload.size());
    h.feed_bytes(s.payload);
    h.feed_time(timers_.deadline(s.timer));
  }
}

}  // namespace canely
