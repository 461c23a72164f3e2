#include "baselines/canopen.hpp"

namespace canely::baselines {

// ---------------------------------------------------------------- slave --

CanopenSlave::CanopenSlave(can::Bus& bus, can::NodeId id,
                           sim::TimerService& timers)
    : controller_{id, bus}, timers_{timers} {
  controller_.set_client(this);
}

void CanopenSlave::boot() {
  if (crashed_) return;
  state_ = NmtState::kBootUp;
  const std::uint8_t payload[] = {static_cast<std::uint8_t>(state_)};
  controller_.request_tx(can::Frame::make_data(
      kErrorControlBase + controller_.node(), payload));
  state_ = NmtState::kPreOperational;  // CiA-301: autonomous transition
}

void CanopenSlave::start_heartbeat(sim::Time producer_time) {
  producer_time_ = producer_time;
  heartbeat_tick();
}

void CanopenSlave::heartbeat_tick() {
  if (crashed_) return;
  const std::uint8_t payload[] = {static_cast<std::uint8_t>(state_)};
  controller_.request_tx(can::Frame::make_data(
      kErrorControlBase + controller_.node(), payload));
  timers_.start_alarm(producer_time_, [this] { heartbeat_tick(); });
}

void CanopenSlave::crash() {
  crashed_ = true;
  controller_.crash();
}

void CanopenSlave::on_rx(const can::Frame& frame, bool own) {
  if (crashed_ || own) return;
  // Guard poll: remote frame on our own error-control COB-ID.
  if (frame.remote && frame.id == kErrorControlBase + controller_.node()) {
    toggle_ = !toggle_;
    const std::uint8_t payload[] = {static_cast<std::uint8_t>(
        (toggle_ ? 0x80 : 0x00) | static_cast<std::uint8_t>(state_))};
    controller_.request_tx(can::Frame::make_data(
        kErrorControlBase + controller_.node(), payload));
    return;
  }
  // NMT module-control command: COB-ID 0, payload [cs, target].
  if (!frame.remote && frame.id == kNmtCommand && frame.dlc >= 2) {
    const auto target = static_cast<can::NodeId>(frame.data[1]);
    if (target != 0 && target != controller_.node()) return;
    switch (static_cast<NmtCommand>(frame.data[0])) {
      case NmtCommand::kStart:
        state_ = NmtState::kOperational;
        break;
      case NmtCommand::kStop:
        state_ = NmtState::kStopped;
        break;
      case NmtCommand::kEnterPreOperational:
        state_ = NmtState::kPreOperational;
        break;
      case NmtCommand::kResetNode:
        boot();
        break;
    }
  }
}

// ------------------------------------------------------------ NMT master --

CanopenNmtMaster::CanopenNmtMaster(can::Bus& bus, can::NodeId id)
    : controller_{id, bus} {
  controller_.set_client(this);
}

void CanopenNmtMaster::command(NmtCommand cmd, can::NodeId target) {
  const std::uint8_t payload[] = {static_cast<std::uint8_t>(cmd), target};
  controller_.request_tx(can::Frame::make_data(kNmtCommand, payload));
}

// --------------------------------------------------------------- master --

CanopenMaster::CanopenMaster(can::Bus& bus, can::NodeId id,
                             sim::TimerService& timers, sim::Time guard_time,
                             sim::Time response_timeout)
    : controller_{id, bus}, timers_{timers}, guard_time_{guard_time},
      response_timeout_{response_timeout} {
  controller_.set_client(this);
}

void CanopenMaster::start_guarding(const std::vector<can::NodeId>& slaves) {
  slaves_ = slaves;
  next_ = 0;
  poll_next();
}

void CanopenMaster::poll_next() {
  if (slaves_.empty()) return;
  const can::NodeId target = slaves_[next_];
  next_ = (next_ + 1) % slaves_.size();
  answered_[target] = false;
  controller_.request_tx(can::Frame::make_remote(
      kErrorControlBase + target, 1));
  timers_.start_alarm(response_timeout_, [this, target] {
    if (!answered_[target] && !declared_[target]) {
      declared_[target] = true;  // node guarding event (master-local!)
      if (on_failure_) on_failure_(target);
    }
  });
  // Next slave one guard interval later (cyclic inquiry).
  timers_.start_alarm(guard_time_, [this] { poll_next(); });
}

void CanopenMaster::on_rx(const can::Frame& frame, bool own) {
  if (own || frame.remote) return;
  if (frame.id >= kErrorControlBase &&
      frame.id < kErrorControlBase + can::kMaxNodes) {
    const auto node = static_cast<can::NodeId>(frame.id - kErrorControlBase);
    answered_[node] = true;
    declared_[node] = false;  // a reply rehabilitates the node
  }
}

// ------------------------------------------------------------- consumer --

HeartbeatConsumer::HeartbeatConsumer(can::Bus& bus, can::NodeId id,
                                     sim::TimerService& timers)
    : controller_{id, bus}, timers_{timers} {
  controller_.set_client(this);
}

void HeartbeatConsumer::watch(can::NodeId producer, sim::Time consumer_time) {
  consumer_time_[producer] = consumer_time;
  if (timers_.restart_alarm(watch_[producer], consumer_time)) return;
  watch_[producer] = timers_.start_alarm(consumer_time, [this, producer] {
    watch_[producer] = sim::kNullTimer;
    if (on_failure_) on_failure_(producer);  // heartbeat event (local!)
  });
}

void HeartbeatConsumer::on_rx(const can::Frame& frame, bool own) {
  if (own || frame.remote) return;
  if (frame.id >= kErrorControlBase &&
      frame.id < kErrorControlBase + can::kMaxNodes) {
    const auto node = static_cast<can::NodeId>(frame.id - kErrorControlBase);
    if (consumer_time_[node] != sim::Time::zero() &&
        watch_[node] != sim::kNullTimer) {
      watch(node, consumer_time_[node]);  // re-arm
    }
  }
}

}  // namespace canely::baselines
