#include "baselines/osek_nm.hpp"

namespace canely::baselines {

OsekNmNode::OsekNmNode(can::Bus& bus, can::NodeId id,
                       sim::TimerService& timers, OsekNmParams params)
    : controller_{id, bus}, timers_{timers}, params_{params} {
  controller_.set_client(this);
}

void OsekNmNode::start() {
  started_ = true;
  config_.insert(id());
  send(OpCode::kAlive, id());
  arm_tmax();
}

void OsekNmNode::crash() {
  crashed_ = true;
  controller_.crash();
  timers_.cancel_alarm(tmax_timer_);
  timers_.cancel_alarm(ttyp_timer_);
}

void OsekNmNode::send(OpCode op, can::NodeId dest) {
  const std::uint8_t payload[] = {static_cast<std::uint8_t>(op), dest};
  controller_.request_tx(
      can::Frame::make_data(kNmBase + controller_.node(), payload));
}

can::NodeId OsekNmNode::successor_of(can::NodeId node) const {
  // Next-higher address in the configuration, wrapping around.
  can::NodeId best_above = node;
  can::NodeId lowest = node;
  for (can::NodeId m : config_) {
    if (m < lowest) lowest = m;
    if (m > node && (best_above == node || m < best_above)) best_above = m;
  }
  return best_above != node ? best_above : lowest;
}

void OsekNmNode::forward_ring() {
  if (crashed_ || !started_) return;
  send(OpCode::kRing, successor_of(id()));
}

void OsekNmNode::arm_tmax() {
  if (timers_.restart_alarm(tmax_timer_, params_.t_max)) return;
  tmax_timer_ = timers_.start_alarm(params_.t_max, [this] {
    tmax_timer_ = sim::kNullTimer;
    on_tmax();
  });
}

void OsekNmNode::arm_ttyp() {
  if (timers_.restart_alarm(ttyp_timer_, params_.t_typ)) return;
  ttyp_timer_ = timers_.start_alarm(params_.t_typ, [this] {
    ttyp_timer_ = sim::kNullTimer;
    forward_ring();
  });
}

void OsekNmNode::on_tmax() {
  if (crashed_ || !started_) return;
  if (awaiting_) {
    // The node expected to act stayed silent: it left / crashed.  Every
    // observer removes it; the last ring sender (which is the only node
    // with `ttyp_timer_` idle and `awaiting_` set on its own message...
    // simplified: the dead node's predecessor) restarts the ring towards
    // the next successor.  This mirrors OSEK's skipped-node handling in
    // the transient configuration.
    const can::NodeId dead = awaited_;
    config_.erase(dead);
    awaiting_ = false;
    if (on_leave_) on_leave_(dead);
    if (successor_of(dead) == id() || config_.size() == 1) {
      // We follow the dead node in ring order (or we are alone):
      // resume the ring.
      arm_ttyp();
    }
    arm_tmax();
  } else {
    // General silence: announce ourselves; after repeated silent periods
    // enter limp-home (we are probably cut off from the network).
    if (++silent_tmax_ >= 2) {
      limp_home_ = true;
      send(OpCode::kLimpHome, id());
    } else {
      send(OpCode::kAlive, id());
    }
    arm_tmax();
  }
}

void OsekNmNode::on_rx(const can::Frame& frame, bool own) {
  if (crashed_ || !started_ || frame.remote) return;
  if (frame.id < kNmBase || frame.id >= kNmBase + can::kMaxNodes) return;
  const auto src = static_cast<can::NodeId>(frame.id - kNmBase);
  const auto op = static_cast<OpCode>(frame.data[0]);
  const can::NodeId dest = frame.data[1];

  // Every NM message proves its sender alive — and proves we are not cut
  // off: leave limp-home.
  config_.insert(src);
  if (awaiting_ && src == awaited_) awaiting_ = false;
  silent_tmax_ = 0;
  if (limp_home_ && !own) limp_home_ = false;
  arm_tmax();

  switch (op) {
    case OpCode::kRing:
      // All nodes track whose turn it is, to detect ring stalls.
      awaiting_ = true;
      awaited_ = dest;
      if (dest == id() && !own) arm_ttyp();
      break;
    case OpCode::kAlive:
    case OpCode::kLimpHome:
      // If no ring is circulating, the lowest-address node starts one.
      if (!awaiting_ && ttyp_timer_ == sim::kNullTimer &&
          id() <= *config_.begin()) {
        arm_ttyp();
      }
      break;
  }
}

}  // namespace canely::baselines
