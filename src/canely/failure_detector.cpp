#include "canely/failure_detector.hpp"

namespace canely {

FailureDetector::FailureDetector(CanDriver& driver, sim::TimerService& timers,
                                 FdaProtocol& fda, const Params& params,
                                 obs::Recorder* recorder)
    : driver_{driver}, timers_{timers}, fda_{fda}, params_{params},
      recorder_{recorder} {
  if (recorder_ != nullptr) {
    obs::MetricsRegistry& m = recorder_->metrics();
    ctr_els_sent_ = &m.counter("els.frames_sent");
    ctr_els_suppressed_ = &m.counter("els.suppressed");
    ctr_heartbeat_implicit_ = &m.counter("heartbeat.implicit");
    ctr_suspicions_ = &m.counter("fd.suspicions");
  }
  // f03: any data frame (own included) is implicit node activity; the
  // sender is identified by the node field of the mid.
  driver_.on_data_nty([this](const Mid& mid) { on_activity(mid.node, true); });
  // f03: explicit life-signs arrive as ELS remote frames.
  driver_.on_rtr_ind(MsgType::kEls, [this](const Mid& mid, bool /*own*/) {
    on_activity(mid.node, false);
  });
  // f13: FDA delivers agreed failure-signs.
  fda_.set_nty_handler([this](can::NodeId r) { on_fda_nty(r); });
}

void FailureDetector::fd_can_req_start(can::NodeId r) {
  s_.monitored[r] = true;
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kFdTimerArm;
    ev.node = driver_.node();
    ev.u.peer = {r};
    recorder_->emit(ev);
    if (r == driver_.node()) s_.els_credit = driver_.engine().now();
  }
  fd_alarm_start(r);  // f00-f01
}

void FailureDetector::fd_can_req_stop(can::NodeId r) {
  s_.monitored[r] = false;
  timers_.cancel_alarm(s_.tid[r]);  // f17-f18
  s_.tid[r] = sim::kNullTimer;
  if (r == driver_.node()) {
    // Withdraw a still-pending explicit life-sign: a node whose self-
    // surveillance stops (it left, or was expelled) must not leave an
    // ELS behind — on a bus with no other live node the frame would
    // never be acknowledged and would retry forever.
    driver_.can_abort_req(Mid{MsgType::kEls, 0, r});
  }
}

void FailureDetector::fd_alarm_start(can::NodeId r) {
  const sim::Time duration =
      (r == driver_.node())
          ? params_.heartbeat_period                              // a02
          : params_.heartbeat_period + params_.tx_delay_bound +   // a04
                params_.fd_skew_quantum * driver_.node();         // osc. skew
  if (timers_.restart_alarm(s_.tid[r], duration)) return;  // f04
  s_.tid[r] = timers_.start_alarm(duration, [this, r] {
    s_.tid[r] = sim::kNullTimer;
    on_expiry(r);
  });
}

void FailureDetector::on_activity(can::NodeId r, bool implicit) {
  // f03-f05: restart the surveillance timer of an actively monitored node.
  // (Activity of nodes the service was not started for is ignored —
  // starting/stopping surveillance is the upper layer's decision,
  // lines f00/f17.)
  if (!s_.monitored[r]) return;
  // Fig. 10 accounting, counted once system-wide at the originator's own
  // detector (every data frame loops back to its sender):
  // `heartbeat.implicit` is every data frame that doubled as a life-sign;
  // `els.suppressed` credits one avoided explicit life-sign per heartbeat
  // period Th covered by implicit traffic — what a CANopen-style
  // always-explicit heartbeat would have transmitted in the same span.
  if (implicit && r == driver_.node() && recorder_ != nullptr) {
    ctr_heartbeat_implicit_->add_node(r);
    const sim::Time now = driver_.engine().now();
    const std::int64_t periods =
        (now - s_.els_credit) / params_.heartbeat_period;
    if (periods >= 1) {
      ctr_els_suppressed_->add_node(r, static_cast<std::uint64_t>(periods));
      s_.els_credit = now;
    }
  }
  fd_alarm_start(r);
}

void FailureDetector::on_expiry(can::NodeId r) {
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kFdTimerExpire;
    ev.node = driver_.node();
    ev.u.peer = {r};
    recorder_->emit(ev);
  }
  if (r == driver_.node()) {
    // f07-f08: the local node stayed silent for a whole heartbeat period;
    // broadcast an explicit life-sign.  The loopback can-rtr.ind normally
    // restarts the timer, but the ELS can die before reaching the wire
    // (bus-off clears the controller queue; an abort can race it), so the
    // timer is re-armed HERE, unconditionally: if the ELS never loops
    // back, the next expiry retries the life-sign instead of leaving the
    // node silent until its peers falsely suspect it.
    ++s_.els_sent;
    if (recorder_ != nullptr) {
      obs::Event ev;
      ev.when = driver_.engine().now();
      ev.kind = obs::EventKind::kElsSent;
      ev.node = driver_.node();
      ev.u.peer = {r};
      recorder_->emit(ev);
      ctr_els_sent_->add_node(r);
      s_.els_credit = driver_.engine().now();
    }
    driver_.can_rtr_req(Mid{MsgType::kEls, 0, r});
    fd_alarm_start(r);
  } else {
    // f09-f10: remote node silent beyond Th + Ttd => it has failed;
    // disseminate consistently through FDA.
    if (recorder_ != nullptr) {
      obs::Event ev;
      ev.when = driver_.engine().now();
      ev.kind = obs::EventKind::kFdSuspect;
      ev.node = driver_.node();
      ev.u.peer = {r};
      recorder_->emit(ev);
      ctr_suspicions_->add_node(driver_.node());
    }
    fda_.fda_can_req(r);
  }
}

void FailureDetector::on_fda_nty(can::NodeId r) {
  // f13-f16: an agreed failure-sign arrived (possibly before our own timer
  // expired): stop surveillance and notify the membership layer.
  timers_.cancel_alarm(s_.tid[r]);
  s_.tid[r] = sim::kNullTimer;
  s_.monitored[r] = false;
  if (nty_) nty_(r);  // f15
}

}  // namespace canely
