#include "can/controller.hpp"

#include <algorithm>

#include "can/bus.hpp"

namespace canely::can {

Controller::Controller(NodeId node, Bus& bus) : node_{node}, bus_{bus} {
  bus_.attach(*this);
}

Controller::~Controller() { bus_.detach(*this); }

void Controller::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  ctr_tx_failures_ = recorder_ != nullptr
                         ? &recorder_->metrics().counter("ctrl.tx_failures")
                         : nullptr;
}

void Controller::request_tx(const Frame& frame) {
  if (!alive()) return;  // a mute controller silently drops requests
  PendingTx tx{frame, 0, s_.next_seq++};
  // Insert keeping (arbitration key, seq) order — priority-sorted transmit
  // mailboxes, FIFO among equal identifiers.
  const auto pos = std::find_if(
      s_.queue.begin(), s_.queue.end(), [&](const PendingTx& q) {
        const auto qk = q.frame.arbitration_key();
        const auto nk = tx.frame.arbitration_key();
        return qk > nk;
      });
  s_.queue.insert(pos, std::move(tx));
  sync_contender();
  bus_.on_tx_request();
}

std::size_t Controller::abort_matching(
    const std::function<bool(const Frame&)>& match) {
  // "Has effect only on pending requests" (Fig. 4): the queue head is
  // abortable too in this model because an in-flight transmission works on
  // a *copy* of the frame — matching real controllers, where an abort
  // during transmission takes effect only if the frame errors out.
  const auto before = s_.queue.size();
  std::erase_if(s_.queue, [&](const PendingTx& q) { return match(q.frame); });
  sync_contender();
  return before - s_.queue.size();
}

void Controller::crash() {
  const bool was_alive = alive();
  s_.crashed = true;
  s_.queue.clear();
  if (was_alive) bus_.on_liveness_lost(*this);
  sync_contender();
}

void Controller::sync_contender() {
  const bool now = !s_.queue.empty() && alive();
  if (now != s_.contender) {
    s_.contender = now;
    bus_.set_contender(*this, now);
  }
}

void Controller::bus_tx_succeeded(const Frame& frame) {
  // canely-lint: nondeterministic-ok(client seam: the socketcan gateway implements ControllerClient only under the real-time runner; sim runs bind deterministic clients)
  const auto it = std::find_if(
      s_.queue.begin(), s_.queue.end(),
      [&](const PendingTx& q) { return q.frame == frame; });
  if (it == s_.queue.end()) return;  // aborted while in flight
  s_.queue.erase(it);
  sync_contender();
  bump_tec(-1);
  begin_suspend_if_passive();
  if (client_ != nullptr) client_->on_tx_confirm(frame);
}

void Controller::bus_tx_failed(const Frame& frame, bool ack_error) {
  const auto it = std::find_if(
      s_.queue.begin(), s_.queue.end(),
      [&](const PendingTx& q) { return q.frame == frame; });
  if (it != s_.queue.end()) ++it->attempts;
  if (ctr_tx_failures_ != nullptr) ctr_tx_failures_->add_node(node_);
  // ISO 11898 exception: an error-passive transmitter seeing an ACK error
  // does not increment TEC — otherwise a lone node would count itself out.
  if (!(ack_error && s_.error_state == ErrorState::kErrorPassive)) {
    bump_tec(+8);
  }
  begin_suspend_if_passive();
}

void Controller::begin_suspend_if_passive() {
  if (s_.error_state == ErrorState::kErrorPassive) {
    s_.suspended_until =
        bus_.engine().now() + bus_.bit() * kSuspendTransmissionBits;
  }
}

void Controller::add_acceptance_filter(std::uint32_t code,
                                       std::uint32_t mask) {
  s_.filters.push_back(AcceptanceFilter{code, mask});
}

void Controller::clear_acceptance_filters() { s_.filters.clear(); }

bool Controller::accepts_filtered(std::uint32_t id) const {
  for (const AcceptanceFilter& f : s_.filters) {
    if ((id & f.mask) == (f.code & f.mask)) return true;
  }
  return false;
}

void Controller::bus_rx_error() { bump_rec(+1); }

void Controller::bump_tec(int delta) {
  s_.tec = std::clamp(s_.tec + delta, 0, 256);
  refresh_state();
}

void Controller::bump_rec(int delta) {
  // On correct reception an error-passive receiver's REC re-arms to a
  // value just below the passive threshold (ISO 11898 sets 119..127).
  if (delta < 0 && s_.rec > 127) {
    s_.rec = 119;
  } else {
    s_.rec = std::clamp(s_.rec + delta, 0, 255);
  }
  refresh_state();
}

void Controller::refresh_state() {
  if (s_.error_state == ErrorState::kBusOff) return;  // sticky without recovery
  if (s_.tec >= 256) {
    s_.error_state = ErrorState::kBusOff;
    s_.queue.clear();  // fault confinement: the node falls silent
    if (!s_.crashed) bus_.on_liveness_lost(*this);
    sync_contender();
    if (recorder_ != nullptr) {
      obs::Event ev;
      ev.when = bus_.engine().now();
      ev.kind = obs::EventKind::kBusOff;
      ev.node = node_;
      recorder_->emit(ev);
      recorder_->metrics().counter("ctrl.bus_off").add_node(node_);
    }
    if (client_ != nullptr) client_->on_bus_off();
    if (s_.auto_recovery) {
      // ISO 11898: rejoin after 128 * 11 recessive bits (approximated as
      // idle bus time — conservative under load, where recovery takes
      // longer in reality too).
      bus_.engine().schedule_after(
          bus_.bit() * (128 * 11), [this] {
            if (s_.crashed || s_.error_state != ErrorState::kBusOff) return;
            s_.tec = 0;
            s_.rec = 0;
            s_.error_state = ErrorState::kErrorActive;
            bus_.on_liveness_gained(*this);
            sync_contender();
            if (client_ != nullptr) client_->on_bus_off_recovered();
          });
    }
    return;
  }
  s_.error_state = (s_.tec >= 128 || s_.rec >= 128) ? ErrorState::kErrorPassive
                                        : ErrorState::kErrorActive;
}

void Controller::hash_state(sim::StateHasher& h) const {
  // Included: liveness, the suspend window, and the transmit queue in its
  // already-(arbitration key, seq)-sorted order — frame content plus the
  // retransmission count, everything arbitration and delivery read.
  //
  // Excluded, deliberately:
  //  * tec/rec/error_state: the error-state machine only changes behavior
  //    at thresholds (128/256) that a checker placement cannot reach — each
  //    scripted fault adds at most 8 to the transmitter's TEC and a crash
  //    terminates the counter entirely, so a depth-<=2 script tops out at
  //    TEC 16; excluding the raw counters lets universes whose transient
  //    error history differs (but whose future behavior is identical)
  //    collapse into one equivalence class.
  //  * next_seq and per-entry seq: pure relative tiebreaks, fully
  //    captured by hashing the queue in its sorted order.
  //  * acceptance filters and the attach ordinal: immutable scenario
  //    configuration, identical across all placements of one exploration.
  h.feed_bool(s_.crashed);
  h.feed_time(s_.suspended_until);
  h.feed(s_.queue.size());
  for (const PendingTx& p : s_.queue) {
    h.feed(p.frame.id);
    h.feed((static_cast<std::uint64_t>(p.frame.format) << 16) |
           (static_cast<std::uint64_t>(p.frame.remote) << 8) | p.frame.dlc);
    h.feed_bytes(p.frame.payload());
    h.feed(static_cast<std::uint64_t>(p.attempts));
  }
}

}  // namespace canely::can
