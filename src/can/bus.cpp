#include "can/bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace canely::can {

Bus::Bus(sim::Engine& engine, BusConfig config)
    : engine_{engine}, config_{config} {}

void Bus::attach(Controller& controller) {
  if (controller.node() >= kMaxNodes) {
    throw std::logic_error("Bus::attach: node id out of range");
  }
  if (by_node_[controller.node()] != nullptr) {
    throw std::logic_error("Bus::attach: duplicate node id");
  }
  controller.set_attach_ordinal(next_ordinal_++);
  live_.push_back(&controller);  // new ordinal is the maximum: stays sorted
  live_set_.insert(controller.node());
  by_node_[controller.node()] = &controller;
}

void Bus::detach(Controller& controller) {
  std::erase(live_, &controller);
  std::erase(contenders_, &controller);
  if (controller.node() < kMaxNodes &&
      by_node_[controller.node()] == &controller) {
    by_node_[controller.node()] = nullptr;
    live_set_.erase(controller.node());
  }
}

void Bus::on_liveness_lost(Controller& controller) {
  live_set_.erase(controller.node());
  live_stale_ = true;  // compacted at the next arbitration/completion
}

void Bus::on_liveness_gained(Controller& controller) {
  // Only bus-off recovery lands here — always from its own engine event,
  // never mid-loop, so compacting and inserting is safe.
  compact_live();
  live_set_.insert(controller.node());
  const auto pos = std::lower_bound(
      live_.begin(), live_.end(), &controller,
      [](const Controller* a, const Controller* b) {
        return a->attach_ordinal() < b->attach_ordinal();
      });
  live_.insert(pos, &controller);
}

void Bus::set_contender(Controller& controller, bool contending) {
  if (contending) {
    contenders_.push_back(&controller);
  } else {
    // Swap-remove: contender iteration order carries no semantics.
    if (const auto it = std::find(contenders_.begin(), contenders_.end(),
                                  &controller);
        it != contenders_.end()) {
      *it = contenders_.back();
      contenders_.pop_back();
    }
  }
}

void Bus::on_tx_request() {
  if (!transmitting_) schedule_arbitration();
}

void Bus::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) {
    ctr_frames_ok_ = nullptr;
    ctr_frames_error_ = nullptr;
    ctr_retransmissions_ = nullptr;
    ctr_arbitration_losses_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = recorder_->metrics();
  ctr_frames_ok_ = &m.counter("bus.frames_ok");
  ctr_frames_error_ = &m.counter("bus.frames_error");
  ctr_retransmissions_ = &m.counter("bus.retransmissions");
  ctr_arbitration_losses_ = &m.counter("bus.arbitration_losses");
}

/// Shared kFrameTx emission for the collision and regular completions.
/// One record per attempt, timestamped at the attempt's start with the
/// wire occupancy in the payload — a complete timeline span per emit.
/// An orphaned slot (all co-transmitters died mid-frame, §6.1) records
/// the dead transmitter as historical context only: the error completion
/// is counted bus-wide, not charged to a node that could not have taken
/// part in signaling it.
void Bus::record_frame_end(const TxRecord& rec, bool orphaned) {
  obs::Event ev;
  ev.when = rec.start;
  ev.kind = obs::EventKind::kFrameTx;
  ev.node = rec.transmitter;
  ev.u.frame = {rec.frame.id, static_cast<std::uint32_t>(rec.bits),
                static_cast<std::uint32_t>((rec.end - rec.start).to_ns()),
                static_cast<std::uint8_t>(rec.outcome),
                static_cast<std::uint8_t>(rec.attempt),
                static_cast<std::uint8_t>(rec.frame.remote ? 1 : 0),
                static_cast<std::uint8_t>(orphaned ? 1 : 0)};
  recorder_->emit(ev);
  if (rec.outcome == TxOutcome::kOk) {
    ctr_frames_ok_->add_node(rec.transmitter);
  } else if (orphaned) {
    ctr_frames_error_->add();
  } else {
    ctr_frames_error_->add_node(rec.transmitter);
  }
}

/// Runs the observer out of its slot, so an observer that replaces or
/// clears itself mid-call does not destroy the closure it is running
/// in; it goes back unless set_observer() ran meanwhile.  A move, not a
/// copy: moving a std::function never allocates, and this runs at every
/// frame end.
void Bus::notify_observer(const TxRecord& rec) {
  if (!observer_) return;
  const std::uint64_t generation = observer_generation_;
  // canely-lint: allow(hot-path-transitive) — a move, not a copy: no allocation per frame; the observer seam itself is a std::function by API
  std::function<void(const TxRecord&)> observer = std::move(observer_);
  observer(rec);
  if (observer_generation_ == generation) observer_ = std::move(observer);
}

void Bus::schedule_arbitration() {
  if (arbitration_scheduled_) return;
  arbitration_scheduled_ = true;
  engine_.schedule_after(sim::Time::zero(), [this] {
    arbitration_scheduled_ = false;
    begin_arbitration();
  });
}

// canely-lint: hot-path
void Bus::begin_arbitration() {
  if (transmitting_) return;
  compact_live();  // safe point: no live_ iteration is in flight

  // Collect the head-of-queue frame of every contender (live controller
  // with queued transmit work — kept current by Controller, so idle and
  // dead nodes cost nothing here).  Error-passive controllers in their
  // suspend-transmission window do not contend (ISO 11898); if they are
  // the only candidates, retry the arbitration when the earliest
  // suspension lapses.  The winner is the strict (arbitration key, node)
  // minimum, so the contender list's iteration order is immaterial.
  const Frame* winner = nullptr;
  Controller* primary = nullptr;
  sim::Time earliest_suspended = sim::Time::max();
  for (Controller* c : contenders_) {
    const Frame* f = c->peek_tx();
    if (f == nullptr) continue;
    if (c->suspended_until() > engine_.now()) {
      earliest_suspended = std::min(earliest_suspended, c->suspended_until());
      continue;
    }
    if (winner == nullptr || f->arbitration_key() < winner->arbitration_key() ||
        (f->arbitration_key() == winner->arbitration_key() &&
         c->node() < primary->node())) {
      winner = f;
      primary = c;
    }
  }
  if (winner == nullptr) {
    if (earliest_suspended != sim::Time::max()) {
      // Coalesce: keep at most one pending wake-up, moved earlier when a
      // shorter suspension appears.  (Previously every idle arbitration
      // scheduled a fresh event, so a busy suspended node piled up
      // duplicate no-op retries.)
      if (!suspend_retry_pending_ || earliest_suspended < suspend_retry_at_) {
        if (suspend_retry_pending_) engine_.cancel(suspend_retry_event_);
        suspend_retry_pending_ = true;
        suspend_retry_at_ = earliest_suspended;
        suspend_retry_event_ = engine_.schedule_at(earliest_suspended, [this] {
          suspend_retry_pending_ = false;
          if (!arbitration_scheduled_) begin_arbitration();
        });
      }
    }
    return;  // bus stays idle
  }

  // Identify co-transmitters: same arbitration key.  Identical frames
  // merge on the wired-AND medium; same key with different content is a
  // genuine collision (two nodes own the same identifier — a protocol
  // configuration error CAN detects as a bit error).
  NodeSet co;
  bool collision = false;
  std::int32_t divergence_bit = -1;
  for (Controller* c : contenders_) {
    const Frame* f = c->peek_tx();
    if (f == nullptr) continue;
    if (c->suspended_until() > engine_.now()) continue;
    if (f->arbitration_key() != winner->arbitration_key()) continue;
    if (!(*f == *winner)) {
      collision = true;
      const std::int32_t d = first_divergent_wire_bit(*f, *winner);
      divergence_bit = divergence_bit < 0 ? d : std::min(divergence_bit, d);
      co.insert(c->node());
      continue;
    }
    if (config_.clustering || c == primary) {
      co.insert(c->node());
    }
  }

  // Everyone live and not co-transmitting receives: one bitmap subtraction
  // instead of a per-node scan.
  const NodeSet receivers = live_set_.minus(co);
  if (ctr_arbitration_losses_ != nullptr) {
    // A live node with pending, non-suspended transmit work that is not
    // co-transmitting lost this arbitration round.
    for (Controller* c : contenders_) {
      if (!co.contains(c->node()) &&
          c->suspended_until() <= engine_.now()) {
        ctr_arbitration_losses_->add_node(c->node());
      }
    }
  }

  // Memoize the wire length on the queued frame first, so the InFlight
  // copy (and any retransmission of the same queue entry) inherits it.
  const std::size_t frame_bits = frame_bits_on_wire(*winner);
  const Frame frame = *winner;  // copy: the queue entry may be popped later
  const int attempt = primary->head_attempts();
  const sim::Time start = engine_.now();

  Verdict verdict;
  if (collision) {
    // The frames ride the wired-AND medium bit-for-bit until they first
    // diverge; there a transmitter reads back a level it did not drive
    // and signals the error.  Identical payloads never reach this branch
    // (they merge as co-transmissions above), so MID aliasing — two nodes
    // emitting the same identifier with different content — destroys the
    // frame at the exact divergence bit instead of silently merging.
    verdict = Verdict::global_error(divergence_bit);
  } else {
    TxContext ctx{frame,   primary->node(), co,
                  receivers, attempt,        start, tx_index_};
    verdict = injector_ != nullptr ? injector_->judge(ctx) : Verdict::ok();
    verdict.victims = verdict.victims.intersected(receivers);
    if (verdict.kind == FaultKind::kNone && receivers.empty()) {
      verdict.kind = FaultKind::kAckError;  // nobody left to acknowledge
    }
    if (verdict.kind == FaultKind::kInconsistentOmission &&
        verdict.victims.empty()) {
      verdict.kind = FaultKind::kNone;  // no victims => clean broadcast
    }
  }
  ++tx_index_;

  std::size_t bits = 0;
  switch (verdict.kind) {
    case FaultKind::kNone:
      bits = frame_bits + kIntermissionBits;
      break;
    case FaultKind::kGlobalError: {
      std::size_t pos = verdict.error_bit < 0
                            ? frame_bits - 1
                            : std::min<std::size_t>(
                                  static_cast<std::size_t>(verdict.error_bit),
                                  frame_bits - 1);
      bits = pos + 1 + config_.error_signal_bits + kIntermissionBits;
      break;
    }
    case FaultKind::kInconsistentOmission:
      // The fault hits the last-but-one bit: the whole frame plus error
      // signaling occupies the bus.
      bits = frame_bits + config_.error_signal_bits + kIntermissionBits;
      break;
    case FaultKind::kAckError:
      bits = frame_bits + config_.error_signal_bits + kIntermissionBits;
      break;
  }
  if (collision) {
    bits = static_cast<std::size_t>(verdict.error_bit) + 1 +
           config_.error_signal_bits + kIntermissionBits;
  }
  // Overload frames (ISO 11898: at most two back to back) stretch the
  // interframe space before the next arbitration.
  const int overloads = std::min(verdict.overloads, 2);
  bits += static_cast<std::size_t>(overloads) *
          (kOverloadFlagBits + kOverloadDelimiterBits);
  stats_.overload_frames += static_cast<std::uint64_t>(overloads);

  transmitting_ = true;
  in_flight_ = InFlight{frame,   co,   receivers, verdict,
                        start,   bits, attempt,   collision};
  if (recorder_ != nullptr && attempt > 0) {
    ctr_retransmissions_->add_node(primary->node());
  }
  engine_.schedule_after(bit() * static_cast<std::int64_t>(bits),
                         [this] { finish_transmission(); });
}

// canely-lint: hot-path
void Bus::finish_transmission() {
  transmitting_ = false;
  // Copy out: controller callbacks may request new transmissions, and the
  // next begin_arbitration() repopulates in_flight_.
  const InFlight fx = in_flight_;
  if (fx.collision) {
    // Penalize all contenders and count the wasted bus time.
    bool any_alive = false;
    for (NodeId id : fx.co) {
      if (Controller* c = controller_for(id); c != nullptr && c->alive()) {
        any_alive = true;
        c->bus_tx_failed(fx.frame, false);
      }
    }
    for (NodeId id : fx.receivers) {
      if (Controller* c = controller_for(id); c != nullptr && c->alive()) {
        c->bus_rx_error();
      }
    }
    ++stats_.attempts;
    ++stats_.collisions;
    stats_.bits_total += fx.bits;
    stats_.bits_wasted += fx.bits;
    const TxRecord rec{fx.start, engine_.now(), fx.frame, *fx.co.begin(),
                       fx.co,    {},           TxOutcome::kCollision,
                       fx.bits,  fx.attempt};
    if (recorder_ != nullptr) record_frame_end(rec, !any_alive);
    notify_observer(rec);
    schedule_arbitration();
    return;
  }
  complete_transmission(fx.frame, fx.co, fx.receivers, fx.verdict, fx.start,
                        fx.bits, fx.attempt);
}

// canely-lint: hot-path
void Bus::complete_transmission(const Frame& frame, NodeSet co,
                                NodeSet receivers, Verdict verdict,
                                sim::Time start, std::size_t bits,
                                int attempt) {
  compact_live();  // safe point: no live_ iteration is in flight
  // Nodes may have crashed mid-frame; deliver only to the living.  If
  // every co-transmitter died mid-frame the frame was cut short: treat as
  // a global error with no retransmission (the sender is gone) — this is
  // precisely how an inconsistent omission becomes an inconsistent
  // *message* omission when the sender fails before retransmitting (§6.1).
  // One lookup pass over the (small) co-transmitter set; the outcome
  // branches below reuse the pointers.
  Controller* alive[kMaxNodes];
  std::size_t n_alive = 0;
  NodeSet co_alive = co.intersected(live_set_);
  for (NodeId id : co_alive) {
    alive[n_alive++] = by_node_[id];
  }
  const bool orphaned = co_alive.empty();
  if (orphaned) {
    verdict.kind = FaultKind::kGlobalError;
  }

  TxRecord rec;
  rec.start = start;
  rec.end = engine_.now();
  rec.frame = frame;
  rec.transmitter = *co.begin();
  rec.co_transmitters = co;
  rec.bits = bits;
  rec.attempt = attempt;

  ++stats_.attempts;
  stats_.bits_total += bits;

  switch (verdict.kind) {
    case FaultKind::kNone: {
      rec.outcome = TxOutcome::kOk;
      ++stats_.ok;
      stats_.bits_good += bits;
      // Confirm first (pops the queue head), then indicate to everyone,
      // own transmissions included (§5, Fig. 4).
      for (std::size_t i = 0; i < n_alive; ++i) {
        alive[i]->bus_tx_succeeded(frame);
      }
      // Index loop: a delivery callback may kill another controller
      // (flagging live_ stale — compacted next frame) but never inserts,
      // so the bound is fixed and the skip below stays correct.  The
      // delivered set starts as the live-set snapshot and only loses
      // members on a skip — the common full-delivery frame does no
      // per-receiver set work at all.
      rec.delivered_to = live_set_;
      if (filter_ == nullptr) {
        for (std::size_t i = 0; i < live_.size(); ++i) {
          Controller* c = live_[i];
          if (!c->alive()) {  // died earlier in this very loop
            rec.delivered_to.erase(c->node());
            continue;
          }
          c->bus_rx_deliver(frame, co_alive.contains(c->node()));
        }
      } else {
        for (std::size_t i = 0; i < live_.size(); ++i) {
          Controller* c = live_[i];
          if (!c->alive()) {
            rec.delivered_to.erase(c->node());
            continue;
          }
          const bool own = co_alive.contains(c->node());
          if (!own && !filter_->receives(rec.transmitter, c->node(), frame)) {
            rec.delivered_to.erase(c->node());
            continue;  // media partition hid the frame from this node
          }
          c->bus_rx_deliver(frame, own);
        }
      }
      break;
    }
    case FaultKind::kGlobalError: {
      rec.outcome = TxOutcome::kError;
      ++stats_.errors;
      stats_.bits_wasted += bits;
      for (std::size_t i = 0; i < n_alive; ++i) {
        alive[i]->bus_tx_failed(frame, false);
      }
      for (NodeId id : receivers) {
        if (Controller* c = by_node_[id]; c != nullptr && c->alive()) {
          c->bus_rx_error();
        }
      }
      break;
    }
    case FaultKind::kInconsistentOmission: {
      rec.outcome = TxOutcome::kInconsistent;
      ++stats_.inconsistent;
      stats_.bits_wasted += bits;
      // Transmitters observed the error flag in the EOF: they retransmit.
      for (std::size_t i = 0; i < n_alive; ++i) {
        alive[i]->bus_tx_failed(frame, false);
      }
      // Non-victim receivers accepted the frame before the late error.
      for (NodeId id : receivers) {
        Controller* c = by_node_[id];
        if (c == nullptr || !c->alive()) continue;
        if (verdict.victims.contains(id)) {
          c->bus_rx_error();
        } else if (filter_ == nullptr ||
                   filter_->receives(rec.transmitter, id, frame)) {
          c->bus_rx_deliver(frame, false);
          rec.delivered_to.insert(id);
        }
      }
      break;
    }
    case FaultKind::kAckError: {
      rec.outcome = TxOutcome::kAckError;
      ++stats_.ack_errors;
      stats_.bits_wasted += bits;
      for (std::size_t i = 0; i < n_alive; ++i) {
        alive[i]->bus_tx_failed(frame, true);
      }
      break;
    }
  }

  if (recorder_ != nullptr) record_frame_end(rec, orphaned);
  notify_observer(rec);

  // Anything still pending (including the retransmission just kept
  // queued)?  The contender list is exactly "live with queued work".
  if (!contenders_.empty()) schedule_arbitration();
}

void Bus::hash_state(sim::StateHasher& h) const {
  // Included: the live set, channel occupancy and the scheduled-
  // arbitration flag, and the coalesced suspend-retry wake-up (flag +
  // instant) — the complete event-source state of the channel.
  //
  // Excluded, deliberately:
  //  * tx_index_: the global attempt counter only matters to fault-script
  //    targeting; the dedup samples universes whose remaining script is
  //    empty past the injection point, so differing counters cannot
  //    change any future behavior.
  //  * in_flight_: only meaningful while transmitting_ — the checker
  //    samples inside judge(), before the end-of-frame event exists.
  //  * stats_, next_ordinal_, live_stale_, live_/contenders_: diagnostics,
  //    immutable configuration, or values derived from controller state
  //    (which the controllers hash themselves).
  h.feed(live_set_.bits());
  h.feed_bool(transmitting_);
  h.feed_bool(arbitration_scheduled_);
  h.feed_bool(suspend_retry_pending_);
  h.feed_time(suspend_retry_at_);
}

}  // namespace canely::can
