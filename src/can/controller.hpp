#pragma once
// CAN controller model with ISO 11898 fault confinement.
//
// One controller attaches each node to the bus.  It owns the node's
// transmit queue (priority-ordered, like the mailbox arrays of real
// controllers), delivers received frames to its client (the CANELy
// driver), and implements the transmit/receive error counters whose
// error-active / error-passive / bus-off state machine enforces the
// paper's weak-fail-silent assumption (§3, §4): a babbling or broken
// controller removes itself from the bus after a bounded number of
// omissions.

#include <cstdint>
#include <functional>
#include <vector>

#include "can/frame.hpp"
#include "can/types.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "sim/time.hpp"

namespace canely::can {

class Bus;

enum class ErrorState : std::uint8_t {
  kErrorActive,
  kErrorPassive,
  kBusOff,
};

/// Callbacks a controller delivers to the layer above (the driver).
class ControllerClient {
 public:
  virtual ~ControllerClient() = default;

  /// A valid frame was observed on the bus.  `own` is true when this node
  /// (co-)transmitted it — the paper's §5 requires reception of own
  /// transmissions for the `.nty` extension.
  virtual void on_rx(const Frame& frame, bool own) = 0;

  /// A previously queued transmit request completed successfully.
  virtual void on_tx_confirm(const Frame& frame) = 0;

  /// Fault confinement shut the controller down (TEC reached 256).
  virtual void on_bus_off() {}

  /// The controller finished bus-off recovery and is error-active again
  /// (only with enable_bus_off_recovery).
  virtual void on_bus_off_recovered() {}
};

/// A node's CAN controller.
class Controller {
 public:
  /// Constructs and attaches to `bus`.  `node` must be unique on the bus.
  Controller(NodeId node, Bus& bus);

  /// Enable ISO 11898 bus-off recovery: after fault confinement silences
  /// the controller, it rejoins error-active once it has observed 128
  /// occurrences of 11 consecutive recessive bits (approximated as 128*11
  /// idle bit-times).  Disabled by default — CANELy's weak-fail-silent
  /// enforcement (§4) treats bus-off as a crash; recovery is an
  /// application decision.
  void enable_bus_off_recovery(bool enable) { s_.auto_recovery = enable; }
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  void set_client(ControllerClient* client) { client_ = client; }

  /// Structured observability (non-owning; may be null): transmit
  /// failures and fault-confinement shutdowns.
  void set_recorder(obs::Recorder* recorder);

  [[nodiscard]] NodeId node() const { return node_; }

  // -- transmit side --------------------------------------------------------

  /// Queue a frame for transmission.  Frames contend locally by
  /// arbitration priority (FIFO among equal priorities), mirroring a
  /// controller with priority-sorted transmit mailboxes.
  void request_tx(const Frame& frame);

  /// Abort pending (not in-flight) requests matching the predicate;
  /// returns how many were dropped.  Implements `can-abort.req` (Fig. 4:
  /// "has effect only on pending requests").
  std::size_t abort_matching(const std::function<bool(const Frame&)>& match);

  // -- acceptance filtering ---------------------------------------------------

  /// Hardware-style acceptance filter: a received frame is delivered to
  /// the client iff (id & mask) == (code & mask) for at least one
  /// configured filter (both id formats share the filter bank, as in
  /// simple controllers).  With no filters configured everything is
  /// accepted.  Filtering is receive-side only; it does not affect the
  /// node's participation in error signaling or acknowledgment.
  void add_acceptance_filter(std::uint32_t code, std::uint32_t mask);
  void clear_acceptance_filters();
  /// Inline fast path: the common no-filter configuration costs one
  /// emptiness check per delivery (hot: once per node per frame).
  [[nodiscard]] bool accepts(std::uint32_t id) const {
    return s_.filters.empty() || accepts_filtered(id);
  }

  [[nodiscard]] std::size_t tx_queue_depth() const { return s_.queue.size(); }

  // -- failure semantics ----------------------------------------------------

  /// Fail-silent crash: the controller goes mute instantly and forever.
  void crash();
  [[nodiscard]] bool crashed() const { return s_.crashed; }

  /// True when the controller takes part in bus traffic.
  [[nodiscard]] bool alive() const {
    return !s_.crashed && s_.error_state != ErrorState::kBusOff;
  }

  // -- fault confinement state ----------------------------------------------

  [[nodiscard]] ErrorState error_state() const { return s_.error_state; }
  [[nodiscard]] int tec() const { return s_.tec; }
  [[nodiscard]] int rec() const { return s_.rec; }

  /// ISO 11898 suspend transmission: an error-passive node must wait 8
  /// extra bit-times after transmitting before contending again.  The bus
  /// skips this controller in arbitrations before this instant.
  [[nodiscard]] sim::Time suspended_until() const { return s_.suspended_until; }

  // -- bus-facing interface (used by Bus only) --------------------------------

  /// Head of the transmit queue, or nullptr when this controller has
  /// nothing to offer in the next arbitration round.  Inline: called for
  /// every contender in every arbitration pass.
  [[nodiscard]] const Frame* peek_tx() const {
    if (s_.queue.empty() || !alive()) return nullptr;
    return &s_.queue.front().frame;
  }

  /// Retransmission attempts already made for the queue head.
  [[nodiscard]] int head_attempts() const {
    return s_.queue.empty() ? 0 : s_.queue.front().attempts;
  }

  /// Attach-order ordinal, assigned once by Bus::attach.  Orders the
  /// bus's live-controller list so bus-off recovery re-inserts a
  /// controller at its original delivery position.
  [[nodiscard]] std::uint32_t attach_ordinal() const { return attach_ordinal_; }
  void set_attach_ordinal(std::uint32_t ordinal) { attach_ordinal_ = ordinal; }

  /// Bus: `frame` (queued here, wire-identical match) was transmitted
  /// successfully.  Identified by content, NOT by queue position: a
  /// higher-priority request may have been queued while this frame was in
  /// flight, displacing it from the head.
  void bus_tx_succeeded(const Frame& frame);

  /// Bus: `frame`'s transmission failed; it stays queued for
  /// retransmission.  TEC += 8 (or unchanged for an ACK error while
  /// error-passive — ISO 11898 exception, so a lone node does not drive
  /// itself bus-off).
  void bus_tx_failed(const Frame& frame, bool ack_error);

  /// Bus: deliver a valid frame (REC decrements on correct reception).
  /// Inline: runs once per live node per frame — the simulator's most
  /// frequent call.  REC at 0 stays 0, so the common error-free case
  /// skips the counter/state machinery entirely.
  void bus_rx_deliver(const Frame& frame, bool own) {
    // canely-lint: nondeterministic-ok(client seam: the socketcan gateway implements ControllerClient only under the real-time runner; sim runs bind deterministic clients)
    if (!own) {
      if (s_.rec != 0) bump_rec(-1);
      // Acceptance filtering happens after the frame is validated (the
      // controller still acknowledged it); own transmissions bypass
      // filters, as real controllers' self-reception paths do.
      if (!s_.filters.empty() && !accepts_filtered(frame.id)) return;
    }
    if (client_ != nullptr) client_->on_rx(frame, own);
  }

  /// Bus: this node observed a frame error as a receiver (REC += 1).
  void bus_rx_error();

  /// Canonical state for the checker's equivalence dedup (sim/hash.hpp):
  /// liveness, suspend window, transmit queue in arbitration order.  See
  /// the implementation for the documented exclusions.
  void hash_state(sim::StateHasher& h) const;

 private:
  struct PendingTx {
    Frame frame;
    int attempts{0};
    std::uint64_t seq{0};
  };

  void bump_tec(int delta);
  void bump_rec(int delta);
  void refresh_state();
  void begin_suspend_if_passive();
  [[nodiscard]] bool accepts_filtered(std::uint32_t id) const;
  /// Report queue-emptiness/liveness transitions to the bus's contender
  /// list; called after every operation that can flip the condition.
  void sync_contender();

  struct AcceptanceFilter {
    std::uint32_t code;
    std::uint32_t mask;
  };

  NodeId node_;
  Bus& bus_;
  ControllerClient* client_{nullptr};
  obs::Recorder* recorder_{nullptr};
  obs::Counter* ctr_tx_failures_{nullptr};
  std::uint32_t attach_ordinal_{0};

 public:
  /// Every mutable member of the controller, value-typed: checkpoint()
  /// and restore() are copy-assignments.  The node id, the bus, the
  /// client and the attach ordinal are construction-time wiring.
  struct State {
    std::vector<AcceptanceFilter> filters;
    std::vector<PendingTx> queue;  // kept sorted by (arbitration key, seq)
    std::uint64_t next_seq{1};
    int tec{0};
    int rec{0};
    ErrorState error_state{ErrorState::kErrorActive};
    bool crashed{false};
    bool auto_recovery{false};
    bool contender{false};  ///< mirrored in Bus's contender list
    sim::Time suspended_until{sim::Time::zero()};
  };

  void checkpoint(State& out) const { out = s_; }
  /// Between engine runs only, together with the bus it is attached to
  /// (the bus mirrors liveness and contention).
  void restore(const State& in) { s_ = in; }

 private:
  State s_;
};

}  // namespace canely::can
