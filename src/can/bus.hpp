#pragma once
// Single-channel CAN bus model.
//
// Frame-level simulation with bit-accurate timing: arbitration happens at
// frame granularity (the lowest identifier wins — deterministic collision
// resolution, §3), but every duration is computed from the frame's real
// serialized, bit-stuffed length.  The wired-AND physical layer is
// modelled where it matters to the paper:
//
//  * identical remote frames transmitted simultaneously merge ("cluster")
//    into a single physical frame — FDA and RHA depend on this to save
//    bandwidth (§6.2);
//  * a dominant error flag from any node destroys the frame for all, and
//    CAN retransmits automatically;
//  * errors hitting the last-but-one bit at a subset of nodes produce the
//    inconsistent-omission failure mode of [18] (see fault.hpp).

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "can/bitstream.hpp"
#include "can/controller.hpp"
#include "can/fault.hpp"
#include "can/frame.hpp"
#include "can/types.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace canely::can {

struct BusConfig {
  /// Data rate; 1 Mbps => 1 us bit-time, 40 m bus (§3).
  std::int64_t bit_rate_bps{1'000'000};
  /// Wired-AND merging of identical simultaneous remote frames.  Disabled
  /// only by the clustering ablation benchmark.
  bool clustering{true};
  /// Bits of error signaling appended to a destroyed frame
  /// (error flag + error delimiter).
  std::size_t error_signal_bits{kErrorFlagBits + kErrorDelimiterBits};
};

enum class TxOutcome : std::uint8_t {
  kOk,
  kError,          ///< globally destroyed; retransmission follows
  kInconsistent,   ///< accepted by a subset only; retransmission follows
  kAckError,       ///< nobody acknowledged
  kCollision,      ///< same identifier, different content (protocol bug)
};

/// One completed transmission attempt, as seen on the wire.
struct TxRecord {
  sim::Time start;
  sim::Time end;
  Frame frame;
  NodeId transmitter{};       ///< lowest-numbered co-transmitter
  NodeSet co_transmitters;
  NodeSet delivered_to;       ///< receivers that accepted the frame
  TxOutcome outcome{TxOutcome::kOk};
  std::size_t bits{};         ///< bus time consumed, incl. error signaling
  int attempt{};              ///< retransmission ordinal, 0-based
};

struct BusStats {
  std::uint64_t attempts{0};
  std::uint64_t ok{0};
  std::uint64_t errors{0};
  std::uint64_t inconsistent{0};
  std::uint64_t ack_errors{0};
  std::uint64_t collisions{0};
  std::uint64_t overload_frames{0};
  std::uint64_t bits_total{0};   ///< all bus-busy bits (frames + errors + IFS)
  std::uint64_t bits_good{0};    ///< bits of successfully delivered frames
  std::uint64_t bits_wasted{0};  ///< partial frames + error signaling
};

/// Hook for the media-redundancy layer: may veto delivery on a per
/// (transmitter, receiver) basis — modelling partitions of individual
/// media — without the transmitter noticing (the subtle inconsistency
/// studied in [22]).
class ReceptionFilter {
 public:
  virtual ~ReceptionFilter() = default;
  virtual bool receives(NodeId tx, NodeId rx, const Frame& frame) = 0;
};

/// The shared broadcast channel.
class Bus {
 public:
  explicit Bus(sim::Engine& engine, BusConfig config = {});
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const BusConfig& config() const { return config_; }
  [[nodiscard]] sim::Time bit() const { return sim::bit_time(config_.bit_rate_bps); }

  /// Fault injection / media hooks (non-owning; may be null).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  void set_reception_filter(ReceptionFilter* filter) { filter_ = filter; }

  /// Structured observability (non-owning; may be null).  Registers the
  /// bus counters once so the hot-path updates are cached-pointer adds.
  void set_recorder(obs::Recorder* recorder);

  /// Observer invoked after every completed transmission attempt; the
  /// benchmarks classify records by protocol type to split bandwidth.
  /// The observer may replace or clear itself from inside the call.
  void set_observer(std::function<void(const TxRecord&)> obs) {
    observer_ = std::move(obs);
    ++observer_generation_;
  }

  [[nodiscard]] const BusStats& stats() const { return s_.stats; }
  [[nodiscard]] bool busy() const { return s_.transmitting; }

  /// Canonical channel state for the checker's equivalence dedup
  /// (sim/hash.hpp): liveness set, occupancy/arbitration flags, pending
  /// suspend-retry wake-up.  See the implementation for exclusions.
  void hash_state(sim::StateHasher& h) const;

  // -- controller registration (Controller ctor/dtor use these) ------------
  void attach(Controller& controller);
  void detach(Controller& controller);
  /// O(1): node ids index a fixed table (kMaxNodes entries).
  [[nodiscard]] Controller* controller_for(NodeId node) const {
    return node < kMaxNodes ? by_node_[node] : nullptr;
  }

  /// A controller signals that it has (new) pending transmit work.
  void on_tx_request();

  // -- liveness bookkeeping (Controller calls these; O(active) datapath) ----
  /// The controller stopped participating (crash or bus-off).  The live
  /// list is compacted lazily at the next safe point: the notification
  /// may arrive mid-delivery-loop, where erasing would invalidate the
  /// iteration.
  void on_liveness_lost(Controller& controller);
  /// The controller rejoined (bus-off recovery).  Re-inserted at its
  /// attach-order position so delivery order is as if it never left.
  void on_liveness_gained(Controller& controller);
  /// The controller's "has queued transmit work while alive" state
  /// flipped; keeps the arbitration passes O(contenders).
  void set_contender(Controller& controller, bool contending);

  /// Introspection for the O(active) regression tests.
  [[nodiscard]] std::size_t live_count() const {
    return s_.live_set.size();
  }
  [[nodiscard]] std::size_t contender_count() const {
    return s_.contenders.size();
  }

 private:
  /// The transmission currently occupying the bus.  Kept as a member so
  /// the end-of-frame event is a [this]-only capture (8 bytes, inline in
  /// the engine's slot) instead of a ~90-byte closure; at most one
  /// transmission is in flight (guarded by s_.transmitting).
  struct InFlight {
    Frame frame;
    NodeSet co;
    NodeSet receivers;
    Verdict verdict;
    sim::Time start;
    std::size_t bits{};
    int attempt{};
    bool collision{false};
  };

  void schedule_arbitration();
  void begin_arbitration();
  void finish_transmission();
  void complete_transmission(const Frame& frame, NodeSet co, NodeSet receivers,
                             Verdict verdict, sim::Time start,
                             std::size_t bits, int attempt);

  /// Drop dead controllers from s_.live once no iteration is in flight.
  void compact_live() {
    if (!s_.live_stale) return;
    std::erase_if(s_.live, [](const Controller* c) { return !c->alive(); });
    s_.live_stale = false;
  }

  /// `orphaned`: every co-transmitter died mid-frame — the error slot has
  /// no live transmitter to charge (see complete_transmission).
  void record_frame_end(const TxRecord& rec, bool orphaned);
  void notify_observer(const TxRecord& rec);

  sim::Engine& engine_;
  BusConfig config_;
  FaultInjector* injector_{nullptr};
  ReceptionFilter* filter_{nullptr};
  obs::Recorder* recorder_{nullptr};
  obs::Counter* ctr_frames_ok_{nullptr};
  obs::Counter* ctr_frames_error_{nullptr};
  obs::Counter* ctr_retransmissions_{nullptr};
  obs::Counter* ctr_arbitration_losses_{nullptr};
  std::function<void(const TxRecord&)> observer_;
  std::uint64_t observer_generation_{0};  ///< bumped by set_observer()
  std::array<Controller*, kMaxNodes> by_node_{};  ///< O(1) node -> controller
  std::uint32_t next_ordinal_{0};

 public:
  /// Every mutable member of the channel, value-typed: checkpoint() and
  /// restore() are copy-assignments.  Controller pointers name the
  /// attached controllers, which a restore leaves in place; attaching
  /// and detaching (construction-time wiring, like the observer and the
  /// injector) stay outside.
  struct State {
    /// Live controllers in attach order — the delivery order.  Dead
    /// controllers leave lazily (live_stale + compact_live()); recovered
    /// ones re-enter at their attach ordinal.  Every per-frame loop is
    /// O(live), not O(ever attached).
    std::vector<Controller*> live;
    /// Live controllers with pending transmit work — the only ones the
    /// arbitration passes look at.  Unordered (the winner is a strict
    /// (key, node) minimum, so iteration order is immaterial);
    /// maintained synchronously by Controller::sync_contender.
    std::vector<Controller*> contenders;
    NodeSet live_set;  ///< nodes of live controllers
    bool live_stale{false};
    InFlight in_flight;
    BusStats stats;
    std::uint64_t tx_index{0};
    bool transmitting{false};
    bool arbitration_scheduled{false};
    // All-contenders-suspended retry, coalesced: at most one pending
    // wake-up, tracked so repeated idle arbitrations don't pile up
    // duplicate events (each failed arbitration used to schedule
    // another).
    bool suspend_retry_pending{false};
    sim::Time suspend_retry_at{};
    sim::EventId suspend_retry_event{};
  };

  void checkpoint(State& out) const { out = s_; }
  /// Between engine runs only (never mid-frame-callback).
  void restore(const State& in) { s_ = in; }

 private:
  State s_;
};

}  // namespace canely::can
