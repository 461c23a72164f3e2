#pragma once
// Reception History Agreement micro-protocol (paper §6.2, Figure 7).
//
// RHA drives all correct nodes to agree on a *reception history vector*
// (RHV) — the bitmap of nodes to be included in the next membership view —
// despite inconsistent omissions having left the shared join/leave sets
// (R_J, R_L) inconsistent across nodes.  Mechanics:
//
//  * every participant broadcasts its candidate RHV (a data frame whose
//    mid carries #RHV, the vector's cardinality — Fig. 7 footnote);
//  * on receiving a vector that removes nodes from the local candidate,
//    a participant aborts its pending signal, intersects, and re-sends
//    (lines r04-r07) — convergence is monotonic (vectors only shrink);
//  * once more than j copies of the current value have been observed on
//    the wire, further own retransmissions are aborted (line r08): with
//    at most j inconsistent omissions per interval (LCAN4), j+1 copies
//    guarantee every correct node received the value at least once;
//  * a local timer (Trha) bounds termination; at expiry the converged
//    vector is delivered upward (lines r14-r18).
//
// Nodes outside the membership view participate too: they must adopt the
// first received vector as their initial value (line a05) and relay it —
// this is how joining nodes learn the view.

#include <cstdint>
#include <functional>
#include <map>

#include "can/types.hpp"
#include "canely/driver.hpp"
#include "canely/params.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "sim/timer.hpp"

namespace canely {

enum class RhaEvent : std::uint8_t {
  kInit,  ///< an RHA execution started at this node (Fig. 7, a08)
  kEnd,   ///< execution finished; the agreed vector accompanies (r15)
};

/// One instance per node.
class RhaProtocol {
 public:
  /// The shared variables of Fig. 7 line i03/i04, owned by the membership
  /// service: full members R_F, joining R_J, leaving R_L.
  struct SharedSets {
    can::NodeSet full;
    can::NodeSet joining;
    can::NodeSet leaving;
  };
  using SharedSetsProvider = std::function<SharedSets()>;
  using NtyHandler = std::function<void(RhaEvent, can::NodeSet)>;

  RhaProtocol(CanDriver& driver, sim::TimerService& timers,
              const Params& params, obs::Recorder* recorder = nullptr);
  RhaProtocol(const RhaProtocol&) = delete;
  RhaProtocol& operator=(const RhaProtocol&) = delete;

  void set_shared_sets_provider(SharedSetsProvider provider) {
    shared_ = std::move(provider);
  }
  void set_nty_handler(NtyHandler handler) { nty_ = std::move(handler); }

  /// Secondary notification slot for external observers (checkers,
  /// benchmarks).  Called with the same events as the nty handler, after
  /// it; does not displace the membership service's wiring.
  void set_observer(NtyHandler observer) { obs_ = std::move(observer); }

  /// rha-can.req — start an execution (Fig. 7, s00-s04).  Acts only at
  /// full members and only when no execution is in progress.
  void rha_can_req();

  [[nodiscard]] bool running() const { return s_.tid != sim::kNullTimer; }
  [[nodiscard]] can::NodeSet current_rhv() const { return s_.rhv; }

  /// Completed executions at this node (diagnostics).
  [[nodiscard]] std::uint64_t executions() const { return s_.executions; }

  /// True while an own RHV signal is queued but not yet on the wire
  /// (can-data.cnf pending).  Diagnostics/tests: a confirmed signal must
  /// clear this, or a later abort could target a newer frame whose mid
  /// collides with the transmitted one.
  [[nodiscard]] bool pending() const { return s_.have_pending; }

  /// Canonical protocol state for the checker's equivalence dedup:
  /// termination-timer deadline, current vector, per-value duplicate
  /// counters (ordered map — deterministic iteration), and the pending
  /// own-signal bookkeeping.  s_.executions is excluded (diagnostic);
  /// s_.last_sent_mid is fed only while a signal is pending — it is the
  /// abort target and dead state otherwise.
  void hash_state(sim::StateHasher& h) const {
    h.feed_time(timers_.deadline(s_.tid));
    h.feed(s_.rhv.bits());
    h.feed(s_.rhv_ndup.size());
    for (const auto& [value, count] : s_.rhv_ndup) {
      h.feed(value);
      h.feed(static_cast<std::uint64_t>(count));
    }
    h.feed_bool(s_.have_pending);
    if (s_.have_pending) {
      h.feed(static_cast<std::uint64_t>(s_.last_sent_mid.encode()));
    }
  }

 private:
  void rha_init_send(can::NodeSet rw);                         // a00-a09
  void on_data_ind(const Mid& mid, std::span<const std::uint8_t> payload);
  void on_alarm();                                             // r14-r18
  void send_rhv();       // can-data.req(mid{RHA,#RHV,p}, RHV)
  void abort_pending();  // can-abort.req of the last queued signal

  CanDriver& driver_;
  sim::TimerService& timers_;
  const Params& params_;
  obs::Recorder* recorder_;
  obs::Counter* ctr_executions_{nullptr};
  SharedSetsProvider shared_;
  NtyHandler nty_;
  NtyHandler obs_;


 public:
  /// Every mutable member of the protocol, value-typed: checkpoint() and
  /// restore() are copy-assignments.
  struct State {
    sim::TimerId tid{sim::kNullTimer};  // i01
    can::NodeSet rhv;                   // i02: R_RHV
    /// rhv_ndup of line i00 — copies observed per vector value.  The
    /// paper keys this by mid{RHA, #RHV}; we key by the vector value
    /// itself, which is strictly finer (two distinct concurrent vectors
    /// of equal cardinality no longer share a counter) and equal in the
    /// common case.  Ordered map: determinism-zone code holds only
    /// containers with a defined iteration order (canely-lint
    /// no-unordered-iter), and an RHA execution tracks a handful of
    /// concurrent vector values at most.
    std::map<std::uint64_t, int> rhv_ndup;
    Mid last_sent_mid{};  // target for can-abort.req (r05/r09)
    bool have_pending{false};
    std::uint64_t executions{0};
  };

  void checkpoint(State& out) const { out = s_; }
  void restore(const State& in) { s_ = in; }

 private:
  State s_;
};

}  // namespace canely
