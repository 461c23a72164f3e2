#pragma once
// Node failure detection protocol (paper §6.3, Figure 8).
//
// One surveillance timer per monitored node.  Node activity is signalled
// *implicitly* by normal data traffic — the driver's can-data.nty
// extension reports every data-frame arrival, own transmissions included —
// so explicit life-sign (ELS) remote frames are issued only by nodes whose
// own timer expires first, i.e. nodes that transmitted nothing for a whole
// heartbeat period Th.  A remote node silent for Th + Ttd is declared
// failed, and the FDA micro-protocol disseminates the failure-sign
// consistently to every correct node.

#include <array>
#include <bit>
#include <cstdint>
#include <functional>

#include "can/types.hpp"
#include "canely/driver.hpp"
#include "canely/fda.hpp"
#include "canely/params.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "sim/timer.hpp"

namespace canely {

/// One instance per node.
class FailureDetector {
 public:
  using NtyHandler = std::function<void(can::NodeId failed)>;

  FailureDetector(CanDriver& driver, sim::TimerService& timers,
                  FdaProtocol& fda, const Params& params,
                  obs::Recorder* recorder = nullptr);
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// fd-can.req(START, r) — begin surveillance of node `r` (lines f00-f02).
  /// For the local node the timer runs for Th (it drives ELS emission);
  /// for remote nodes it runs for Th + Ttd (line a04).
  void fd_can_req_start(can::NodeId r);

  /// fd-can.req(STOP, r) — end surveillance (lines f17-f19).
  void fd_can_req_stop(can::NodeId r);

  /// fd-can.nty — consistent node-failure notification (line f15).
  void set_nty_handler(NtyHandler handler) { nty_ = std::move(handler); }

  [[nodiscard]] bool monitoring(can::NodeId r) const { return s_.monitored[r]; }

  /// Count of explicit life-signs this node has broadcast (diagnostics —
  /// the bandwidth evaluation of Fig. 10 cares about this number).
  [[nodiscard]] std::uint64_t els_sent() const { return s_.els_sent; }

  /// Canonical surveillance state for the checker's equivalence dedup:
  /// per-node monitored flag + alarm deadline.  Raw timer ids are
  /// allocation-order handles and deliberately not fed; the deadline is
  /// Time::max() for inactive alarms, so activeness is covered.
  /// s_.els_sent / s_.els_credit are excluded — pure diagnostics feeding obs
  /// counters, never read back by the protocol.
  ///
  /// Sparse feed over every id below kMaxNodes: the count of ids not in
  /// the default state (unmonitored, deadline Time::max()), then (id,
  /// monitored, deadline) for each of them in ascending id.  Injective:
  /// the count frames the list, ids are strictly ascending, and every id
  /// it omits is in the default state.
  void hash_state(sim::StateHasher& h) const {
    static_assert(can::kMaxNodes <= 64, "one mask bit per id");
    std::uint64_t live = 0;  // ids not in the default (false, max) state
    for (std::size_t r = 0; r < can::kMaxNodes; ++r) {
      if (s_.monitored[r] || (s_.tid[r] != sim::kNullTimer &&
                            timers_.deadline(s_.tid[r]) != sim::Time::max())) {
        live |= std::uint64_t{1} << r;
      }
    }
    h.feed(static_cast<std::uint64_t>(std::popcount(live)));
    for (std::uint64_t m = live; m != 0; m &= m - 1) {
      const auto r = static_cast<std::size_t>(std::countr_zero(m));
      h.feed(r);
      h.feed_bool(s_.monitored[r]);
      h.feed_time(timers_.deadline(s_.tid[r]));
    }
  }

 private:
  void fd_alarm_start(can::NodeId r);            // a00-a06
  void on_activity(can::NodeId r, bool implicit);  // f03-f05
  void on_expiry(can::NodeId r);                 // f06-f12
  void on_fda_nty(can::NodeId r);                // f13-f16

  CanDriver& driver_;
  sim::TimerService& timers_;
  FdaProtocol& fda_;
  const Params& params_;
  obs::Recorder* recorder_;
  obs::Counter* ctr_els_sent_{nullptr};
  obs::Counter* ctr_els_suppressed_{nullptr};
  obs::Counter* ctr_heartbeat_implicit_{nullptr};
  obs::Counter* ctr_suspicions_{nullptr};
  NtyHandler nty_;

 public:
  /// Every mutable member of the detector, value-typed: checkpoint() and
  /// restore() are copy-assignments.  Timer ids name alarms of the
  /// node's TimerService, restored alongside.
  struct State {
    std::array<sim::TimerId, can::kMaxNodes> tid{};  // i00
    std::array<bool, can::kMaxNodes> monitored{};
    std::uint64_t els_sent{0};
    /// Start of the current explicit-life-sign accounting window (obs:
    /// els.suppressed credits one avoided ELS per Th of implicit
    /// coverage).
    sim::Time els_credit{};
  };

  void checkpoint(State& out) const { out = s_; }
  void restore(const State& in) { s_ = in; }

 private:
  State s_;
};

}  // namespace canely
