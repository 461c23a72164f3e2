#pragma once
// Site membership protocol (paper §6.4, Figure 9).
//
// Maintains R_F, the site membership view, consistently at all correct
// nodes.  Join/leave requests travel as remote frames and are collected
// into R_J / R_L during a membership cycle (period Tm); when the cycle
// timer expires with requests pending, the RHA micro-protocol establishes
// an agreed reception history vector from which the new view is computed.
// Node crash failures, signalled consistently by the companion failure
// detection service (FDA), produce immediate membership-change
// notifications and are folded into the view at the next cycle.
//
// Cycle synchronization is implicit: every node — members and joiners —
// restarts its cycle timer whenever an RHA execution starts (Fig. 9,
// line s17 reacts to rha-can.nty(INIT)), and RHA executions start
// quasi-simultaneously everywhere because the triggering RHV frame is
// received quasi-simultaneously.

#include <functional>

#include "can/types.hpp"
#include "canely/driver.hpp"
#include "canely/failure_detector.hpp"
#include "canely/fda.hpp"
#include "canely/params.hpp"
#include "canely/rha.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "sim/timer.hpp"

namespace canely {

/// One instance per node.
class MembershipService {
 public:
  /// msh-can.nty — membership change notification: the set of active
  /// nodes and the set of nodes that failed (Fig. 5).
  using ChangeHandler =
      std::function<void(can::NodeSet active, can::NodeSet failed)>;

  MembershipService(CanDriver& driver, sim::TimerService& timers,
                    RhaProtocol& rha, FailureDetector& fd, FdaProtocol& fda,
                    const Params& params, obs::Recorder* recorder = nullptr);
  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  /// msh-can.req(JOIN) — request integration of the local node (s00-s03).
  void msh_can_req_join();

  /// msh-can.req(LEAVE) — request withdrawal of the local node (s07-s09).
  void msh_can_req_leave();

  /// msh-can.req(GET) — the current view, net of already-notified
  /// failures (R_F − F_F).
  [[nodiscard]] can::NodeSet view() const { return rf_.minus(ff_); }

  [[nodiscard]] bool is_member() const {
    return view().contains(driver_.node());
  }

  void set_change_handler(ChangeHandler handler) {
    change_ = std::move(handler);
  }

  /// Observer fired every time a view is actually installed (views_
  /// increments), with the new R_F.  External checkers compare these
  /// install sequences across nodes; change notifications are unsuitable
  /// because they also fire for failure amendments within a cycle.
  using ViewObserver = std::function<void(can::NodeSet)>;
  void set_view_observer(ViewObserver observer) {
    view_obs_ = std::move(observer);
  }

  // Introspection for tests (protocol data sets of Fig. 9, i01).
  [[nodiscard]] can::NodeSet rf() const { return rf_; }
  [[nodiscard]] can::NodeSet rj() const { return rj_; }
  [[nodiscard]] can::NodeSet rl() const { return rl_; }
  [[nodiscard]] can::NodeSet ff() const { return ff_; }
  [[nodiscard]] std::uint64_t views_installed() const { return views_; }

  /// Canonical protocol state for the checker's equivalence dedup: the
  /// Fig. 9 data sets, the cycle-timer deadline, and the service/
  /// re-entrancy flags.  views_ and pending_cycles_ are excluded — they
  /// only feed diagnostics and obs histograms, never a protocol branch.
  void hash_state(sim::StateHasher& h) const {
    h.feed(rf_.bits());
    h.feed(rj_.bits());
    h.feed(rjp_.bits());
    h.feed(rl_.bits());
    h.feed(ff_.bits());
    h.feed_time(timers_.deadline(tid_));
    h.feed_bool(started_);
    h.feed_bool(in_cycle_);
  }

 private:
  void on_join_ind(const Mid& mid);          // s04-s06
  void on_leave_ind(const Mid& mid);         // s10-s12
  void on_fd_nty(can::NodeId r);             // s13-s16
  void on_rha_nty(RhaEvent e, can::NodeSet rhv);
  void cycle(bool timer_expired);            // s17-s27
  void on_rha_end(can::NodeSet rhv);         // s28-s34
  void msh_view_proc(can::NodeSet rw);       // a00-a02
  void msh_data_proc();                      // a03-a09
  void msh_chg_nty(can::NodeSet rw, can::NodeSet fw);  // a10-a18
  void restart_cycle_timer(sim::Time duration);
  void record_view_install();  // obs: kViewInstall + settle histogram

  CanDriver& driver_;
  sim::TimerService& timers_;
  RhaProtocol& rha_;
  FailureDetector& fd_;
  FdaProtocol& fda_;
  const Params& params_;
  obs::Recorder* recorder_;
  obs::Counter* ctr_view_changes_{nullptr};
  obs::Histogram* hist_settle_{nullptr};
  ChangeHandler change_;
  ViewObserver view_obs_;

  can::NodeSet rf_;   // full members (the view)
  can::NodeSet rj_;   // joining
  can::NodeSet rjp_;  // auxiliary joining set (footnote 10: 2-cycle prune)
  can::NodeSet rl_;   // leaving
  can::NodeSet ff_;   // failed during the current cycle
  sim::TimerId tid_{sim::kNullTimer};
  bool started_{false};   // service running at this node (join was called)
  bool in_cycle_{false};  // re-entrancy guard (rha INIT during cycle())
  std::uint64_t views_{0};
  /// Cycles elapsed since a join/leave request first went pending; sampled
  /// into msh.settle_cycles at the view install that absorbs it (-1: idle).
  int pending_cycles_{-1};
};

}  // namespace canely
