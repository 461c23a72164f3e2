#include "canely/membership.hpp"

namespace canely {

MembershipService::MembershipService(CanDriver& driver,
                                     sim::TimerService& timers,
                                     RhaProtocol& rha, FailureDetector& fd,
                                     FdaProtocol& fda, const Params& params,
                                     obs::Recorder* recorder)
    : driver_{driver}, timers_{timers}, rha_{rha}, fd_{fd}, fda_{fda},
      params_{params}, recorder_{recorder} {
  if (recorder_ != nullptr) {
    obs::MetricsRegistry& m = recorder_->metrics();
    ctr_view_changes_ = &m.counter("msh.view_changes");
    hist_settle_ = &m.histogram("msh.settle_cycles", {1, 2, 3, 4, 6, 8, 12, 16});
  }
  driver_.on_rtr_ind(MsgType::kJoin, [this](const Mid& mid, bool /*own*/) {
    on_join_ind(mid);
  });
  driver_.on_rtr_ind(MsgType::kLeave, [this](const Mid& mid, bool /*own*/) {
    on_leave_ind(mid);
  });
  fd_.set_nty_handler([this](can::NodeId r) { on_fd_nty(r); });
  rha_.set_shared_sets_provider([this] {
    return RhaProtocol::SharedSets{rf_, rj_, rl_};
  });
  rha_.set_nty_handler([this](RhaEvent e, can::NodeSet rhv) {
    on_rha_nty(e, rhv);
  });
}

void MembershipService::msh_can_req_join() {
  // s00-s03: only non-members ask to join.  The joiner arms a long timer
  // (Tjoin_wait >> Tm): if no full member manifests itself through an RHA
  // execution within it, the joiner will bootstrap a view from the join
  // requests it has observed (s18-s19).
  if (rf_.contains(driver_.node())) return;
  // Start from fresh protocol data sets (Fig. 9, i01): requests observed
  // while the service was not running belong to cycles this node never
  // took part in — replaying them (e.g. a leave from seconds ago) would
  // wrongly expel current members.
  rj_.clear();
  rjp_.clear();
  rl_.clear();
  ff_.clear();
  started_ = true;
  restart_cycle_timer(params_.join_wait);  // s01
  driver_.can_rtr_req(Mid{MsgType::kJoin, 0, driver_.node()});  // s02
  // Deviation (documented): record the local request immediately rather
  // than waiting for the own can-rtr.ind.  On a bus with no other live
  // node a frame is never acknowledged, so the indication never comes and
  // a singleton could not bootstrap a view at all (s18-s19).
  rj_.insert(driver_.node());
}

void MembershipService::msh_can_req_leave() {
  // s07-s09: only members ask to leave.
  if (!rf_.contains(driver_.node())) return;
  // Deviation (documented): a singleton member cannot run the leave
  // handshake.  With no other live node the LEAVE remote frame is never
  // acknowledged (perpetual kAckError), so it never loops back as
  // can-rtr.ind, R_L stays empty, and the cycle timer retransmits the
  // frame forever — the node can never depart.  Retire the service
  // locally instead; anyone joining later finds a silent bus and
  // bootstraps afresh (s18-s19).
  if (rf_.minus(can::NodeSet{driver_.node()}).empty() && rj_.empty()) {
    for (can::NodeId s : rf_) fd_.fd_can_req_stop(s);
    timers_.cancel_alarm(tid_);
    tid_ = sim::kNullTimer;
    started_ = false;
    rf_.clear();
    rl_.clear();
    rjp_.clear();
    ff_.clear();
    ++views_;
    record_view_install();
    // Singleton leave: no peer can acknowledge, so retire locally.
    if (view_obs_) view_obs_(rf_);
    if (change_) change_(can::NodeSet{}, can::NodeSet{driver_.node()});
    return;
  }
  driver_.can_rtr_req(Mid{MsgType::kLeave, 0, driver_.node()});  // s08
}

void MembershipService::on_join_ind(const Mid& mid) {
  if (!started_) return;  // only service participants collect requests
  rj_.insert(mid.node);   // s05
}

void MembershipService::on_leave_ind(const Mid& mid) {
  if (!started_) return;
  rl_.insert(mid.node);  // s11
}

void MembershipService::on_fd_nty(can::NodeId r) {
  if (!started_) return;
  // s13-s16: immediate (consistent) notification of a node crash; the
  // view itself is amended at the next cycle (msh-view-proc).
  ff_.insert(r);
  msh_chg_nty(rf_.minus(ff_), can::NodeSet{r});  // s15
}

void MembershipService::on_rha_nty(RhaEvent e, can::NodeSet rhv) {
  if (!started_) return;  // node is not running the membership service
  if (e == RhaEvent::kInit) {
    cycle(/*timer_expired=*/false);  // s17
  } else {
    on_rha_end(rhv);  // s28
  }
}

void MembershipService::restart_cycle_timer(sim::Time duration) {
  if (timers_.restart_alarm(tid_, duration)) return;
  tid_ = timers_.start_alarm(duration, [this] {
    tid_ = sim::kNullTimer;
    cycle(/*timer_expired=*/true);  // s17, alarm branch
  });
}

void MembershipService::cycle(bool timer_expired) {
  if (in_cycle_) return;  // rha INIT raised by our own rha_can_req below
  in_cycle_ = true;

  if (timer_expired && !rf_.contains(driver_.node())) {
    if (rf_.empty()) {
      // s18-s19: the timer ran out at a non-integrated node that knows of
      // no live full member — bootstrap a (temporary) view from the join
      // requests observed so far.
      rf_ = rj_;
    } else {
      // Deviation (documented): the node has *learned* a view through RHA
      // (full members are alive) but its own join has not succeeded —
      // e.g. the JOIN was pruned after two cycles (footnote 10).
      // Bootstrapping here would inject a bogus tiny RHV and collapse the
      // members' view through the intersection rule; re-announce instead.
      driver_.can_rtr_req(Mid{MsgType::kJoin, 0, driver_.node()});
      rj_.insert(driver_.node());
    }
  }

  // s21.  Deviation (documented in DESIGN.md): at a node outside the view
  // the period is stretched by Ttd so that a cycle started by full members
  // — whose RHV frame needs up to Ttd to arrive — always reaches the
  // joiner before its own timer can misfire into the bootstrap path.
  const sim::Time period = rf_.contains(driver_.node())
                               ? params_.membership_cycle
                               : params_.membership_cycle +
                                     params_.tx_delay_bound;
  restart_cycle_timer(period);

  if (!rj_.empty() || !rl_.empty()) {
    // obs: a join/leave request is pending — count the cycles it takes
    // until a view install absorbs it (msh.settle_cycles).
    if (pending_cycles_ < 0) pending_cycles_ = 0;
    ++pending_cycles_;
  }
  if (!rj_.empty() || !rl_.empty() || !params_.skip_idle_cycles) {
    rha_.rha_can_req();  // s22-s23
  } else {
    msh_view_proc(rf_);  // s25: no changes pending; just fold failures in
  }
  in_cycle_ = false;
}

void MembershipService::record_view_install() {
  if (recorder_ == nullptr) return;
  obs::Event ev;
  ev.when = driver_.engine().now();
  ev.kind = obs::EventKind::kViewInstall;
  ev.node = driver_.node();
  ev.u.view = {rf_.bits()};
  recorder_->emit(ev);
  ctr_view_changes_->add_node(driver_.node());
  if (pending_cycles_ > 0) hist_settle_->add(pending_cycles_);
  pending_cycles_ = -1;
}

void MembershipService::on_rha_end(can::NodeSet rhv) {
  const can::NodeSet old_view = rf_;
  msh_view_proc(rhv);  // s29
  if (!rj_.intersected(rf_).empty() || !rl_.minus(rf_).empty()) {
    msh_chg_nty(rf_, can::NodeSet{});  // s30-s32: join/leave took effect
  } else if (rf_ != old_view && rf_.contains(driver_.node())) {
    // Safety net beyond the pseudo-code: any other view alteration (e.g.
    // a node expelled through a failure folded in by msh-view-proc) is
    // also worth notifying.
    msh_chg_nty(rf_, can::NodeSet{});
  }
  msh_data_proc();  // s33
}

void MembershipService::msh_view_proc(can::NodeSet rw) {
  // a00-a02: install the new view, discounting failures detected during
  // the cycle.
  const can::NodeSet before = rf_;
  rf_ = rw.minus(ff_);
  ff_.clear();
  if (rf_ != before) {
    ++views_;
    record_view_install();
    if (view_obs_) view_obs_(rf_);
  }
  // Deviation (documented): a node that drops out of the view while alive
  // stops its surveillance duties; if it was not leaving voluntarily (it
  // was expelled by a false suspicion) it also stops cycling and tells the
  // upper layer, which may re-join.  The paper leaves this housekeeping
  // implicit ("some details have been omitted for simplicity").
  if (before.contains(driver_.node()) && !rf_.contains(driver_.node())) {
    for (can::NodeId s : before) fd_.fd_can_req_stop(s);
    if (!rl_.contains(driver_.node())) {
      timers_.cancel_alarm(tid_);
      tid_ = sim::kNullTimer;
      started_ = false;
      if (change_) change_(rf_, can::NodeSet{});
    }
  }
}

void MembershipService::msh_data_proc() {
  // a03-a09.
  const can::NodeSet admitted = rj_.intersected(rf_);
  for (can::NodeId s : admitted) {
    fda_.reset(s);            // forget any stale failure-sign of a rejoiner
    fd_.fd_can_req_start(s);  // a04-a05
  }
  if (admitted.contains(driver_.node())) {
    // The join is satisfied; withdraw the request frame if it is still
    // queued.  A node that bootstrapped on a previously-silent bus
    // (s18-s19) got in through the locally-recorded request — its JOIN
    // frame was never acknowledged and would otherwise retry forever.
    driver_.can_abort_req(Mid{MsgType::kJoin, 0, driver_.node()});
    // The local node just became a member: begin surveillance of every
    // member, not only fellow joiners.  (The paper omits this detail "for
    // simplicity of exposition"; without it a joiner would monitor nobody.)
    for (can::NodeId s : rf_) fd_.fd_can_req_start(s);
  }
  // a06 with the footnote-10 semantics: a join request not satisfied
  // within two membership cycles is discarded (the requester suffered an
  // inconsistent failure).  Fresh leftovers get one retry cycle.
  const can::NodeSet leftover = rj_.minus(rf_);
  rj_ = leftover.minus(rjp_);
  rjp_ = leftover;

  const can::NodeSet departed = rl_.minus(rf_);
  for (can::NodeId s : departed) {
    fd_.fd_can_req_stop(s);  // a07-a08
  }
  rl_ = rl_.intersected(rf_);  // a09
}

void MembershipService::msh_chg_nty(can::NodeSet rw, can::NodeSet fw) {
  // a10-a18.
  if (rf_.contains(driver_.node())) {
    if (change_) change_(rw, fw);  // a11-a12: full members
  } else if (rl_.contains(driver_.node())) {
    // a13-a16: the local node's leave completed — final notification,
    // stop cycling; the node departs the service.
    timers_.cancel_alarm(tid_);
    tid_ = sim::kNullTimer;
    started_ = false;
    if (change_) change_(rf_, can::NodeSet{driver_.node()});
  }
  // Joining nodes not yet admitted receive no notification (a10-a18).
}

}  // namespace canely
