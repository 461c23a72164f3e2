#include "canely/fda.hpp"

namespace canely {

FdaProtocol::FdaProtocol(CanDriver& driver, obs::Recorder* recorder)
    : driver_{driver}, recorder_{recorder} {
  if (recorder_ != nullptr) {
    ctr_rounds_ = &recorder_->metrics().counter("fda.rounds");
    ctr_ntys_ = &recorder_->metrics().counter("fda.ntys");
  }
  driver_.on_rtr_ind(MsgType::kFda,
                     [this](const Mid& mid, bool /*own*/) { on_rtr_ind(mid); });
}

void FdaProtocol::fda_can_req(can::NodeId failed) {
  // Sender, lines s00-s05: issue a single transmit request per mid.
  int& nreq = fs_nreq_[failed];
  nreq += 1;
  if (nreq == 1) {
    if (recorder_ != nullptr) {
      obs::Event ev;
      ev.when = driver_.engine().now();
      ev.kind = obs::EventKind::kFdaRoundStart;
      ev.node = driver_.node();
      ev.u.peer = {failed};
      recorder_->emit(ev);
      ctr_rounds_->add_node(driver_.node());
    }
    driver_.can_rtr_req(Mid{MsgType::kFda, 0, failed});  // s03
  }
}

void FdaProtocol::on_rtr_ind(const Mid& mid) {
  // Recipient, lines r00-r09.  Note: own transmissions arrive here too
  // (can-rtr.ind includes them), so the original sender delivers its own
  // notification through the same path.
  const can::NodeId failed = mid.node;
  int& ndup = fs_ndup_[failed];
  ndup += 1;                     // r01
  if (ndup != 1) return;         // duplicates are absorbed
  ++ntys_;
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kFdaNty;
    ev.node = driver_.node();
    ev.u.peer = {failed};
    recorder_->emit(ev);
    ctr_ntys_->add_node(driver_.node());
  }
  if (nty_) nty_(failed);        // r03: fda-can.nty delivery
  if (nty_obs_) nty_obs_(failed);
  if (!agreement_) return;       // ablation: deliver but never echo
  int& nreq = fs_nreq_[failed];
  nreq += 1;                     // r04
  if (nreq == 1) {
    driver_.can_rtr_req(Mid{MsgType::kFda, 0, failed});  // r06: retransmit
  }
}

void FdaProtocol::reset(can::NodeId node) {
  fs_ndup_[node] = 0;
  fs_nreq_[node] = 0;
  // Drop any still-pending failure-sign for the reintegrated node.
  driver_.can_abort_req(Mid{MsgType::kFda, 0, node});
}

}  // namespace canely
