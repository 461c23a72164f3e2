#include "canely/rha.hpp"

#include <array>

namespace canely {
namespace {

std::array<std::uint8_t, 8> to_wire(can::NodeSet set) {
  std::array<std::uint8_t, 8> bytes{};
  const std::uint64_t bits = set.bits();
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>((bits >> (8 * i)) & 0xFF);
  }
  return bytes;
}

can::NodeSet from_wire(std::span<const std::uint8_t> payload) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < payload.size() && i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  return can::NodeSet::from_bits(bits);
}

}  // namespace

RhaProtocol::RhaProtocol(CanDriver& driver, sim::TimerService& timers,
                         const Params& params, obs::Recorder* recorder)
    : driver_{driver}, timers_{timers}, params_{params}, recorder_{recorder} {
  if (recorder_ != nullptr) {
    ctr_executions_ = &recorder_->metrics().counter("rha.executions");
  }
  driver_.on_data_ind(
      MsgType::kRha,
      [this](const Mid& mid, std::span<const std::uint8_t> payload,
             bool /*own*/) { on_data_ind(mid, payload); });
  // Once our RHV reached the wire there is nothing left to abort: clear
  // the pending flag, or a later abort_pending() would issue a stale
  // can-abort.req that can destroy an unrelated, newer RHA frame whose
  // mid happens to match (same cardinality, same sender).
  driver_.on_data_cnf(MsgType::kRha, [this](const Mid& mid) {
    if (s_.have_pending && mid == s_.last_sent_mid) s_.have_pending = false;
  });
}

void RhaProtocol::rha_can_req() {
  // Sender, s00-s04: only full members may start in isolation, and only
  // when no execution is running.
  if (!shared_ || !shared_().full.contains(driver_.node())) return;
  if (s_.tid != sim::kNullTimer) return;  // s01
  rha_init_send(can::NodeSet::first_n(can::kMaxNodes));  // s02: R_W = Omega
}

void RhaProtocol::rha_init_send(can::NodeSet rw) {
  // a00-a09.  `r` of the pseudo-code is the local node.
  s_.tid =
      timers_.start_alarm(params_.rha_timeout, [this] { on_alarm(); });  // a01
  const SharedSets sets = shared_ ? shared_() : SharedSets{};
  if (sets.full.contains(driver_.node())) {
    // a03: full-member initial vector ((R_F u R_J) - R_L) ^ R_W
    s_.rhv = sets.full.united(sets.joining).minus(sets.leaving).intersected(rw);
  } else {
    s_.rhv = rw;  // a05: non-members adopt the received vector
  }
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kRhaRoundStart;
    ev.node = driver_.node();
    recorder_->emit(ev);
  }
  send_rhv();                                  // a07
  if (nty_) nty_(RhaEvent::kInit, can::NodeSet{});  // a08
  if (obs_) obs_(RhaEvent::kInit, can::NodeSet{});
}

void RhaProtocol::send_rhv() {
  s_.last_sent_mid = Mid{MsgType::kRha,
                         static_cast<std::uint8_t>(s_.rhv.size()),
                         driver_.node()};
  s_.have_pending = true;
  const auto bytes = to_wire(s_.rhv);
  driver_.can_data_req(s_.last_sent_mid, bytes);
}

void RhaProtocol::abort_pending() {
  if (!s_.have_pending) return;
  driver_.can_abort_req(s_.last_sent_mid);
  s_.have_pending = false;
}

void RhaProtocol::on_data_ind(const Mid& /*mid*/,
                              std::span<const std::uint8_t> payload) {
  // Recipient, r00-r13.  Own transmissions arrive here too and are counted
  // as circulating copies.
  const can::NodeSet remote = from_wire(payload);
  int& ndup = ++s_.rhv_ndup[remote.bits()];  // r01
  (void)ndup;
  if (s_.tid == sim::kNullTimer) {
    rha_init_send(remote);  // r03: reception-triggered start
    return;
  }
  if (s_.rhv.intersected(remote) != s_.rhv) {  // r04: remote removes nodes
    abort_pending();                       // r05
    s_.rhv = s_.rhv.intersected(remote);       // r06
    send_rhv();                            // r07
    return;
  }
  if (s_.rhv_ndup[s_.rhv.bits()] > params_.inconsistent_degree_j) {  // r08
    abort_pending();  // r09: >j copies circulated; ours is redundant
  }
}

void RhaProtocol::on_alarm() {
  // r14-r18: the execution ends; deliver the agreed vector upward.
  const can::NodeSet agreed = s_.rhv;
  ++s_.executions;
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kRhaRoundEnd;
    ev.node = driver_.node();
    recorder_->emit(ev);
    ctr_executions_->add_node(driver_.node());
  }
  s_.tid = sim::kNullTimer;  // r16
  s_.rhv.clear();            // r17
  s_.rhv_ndup.clear();       // fresh counters for the next execution (i00)
  // Deviation from the letter of Fig. 7: abort any still-pending own
  // signal, so a queued stale vector cannot trigger a ghost execution
  // after this one ended.  (Trha is sized so this never fires in a
  // correctly parameterized system.)
  abort_pending();
  if (nty_) nty_(RhaEvent::kEnd, agreed);  // r15
  if (obs_) obs_(RhaEvent::kEnd, agreed);
}

}  // namespace canely
