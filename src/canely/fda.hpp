#pragma once
// Failure Detection Agreement micro-protocol (paper §6.2, Figure 6).
//
// FDA secures the *reliable broadcast of a failure-sign*: once any correct
// node delivers `fda-can.nty(r)`, every correct node eventually does —
// even if the original failure-sign suffered an inconsistent omission and
// its sender crashed.  It is a simplified, optimized Eager Diffusion
// (EDCAN [18]): every recipient of the first copy re-requests transmission
// of the *identical* remote frame, and the wired-AND bus clusters all the
// simultaneous copies into (typically) one physical frame, so the
// fault-free cost is just two frames regardless of n.

#include <array>
#include <bit>
#include <cstdint>
#include <functional>

#include "can/types.hpp"
#include "canely/driver.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"

namespace canely {

/// One instance per node.  Wire-in happens in the constructor; upper
/// layers invoke `fda_can_req` and subscribe to `fda-can.nty`.
class FdaProtocol {
 public:
  using NtyHandler = std::function<void(can::NodeId failed)>;

  explicit FdaProtocol(CanDriver& driver, obs::Recorder* recorder = nullptr);
  FdaProtocol(const FdaProtocol&) = delete;
  FdaProtocol& operator=(const FdaProtocol&) = delete;

  /// fda-can.req — invoke the protocol for failed node `r`
  /// (Fig. 6, lines s00-s05).
  void fda_can_req(can::NodeId failed);

  /// fda-can.nty — delivered exactly once per failure-sign per node
  /// (Fig. 6, line r03).
  void set_nty_handler(NtyHandler handler) { nty_ = std::move(handler); }

  /// Passive observation of fda-can.nty deliveries, invoked alongside the
  /// handler.  The failure detector owns the handler slot; diagnostics and
  /// the checker (src/check) subscribe here without displacing it.
  void set_nty_observer(NtyHandler observer) { nty_obs_ = std::move(observer); }

  /// Ablation switch: with agreement disabled the recipient rule delivers
  /// but never echoes (Fig. 6 lines r04-r06 skipped) — "naive signalling".
  /// A failure-sign lost to an inconsistent omission whose sender crashes
  /// then stays lost at the victims; src/check uses this to demonstrate
  /// the resulting membership split.  Normal deployments leave it on.
  void set_agreement(bool enabled) { s_.agreement = enabled; }
  [[nodiscard]] bool agreement() const { return s_.agreement; }

  /// Forget a previously agreed failure-sign so a reintegrated node can be
  /// detected again.  The paper assumes a removed node does not attempt
  /// reintegration before a period much longer than Tm (§6.4); the
  /// membership layer calls this when the node rejoins.
  void reset(can::NodeId node);

  /// Counters exposed for tests (Fig. 6 state).
  [[nodiscard]] int fs_ndup(can::NodeId r) const { return s_.fs_ndup[r]; }
  [[nodiscard]] int fs_nreq(can::NodeId r) const { return s_.fs_nreq[r]; }

  /// Failure-signs delivered upward at this node (diagnostics).
  [[nodiscard]] std::uint64_t ntys_delivered() const { return s_.ntys; }

  /// Canonical protocol state for the checker's equivalence dedup: the
  /// per-mid duplicate/request counters of Fig. 6.  s_.ntys is excluded
  /// (diagnostic count); s_.agreement is excluded (immutable scenario
  /// configuration, identical across all placements of one exploration).
  ///
  /// Sparse feed over every id below kMaxNodes: the count of mids with a
  /// non-zero counter, then (id, fs_ndup, fs_nreq) for each of them in
  /// ascending id.  Injective: the count frames the list, ids are
  /// strictly ascending, and every id it omits has both counters zero.
  void hash_state(sim::StateHasher& h) const {
    static_assert(can::kMaxNodes <= 64, "one mask bit per id");
    std::uint64_t active = 0;  // ids with a non-zero counter
    for (std::size_t r = 0; r < can::kMaxNodes; ++r) {
      if (s_.fs_ndup[r] != 0 || s_.fs_nreq[r] != 0) {
        active |= std::uint64_t{1} << r;
      }
    }
    h.feed(static_cast<std::uint64_t>(std::popcount(active)));
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
      const auto r = static_cast<std::size_t>(std::countr_zero(m));
      h.feed(r);
      h.feed(static_cast<std::uint64_t>(s_.fs_ndup[r]));
      h.feed(static_cast<std::uint64_t>(s_.fs_nreq[r]));
    }
  }

 private:
  void on_rtr_ind(const Mid& mid);  // lines r00-r09

  CanDriver& driver_;
  obs::Recorder* recorder_;
  obs::Counter* ctr_rounds_{nullptr};
  obs::Counter* ctr_ntys_{nullptr};
  NtyHandler nty_;
  NtyHandler nty_obs_;

 public:
  /// Every mutable member of the protocol, value-typed: checkpoint() and
  /// restore() are copy-assignments.
  struct State {
    bool agreement{true};
    // Per-mid state; the FDA mid is fully determined by the failed node.
    std::array<int, can::kMaxNodes> fs_ndup{};  // failure-sign dups (i00)
    std::array<int, can::kMaxNodes> fs_nreq{};  // transmit requests (i01)
    std::uint64_t ntys{0};
  };

  void checkpoint(State& out) const { out = s_; }
  void restore(const State& in) { s_ = in; }

 private:
  State s_;
};

}  // namespace canely
