#pragma once
// OSEK/VDX direct Network Management baseline (paper §6.6; [13]).
//
// OSEK NM monitors nodes *distributedly* through a logical ring: the set
// of present nodes is ordered by address; each node, upon receiving the
// ring message addressed to it, forwards it to its logical successor
// after TTyp.  All nodes eavesdrop on the bus, so every NM message
// doubles as a liveness proof of its sender:
//
//  * a node that observes no NM traffic for TMax broadcasts an ALIVE
//    message (and eventually enters limphome);
//  * when the ring stalls because the token holder died, the previous
//    sender retries towards the *next* successor after TMax, and every
//    observer removes the dead node from its (transient) configuration.
//
// The paper's criticism: bandwidth is consumed permanently (one ring
// message every TTyp even when idle) and failure detection latency is
// high — the crash of a node is only noticed when the ring reaches it,
// i.e. up to n * TTyp + TMax; "for a reference value of TTyp = 100 ms,
// the period required to detect the failure of a node may be in the
// order of one second" (§6.6).

#include <array>
#include <cstdint>
#include <functional>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/types.hpp"
#include "sim/timer.hpp"

namespace canely::baselines {

/// COB-ID base of NM messages (0x500 + source address, per OSEK practice).
inline constexpr std::uint32_t kNmBase = 0x500;

struct OsekNmParams {
  sim::Time t_typ{sim::Time::ms(100)};  ///< ring forwarding delay
  sim::Time t_max{sim::Time::ms(260)};  ///< silence / stall tolerance
};

/// One OSEK NM endpoint.
class OsekNmNode final : public can::ControllerClient {
 public:
  /// Fires when this node removes `dead` from its configuration.
  using LeaveHandler = std::function<void(can::NodeId dead)>;

  OsekNmNode(can::Bus& bus, can::NodeId id, sim::TimerService& timers,
             OsekNmParams params);

  /// Join the network management (broadcast ALIVE, start timers).
  void start();

  void crash();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// The node's current stable configuration (the OSEK "config").
  [[nodiscard]] can::NodeSet config() const { return config_; }
  [[nodiscard]] can::NodeId id() const { return controller_.node(); }

  /// True when the node is in the OSEK limp-home state: it has observed
  /// no NM traffic for several TMax periods and assumes it is cut off.
  [[nodiscard]] bool limp_home() const { return limp_home_; }

  void set_leave_handler(LeaveHandler handler) {
    on_leave_ = std::move(handler);
  }

  // ControllerClient
  void on_rx(const can::Frame& frame, bool own) override;
  void on_tx_confirm(const can::Frame&) override {}

 private:
  enum class OpCode : std::uint8_t { kAlive = 1, kRing = 2, kLimpHome = 3 };

  void send(OpCode op, can::NodeId dest);
  void forward_ring();
  void arm_tmax();
  void arm_ttyp();
  void on_tmax();
  [[nodiscard]] can::NodeId successor_of(can::NodeId node) const;

  can::Controller controller_;
  sim::TimerService& timers_;
  OsekNmParams params_;
  LeaveHandler on_leave_;
  can::NodeSet config_;
  can::NodeId awaited_{0};      ///< node expected to act next in the ring
  bool awaiting_{false};
  bool crashed_{false};
  bool started_{false};
  bool limp_home_{false};
  int silent_tmax_{0};
  sim::TimerId tmax_timer_{sim::kNullTimer};
  sim::TimerId ttyp_timer_{sim::kNullTimer};
};

}  // namespace canely::baselines
