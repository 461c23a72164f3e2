#pragma once
// canely::Node — the public facade of the CANELy stack.
//
// One Node owns a complete per-node protocol stack wired together the way
// Figure 5 of the paper draws it:
//
//     upper layer  (join/leave/view, membership-change notifications)
//        |  msh-can.req / msh-can.nty
//     MembershipService  --  RhaProtocol (reception history agreement)
//        |  fd-can.nty            |
//     FailureDetector  --  FdaProtocol (failure detection agreement)
//        |  can-*.req / .cnf / .ind / .nty
//     CanDriver (CAN standard layer + extension, Fig. 4)
//        |
//     can::Controller  ->  can::Bus
//
// plus a periodic traffic generator, because CANELy's failure detection
// leans on *implicit* heartbeats: any data frame a node transmits renews
// its life-sign, so cyclic control traffic with a period below Th costs
// zero extra bandwidth for failure detection (§6.3).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "canely/driver.hpp"
#include "canely/failure_detector.hpp"
#include "canely/fda.hpp"
#include "canely/group.hpp"
#include "canely/membership.hpp"
#include "canely/mid.hpp"
#include "canely/params.hpp"
#include "canely/rha.hpp"
#include "obs/recorder.hpp"
#include "sim/timer.hpp"

namespace canely {

/// A CANELy node: CAN controller + driver + protocol suite + traffic.
class Node {
 public:
  /// Handler for application messages: sender, stream id, payload, and
  /// whether this is the node's own transmission looping back.
  using AppHandler = std::function<void(can::NodeId from, std::uint8_t stream,
                                        std::span<const std::uint8_t> data,
                                        bool own)>;

  // nullptr_t: the retired tracer slot, still passed by perfbench/layers.cpp.
  Node(can::Bus& bus, can::NodeId id, const Params& params,
       std::nullptr_t = nullptr, obs::Recorder* recorder = nullptr);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] can::NodeId id() const { return controller_.node(); }

  // -- membership -----------------------------------------------------------

  /// Request integration into the set of active sites.
  void join();

  /// Request withdrawal from the site membership view.
  void leave();

  /// Current site membership view (msh-can.req GET).
  [[nodiscard]] can::NodeSet view() const { return msh_.view(); }
  [[nodiscard]] bool is_member() const { return msh_.is_member(); }

  /// Membership change notifications (msh-can.nty): active set + failed set.
  void on_membership_change(MembershipService::ChangeHandler handler) {
    site_change_ = std::move(handler);
  }

  // -- process groups (extension; see canely/group.hpp) -----------------------

  /// Announce the local process joining/leaving a process group.
  void join_group(GroupId group) { groups_.join_group(group); }
  void leave_group(GroupId group) { groups_.leave_group(group); }

  /// Current process-group view: announced members that are live sites.
  [[nodiscard]] can::NodeSet group_view(GroupId group) const {
    return groups_.group_view(group);
  }

  void on_group_change(GroupMembership::GroupChangeHandler handler) {
    groups_.set_change_handler(std::move(handler));
  }

  // -- application traffic ----------------------------------------------------

  /// Broadcast an application message on `stream` (0..255).  Doubles as an
  /// implicit life-sign.
  void send(std::uint8_t stream, std::span<const std::uint8_t> data);

  /// Receive application messages (own transmissions included).
  void on_message(AppHandler handler) { app_ = std::move(handler); }

  /// Start transmitting `payload` on `stream` every `period` — the cyclic
  /// traffic pattern typical of CAN control applications [20].
  void start_periodic(std::uint8_t stream, sim::Time period,
                      std::vector<std::uint8_t> payload);
  void stop_periodic(std::uint8_t stream);

  // -- failure semantics --------------------------------------------------------

  /// Fail-silent crash of the whole node (process + controller), §4:
  /// "when a process crashes, the whole node crashes".
  void crash();

  /// Schedule a crash at an absolute simulated time.
  void crash_at(sim::Time when);

  [[nodiscard]] bool crashed() const { return crashed_; }

  // -- diagnostics ------------------------------------------------------------

  /// Per-node protocol counters, aggregated across the stack.
  struct Stats {
    std::uint64_t els_sent{};          ///< explicit life-signs broadcast
    std::uint64_t failures_signalled{};///< fda-can.nty deliveries
    std::uint64_t rha_executions{};    ///< completed RHA rounds
    std::uint64_t views_installed{};   ///< membership views adopted
  };
  [[nodiscard]] Stats stats() const {
    return Stats{fd_.els_sent(), fda_.ntys_delivered(), rha_.executions(),
                 msh_.views_installed()};
  }

  // -- component access (tests, benchmarks, examples) -------------------------

  [[nodiscard]] CanDriver& driver() { return driver_; }
  [[nodiscard]] can::Controller& controller() { return controller_; }
  [[nodiscard]] FdaProtocol& fda() { return fda_; }
  [[nodiscard]] RhaProtocol& rha() { return rha_; }
  [[nodiscard]] FailureDetector& fd() { return fd_; }
  [[nodiscard]] MembershipService& membership() { return msh_; }
  [[nodiscard]] GroupMembership& groups() { return groups_; }
  [[nodiscard]] sim::TimerService& timers() { return timers_; }

  /// Canonical whole-node state for the checker's equivalence dedup:
  /// controller + every protocol component + the periodic traffic
  /// streams.  See node.cpp for the feed order and exclusions.
  void hash_state(sim::StateHasher& h) const;

 private:
  void periodic_tick(std::uint8_t stream);
  void emit_lifecycle(obs::EventKind kind);

  sim::Engine& engine_;
  Params params_;
  obs::Recorder* recorder_;
  can::Controller controller_;
  CanDriver driver_;
  sim::TimerService timers_;
  FdaProtocol fda_;
  RhaProtocol rha_;
  FailureDetector fd_;
  MembershipService msh_;
  GroupMembership groups_;
  MembershipService::ChangeHandler site_change_;
  AppHandler app_;

  struct PeriodicStream {
    bool active{false};
    sim::Time period{};
    std::vector<std::uint8_t> payload;
    sim::TimerId timer{sim::kNullTimer};
  };
  /// Streams ever started, by ascending id.  A map rather than a
  /// 256-entry table: most nodes run none, and an empty map costs
  /// nothing to build, hash or tear down.
  std::map<std::uint8_t, PeriodicStream> periodic_;
  bool crashed_{false};
};

}  // namespace canely
