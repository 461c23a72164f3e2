#pragma once
// Invariant monitors: passive observers that watch one simulated run and
// report violations of the paper's correctness properties.
//
// A Monitor sees the run through the observation seams the stack already
// exposes — bus transmission records, fda-can.nty deliveries, RHA
// execution ends, membership view installations, and the harness's crash
// applications — and renders a verdict in finish(), once the run is over.
// The protocol code never learns it is being watched: monitors are wired
// from the outside via secondary observer slots (FdaProtocol::
// set_nty_observer, RhaProtocol::set_observer, MembershipService::
// set_view_observer, Bus::set_observer).
//
// The concrete monitors formalize, one each, the properties the paper
// argues for (docs/PROTOCOLS.md cross-references the figures):
//
//  * FdaAgreementMonitor    — FDA agreement & validity (Fig. 6): a
//    failure-sign delivered at any correct node is delivered at all, and
//    only for nodes that actually crashed.
//  * RhaAgreementMonitor    — RHA agreement (Fig. 7): the per-node
//    sequences of agreed RHVs are mutually consistent.
//  * ViewConsistencyMonitor — membership agreement (Fig. 9): surviving
//    members install the same sequence of views (common-prefix rule; only
//    installs still in flight at the end may be missing), agree on the
//    final view, and expel long-crashed nodes from it.
//  * FailSilenceMonitor     — weak-fail-silence (§4): a crashed node puts
//    no further frame on the bus.
//  * DetectionLatencyMonitor — bounded detection (§6.3): every delivered
//    failure-sign for a crashed node arrives within Th + 2·Ttd + n·skew
//    (+ margin) of the crash.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "can/bus.hpp"
#include "can/types.hpp"
#include "sim/hash.hpp"
#include "sim/time.hpp"

namespace canely::check {

/// One detected property violation.
struct Violation {
  std::string monitor;  ///< name() of the reporting monitor
  sim::Time when{};     ///< instant the violation is attributed to
  std::string detail;   ///< human-readable description
};

/// Everything a monitor may consult once the run is over.
struct EndState {
  sim::Time end{};     ///< simulation end instant
  sim::Time settle{};  ///< events after end - settle are still in flight:
                       ///< agreement obligations first arising inside this
                       ///< window are exempt (their deadline is past end)
  can::NodeSet nodes;  ///< the scenario's Omega
  can::NodeSet crashed;
  std::array<sim::Time, can::kMaxNodes> crash_time{};
  std::array<can::NodeSet, can::kMaxNodes> final_view{};
  can::NodeSet members_at_end;  ///< nodes reporting is_member() at end
};

/// Passive run observer.  Callbacks fire in simulated-time order; finish()
/// runs once after the engine stops.
class Monitor {
 public:
  virtual ~Monitor() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void on_tx(const can::TxRecord& rec) { (void)rec; }
  virtual void on_crash(can::NodeId node, sim::Time when) {
    (void)node;
    (void)when;
  }
  virtual void on_fda_nty(can::NodeId at, can::NodeId failed, sim::Time when) {
    (void)at;
    (void)failed;
    (void)when;
  }
  virtual void on_rha_end(can::NodeId at, can::NodeSet agreed,
                          sim::Time when) {
    (void)at;
    (void)agreed;
    (void)when;
  }
  virtual void on_view_installed(can::NodeId at, can::NodeSet view,
                                 sim::Time when) {
    (void)at;
    (void)view;
    (void)when;
  }

  virtual void finish(const EndState& end, std::vector<Violation>& out) = 0;

  /// Feed the monitor's accumulated observation state into `h` (the
  /// checker's equivalence dedup; sim/hash.hpp).  Because every monitor
  /// renders its verdict exclusively in finish(), equal monitor state at
  /// a sampling point implies equal final violation sets for equal
  /// continuations — the soundness anchor of class collapsing.  `n` is
  /// the scenario size, bounding the per-node tables that are fed.
  virtual void hash_state(sim::StateHasher& h, std::size_t n) const {
    (void)h;
    (void)n;
  }
};

/// FDA agreement and validity (Fig. 6).
class FdaAgreementMonitor final : public Monitor {
 public:
  /// `n`: the scenario size.  Deliveries at or for nodes outside the
  /// scenario are never judged, so only the n x n table is kept.
  explicit FdaAgreementMonitor(std::size_t n) : n_{n}, first_(n * n) {}

  [[nodiscard]] std::string_view name() const override {
    return "fda-agreement";
  }
  void on_fda_nty(can::NodeId at, can::NodeId failed,
                  sim::Time when) override;
  void finish(const EndState& end, std::vector<Violation>& out) override;
  void hash_state(sim::StateHasher& h, std::size_t n) const override;

 private:
  struct Delivery {
    bool delivered{false};
    sim::Time when{};
  };
  [[nodiscard]] const Delivery& first(std::size_t at,
                                      std::size_t failed) const {
    return first_[at * n_ + failed];
  }
  std::size_t n_;
  std::vector<Delivery> first_;  // row-major: [at][failed]
};

/// RHA agreement (Fig. 7): pairwise, one node's sequence of agreed RHVs is
/// a contiguous subsequence of the other's (sequences may differ by runs
/// cut off at either end of the observation window, never by divergence).
class RhaAgreementMonitor final : public Monitor {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "rha-agreement";
  }
  void on_rha_end(can::NodeId at, can::NodeSet agreed,
                  sim::Time when) override;
  void finish(const EndState& end, std::vector<Violation>& out) override;
  void hash_state(sim::StateHasher& h, std::size_t n) const override;

 private:
  std::array<std::vector<can::NodeSet>, can::kMaxNodes> seqs_{};
};

/// Membership agreement (Fig. 9): surviving members install identical
/// view sequences (common-prefix rule: every monitor watches from t=0, so
/// sequences may only differ by installs still in flight when the run
/// ends — surplus installs must fall inside the settle window), members
/// agree on the final view, and long-crashed nodes are expelled.
class ViewConsistencyMonitor final : public Monitor {
 public:
  /// `expel_grace`: a node crashed more than this before the end must no
  /// longer be in any survivor's final view (detection bound + one
  /// membership cycle + RHA termination + margin).
  /// `converge_by`: installs before this instant are outside the
  /// agreement obligation — during the join phase nodes may hold
  /// different bootstrap histories (Fig. 9, s18-s19).
  ViewConsistencyMonitor(sim::Time expel_grace, sim::Time converge_by)
      : expel_grace_{expel_grace}, converge_by_{converge_by} {}

  [[nodiscard]] std::string_view name() const override {
    return "view-consistency";
  }
  void on_view_installed(can::NodeId at, can::NodeSet view,
                         sim::Time when) override;
  void finish(const EndState& end, std::vector<Violation>& out) override;
  void hash_state(sim::StateHasher& h, std::size_t n) const override;

 private:
  struct Install {
    sim::Time when{};
    can::NodeSet view;
  };
  sim::Time expel_grace_;
  sim::Time converge_by_;
  std::array<std::vector<Install>, can::kMaxNodes> installs_{};
};

/// Weak-fail-silence (§4): no frame on the wire from a crashed node.
class FailSilenceMonitor final : public Monitor {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "fail-silence";
  }
  void on_crash(can::NodeId node, sim::Time when) override;
  void on_tx(const can::TxRecord& rec) override;
  void finish(const EndState& end, std::vector<Violation>& out) override;
  void hash_state(sim::StateHasher& h, std::size_t n) const override;

 private:
  can::NodeSet crashed_;
  std::array<sim::Time, can::kMaxNodes> crash_time_{};
  std::vector<Violation> pending_;
};

/// Bounded failure detection latency (§6.3).
class DetectionLatencyMonitor final : public Monitor {
 public:
  /// `bound`: maximum crash-to-delivery latency once surveillance runs.
  explicit DetectionLatencyMonitor(sim::Time bound) : bound_{bound} {}

  [[nodiscard]] std::string_view name() const override {
    return "detection-latency";
  }
  void on_fda_nty(can::NodeId at, can::NodeId failed,
                  sim::Time when) override;
  void on_view_installed(can::NodeId at, can::NodeSet view,
                         sim::Time when) override;
  void finish(const EndState& end, std::vector<Violation>& out) override;
  void hash_state(sim::StateHasher& h, std::size_t n) const override;

 private:
  struct Delivery {
    can::NodeId at;
    can::NodeId failed;
    sim::Time when;
  };
  sim::Time bound_;
  std::vector<Delivery> deliveries_;
  std::array<bool, can::kMaxNodes> has_install_{};
  std::array<sim::Time, can::kMaxNodes> first_install_{};
};

/// True iff `a` is a contiguous subsequence (infix) of `b`.
[[nodiscard]] bool is_infix(const std::vector<can::NodeSet>& a,
                            const std::vector<can::NodeSet>& b);

}  // namespace canely::check
