#pragma once
// Process group membership on top of the site membership service.
//
// The paper motivates site membership as "a crucial assistant for process
// group membership management" (§6): once every node agrees on which
// *sites* are alive, per-group membership reduces to disseminating
// join/leave announcements reliably and reacting to site failures — no
// extra agreement rounds are needed, because
//
//   group view = (announced members)  ∩  (site membership view)
//
// and both operands converge at all correct nodes: the site view through
// RHA/FDA, the announcements through the CAN LLC guarantees (LCAN1/LCAN2:
// a correct announcer's frame reaches every correct node, retransmitted
// as long as the announcer stays correct) plus idempotent per-node
// insert/erase updates — an announcer that crashes mid-announcement is
// removed from the intersection by the site view anyway.
//
// This layer demonstrates the composition the paper gestures at; it is an
// extension beyond the paper's evaluated scope (documented in DESIGN.md).

#include <cstdint>
#include <functional>
#include <map>

#include "can/types.hpp"
#include "canely/driver.hpp"
#include "canely/membership.hpp"
#include "canely/mid.hpp"
#include "sim/hash.hpp"

namespace canely {

/// Identifier of a process group (0..255).
using GroupId = std::uint8_t;

/// Process-group membership endpoint (one per node; a node hosts one
/// process per group in this model — §4: process and node crash together).
class GroupMembership {
 public:
  /// Group view change: group, members now in the group (and alive).
  using GroupChangeHandler =
      std::function<void(GroupId group, can::NodeSet members)>;

  GroupMembership(CanDriver& driver, MembershipService& site);
  GroupMembership(const GroupMembership&) = delete;
  GroupMembership& operator=(const GroupMembership&) = delete;

  /// Announce that the local process enters `group`.  Requires site
  /// membership (the announcement rides on the site-level guarantees).
  void join_group(GroupId group);

  /// Announce that the local process leaves `group`.
  void leave_group(GroupId group);

  /// Current view of `group`: announced members that are live sites.
  [[nodiscard]] can::NodeSet group_view(GroupId group) const {
    const auto it = s_.announced.find(group);
    return it == s_.announced.end() ? can::NodeSet{}
                                  : it->second.intersected(site_.view());
  }

  [[nodiscard]] bool in_group(GroupId group) const {
    return group_view(group).contains(driver_.node());
  }

  void set_change_handler(GroupChangeHandler handler) {
    on_change_ = std::move(handler);
  }

  /// Must be invoked from the owner's site membership-change handler (the
  /// Node facade wires this) so that site failures cascade into group
  /// views.
  void on_site_change(can::NodeSet active, can::NodeSet failed);

  /// Canonical state for the checker's equivalence dedup: the non-empty
  /// announcement sets, index-framed (the count feed keeps a sparse table
  /// from aliasing with a different sparse table of equal total bits).
  /// s_.announced holds exactly the non-empty sets, in ascending group id.
  void hash_state(sim::StateHasher& h) const {
    h.feed(s_.announced.size());
    for (const auto& [g, set] : s_.announced) {
      h.feed(g);
      h.feed(set.bits());
    }
  }

 private:
  void on_announce(const Mid& mid, bool joining);
  void notify(GroupId group);

  CanDriver& driver_;
  MembershipService& site_;
  GroupChangeHandler on_change_;

 public:
  /// Every mutable member of the endpoint, value-typed: checkpoint() and
  /// restore() are copy-assignments.
  struct State {
    /// Who has announced membership of each group (gated by the site
    /// view on read): only the non-empty sets, keyed by ascending group
    /// id, so a node in no group builds, scans and hashes nothing.
    std::map<GroupId, can::NodeSet> announced;
  };

  void checkpoint(State& out) const { out = s_; }
  void restore(const State& in) { s_ = in; }

 private:
  State s_;
};

}  // namespace canely
