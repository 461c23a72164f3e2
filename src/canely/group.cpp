#include "canely/group.hpp"

namespace canely {

GroupMembership::GroupMembership(CanDriver& driver, MembershipService& site)
    : driver_{driver}, site_{site} {
  driver_.on_rtr_ind(MsgType::kGroupJoin,
                     [this](const Mid& mid, bool /*own*/) {
                       on_announce(mid, /*joining=*/true);
                     });
  driver_.on_rtr_ind(MsgType::kGroupLeave,
                     [this](const Mid& mid, bool /*own*/) {
                       on_announce(mid, /*joining=*/false);
                     });
}

void GroupMembership::join_group(GroupId group) {
  if (!site_.is_member()) return;  // group service rides on site membership
  driver_.can_rtr_req(Mid{MsgType::kGroupJoin, group, driver_.node()});
}

void GroupMembership::leave_group(GroupId group) {
  driver_.can_rtr_req(Mid{MsgType::kGroupLeave, group, driver_.node()});
}

void GroupMembership::on_announce(const Mid& mid, bool joining) {
  const GroupId group = mid.ref;
  can::NodeSet& members = s_.announced[group];
  const can::NodeSet before = members.intersected(site_.view());
  if (joining) {
    members.insert(mid.node);
  } else {
    members.erase(mid.node);
  }
  const can::NodeSet after = members.intersected(site_.view());
  if (members.empty()) s_.announced.erase(group);
  if (after != before) notify(group);
}

void GroupMembership::on_site_change(can::NodeSet active,
                                     can::NodeSet /*failed*/) {
  // A site change may shrink (failure/leave) or grow (rejoin) any group
  // view; notify every group whose effective view changed.
  // Ascending group id, as s_.announced holds only non-empty sets.
  for (const auto& [g, members] : s_.announced) {
    // The effective view uses the *current* site view; report groups that
    // intersect the delta.
    if (!members.intersected(active).empty() ||
        !members.minus(active).empty()) {
      notify(g);
    }
  }
}

void GroupMembership::notify(GroupId group) {
  if (on_change_) on_change_(group, group_view(group));
}

}  // namespace canely
