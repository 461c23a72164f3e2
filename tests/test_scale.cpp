// Scale tests: the stack at its architectural limit of 64 nodes (the RHV
// bitmap fills the full 8-byte CAN data field), plus parameter scaling
// checks across system sizes.

#include <gtest/gtest.h>

#include <algorithm>

#include "testing.hpp"

namespace canely::testing {
namespace {

using can::NodeSet;
using sim::Time;

Params scaled_params(std::size_t n) {
  Params p;
  p.n = n;
  // Ttd must cover the post-admission ELS burst (n * ~80 bit-times) plus
  // load; Th scaled up so the life-sign load stays moderate at n=64.
  p.heartbeat_period = Time::ms(20);
  p.tx_delay_bound = Time::ms(2) + Time::us(100) * static_cast<int>(n);
  p.rha_timeout = Time::ms(10);
  p.membership_cycle = Time::ms(50);
  return p;
}

TEST(Scale, SixtyFourNodesFormOneView) {
  constexpr std::size_t kN = 64;
  Cluster c{kN, scaled_params(kN)};
  c.join_all();
  c.settle(Time::ms(800));
  EXPECT_TRUE(c.views_agree(NodeSet::first_n(kN)))
      << "view=" << c.any_view() << " (" << c.any_view().size() << ")";
  EXPECT_EQ(c.node(63).view().size(), kN);
}

TEST(Scale, SixtyFourNodesSurviveCrashes) {
  constexpr std::size_t kN = 64;
  Cluster c{kN, scaled_params(kN)};
  c.join_all();
  c.settle(Time::ms(800));
  ASSERT_TRUE(c.views_agree(NodeSet::first_n(kN)));
  c.node(10).crash();
  c.node(40).crash();
  c.node(63).crash();
  c.settle(Time::sec(1));
  NodeSet expect = NodeSet::first_n(kN);
  expect.erase(10);
  expect.erase(40);
  expect.erase(63);
  EXPECT_TRUE(c.views_agree(expect)) << c.any_view();
}

TEST(Scale, RhvBitmapUsesWholePayloadAt64) {
  // The wire format must carry node 63: join a view that includes it and
  // check the RHV-carrying frames use all 8 data bytes.
  constexpr std::size_t kN = 64;
  Cluster c{kN, scaled_params(kN)};
  bool rhv_seen_with_top_bit = false;
  c.bus().set_observer([&](const can::TxRecord& r) {
    const auto mid = Mid::decode(r.frame);
    if (mid.has_value() && mid->type == MsgType::kRha && !r.frame.remote &&
        r.frame.dlc == 8 && (r.frame.data[7] & 0x80)) {
      rhv_seen_with_top_bit = true;
    }
  });
  c.join_all();
  c.settle(Time::ms(800));
  ASSERT_TRUE(c.views_agree(NodeSet::first_n(kN)));
  EXPECT_TRUE(rhv_seen_with_top_bit);
}

TEST(Scale, FormationCostGrowsModestly) {
  // Frames needed to form the view should grow roughly linearly in n
  // (join requests dominate), not quadratically.
  std::uint64_t frames_8 = 0, frames_32 = 0;
  {
    Cluster c{8, scaled_params(8)};
    c.join_all();
    c.settle(Time::ms(800));
    ASSERT_TRUE(c.views_agree(NodeSet::first_n(8)));
    frames_8 = c.bus().stats().ok;
  }
  {
    Cluster c{32, scaled_params(32)};
    c.join_all();
    c.settle(Time::ms(800));
    ASSERT_TRUE(c.views_agree(NodeSet::first_n(32)));
    frames_32 = c.bus().stats().ok;
  }
  EXPECT_LT(frames_32, frames_8 * 16);  // far below quadratic scaling
  EXPECT_GT(frames_32, frames_8);
}

// Peak engine.pending() over 200 ms of steady state after formation,
// sampled every 10 us.
std::size_t steady_peak_pending(std::size_t n) {
  Cluster c{n, scaled_params(n)};
  c.join_all();
  c.settle(Time::ms(800));
  EXPECT_TRUE(c.views_agree(NodeSet::first_n(n)));
  sim::Engine& e = c.engine();
  const Time end = e.now() + Time::ms(200);
  std::size_t peak = 0;
  while (e.now() < end) {
    e.run_until(e.now() + Time::us(10));
    peak = std::max(peak, e.pending());
  }
  return peak;
}

TEST(Scale, SteadyStateQueueGrowsLinearlyInN) {
  // Each node arms n surveillance alarms (one per member, itself
  // included) plus its membership cycle timer.  With one engine event
  // per alarm the peak was n(n+1) + 1 (73 at n=8, 1,057 at n=32); with
  // one wake event per TimerService it is n + 1: the wakes plus the
  // bus's one in-flight event.
  EXPECT_EQ(steady_peak_pending(8), 9u);
  EXPECT_EQ(steady_peak_pending(32), 33u);
}

}  // namespace
}  // namespace canely::testing
