// Tests for the shared FNV-1a word step (sim/hash.hpp): the zero-high-
// byte fold must produce exactly the digest of the byte-wise loop, since
// equivalence keys, frontier records and aggregate hashes are all built
// on it and are compared byte for byte across versions.  Also: the
// sparse per-id feeds of the canonical node state reach every id, not
// only the scenario's first n.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "can/bus.hpp"
#include "canely/mid.hpp"
#include "canely/node.hpp"
#include "check/harness.hpp"
#include "sim/engine.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace canely::testing {
namespace {

/// The byte-wise FNV-1a step over a little-endian word: the reference.
constexpr std::uint64_t reference_word(std::uint64_t hash,
                                       std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

static_assert(sim::fnv1a_word(sim::kFnvOffset, 0) ==
              reference_word(sim::kFnvOffset, 0));
static_assert(sim::fnv1a_word(sim::kFnvOffset, 0x0102030405ULL) ==
              reference_word(sim::kFnvOffset, 0x0102030405ULL));
static_assert(sim::fnv1a_word(0, ~0ULL) == reference_word(0, ~0ULL));

void expect_same_step(std::uint64_t hash, std::uint64_t value) {
  EXPECT_EQ(sim::fnv1a_word(hash, value), reference_word(hash, value))
      << std::hex << "hash 0x" << hash << " value 0x" << value;
}

TEST(FnvFold, MatchesTheByteWiseLoopOnRandomWords) {
  sim::Rng rng{0x5eed};
  std::uint64_t fast = sim::kFnvOffset;
  std::uint64_t slow = sim::kFnvOffset;
  for (int i = 0; i < 20'000; ++i) {
    // Shift by a random amount so every significant-byte length occurs.
    const std::uint64_t value = rng.next_u64() >> rng.below(64);
    expect_same_step(rng.next_u64(), value);
    fast = sim::fnv1a_word(fast, value);
    slow = reference_word(slow, value);
  }
  EXPECT_EQ(fast, slow);
}

TEST(FnvFold, MatchesTheByteWiseLoopAtEveryByteLength) {
  const std::uint64_t time_max =
      static_cast<std::uint64_t>(sim::Time::max().to_ns());
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, time_max,
        std::numeric_limits<std::uint64_t>::max()}) {
    expect_same_step(sim::kFnvOffset, value);
  }
  // len significant bytes: the smallest and largest such words, and one
  // whose low bytes are zero (zeros *below* the top byte are not folded).
  for (int len = 1; len <= 8; ++len) {
    const std::uint64_t top = 1ULL << (8 * len - 8);
    const std::uint64_t all = len == 8 ? ~0ULL : (1ULL << (8 * len)) - 1;
    for (const std::uint64_t value : {top, all, top | 0x80}) {
      expect_same_step(sim::kFnvOffset, value);
      expect_same_step(0x123456789abcdef0ULL, value);
    }
  }
}

TEST(FnvFold, StateHasherAndTraceHashShareTheStep) {
  sim::StateHasher hasher{7};
  std::uint64_t ref = reference_word(sim::kFnvOffset, 7);
  hasher.feed_bool(true);
  ref = reference_word(ref, 1);
  hasher.feed_time(sim::Time::ms(60));
  ref = reference_word(ref, 60'000'000);
  hasher.feed_time(sim::Time::max());
  ref = reference_word(ref, static_cast<std::uint64_t>(
                                sim::Time::max().to_ns()));
  EXPECT_EQ(hasher.digest(), ref);
  EXPECT_EQ(check::fnv1a(check::kFnvOffset, 0xabcdef),
            reference_word(sim::kFnvOffset, 0xabcdef));
}

// --- sparse state feeds see every id ----------------------------------------

/// One standalone node (id 0 of an n = 8 scenario) that never runs: two
/// of them are in identical states until a test touches one.
struct Universe {
  sim::Engine engine;
  can::Bus bus{engine};
  Node node{bus, 0, Params{}};

  [[nodiscard]] std::uint64_t digest() const {
    sim::StateHasher h;
    node.hash_state(h);
    return h.digest();
  }
  /// A remote frame from the bus, as the controller hands it upward.
  void receive_remote(const Mid& mid) {
    node.controller().bus_rx_deliver(
        can::Frame::make_remote(mid.encode(), 0, can::IdFormat::kExtended),
        false);
  }
};

template <typename Component>
std::uint64_t component_digest(const Component& c) {
  sim::StateHasher h;
  c.hash_state(h);
  return h.digest();
}

constexpr auto kTopNode = static_cast<can::NodeId>(can::kMaxNodes - 1);

TEST(StateDigest, IdenticalUniversesHashEqual) {
  Universe a;
  Universe b;
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StateDigest, FdSurveillanceOfTheHighestIdIsFed) {
  Universe a;
  Universe b;
  a.node.fd().fd_can_req_start(kTopNode);  // monitored + armed alarm
  EXPECT_NE(a.digest(), b.digest());
}

TEST(StateDigest, FdaCountersOfTheHighestIdAreFed) {
  // fs_nreq: a failure-sign request (it also queues the frame, so the
  // FDA digest alone isolates the counter).
  Universe a;
  Universe b;
  a.node.fda().fda_can_req(kTopNode);
  ASSERT_EQ(a.node.fda().fs_nreq(kTopNode), 1);
  EXPECT_NE(component_digest(a.node.fda()), component_digest(b.node.fda()));
  EXPECT_NE(a.digest(), b.digest());

  // fs_ndup: a received failure-sign, with the echo off so that only
  // the duplicate counter moves in the FDA state.
  Universe c;
  Universe d;
  c.node.fda().set_agreement(false);
  d.node.fda().set_agreement(false);
  c.receive_remote(Mid{MsgType::kFda, 0, kTopNode});
  ASSERT_EQ(c.node.fda().fs_ndup(kTopNode), 1);
  ASSERT_EQ(c.node.fda().fs_nreq(kTopNode), 0);
  EXPECT_NE(component_digest(c.node.fda()), component_digest(d.node.fda()));
  EXPECT_NE(c.digest(), d.digest());
}

TEST(StateDigest, AnnouncementForTheHighestGroupIsFed) {
  Universe a;
  Universe b;
  a.receive_remote(Mid{MsgType::kGroupJoin, 255, 5});
  EXPECT_NE(a.digest(), b.digest());
  // Same number of announced groups, different members of group 255:
  // the entry itself is fed, not only the count.
  b.receive_remote(Mid{MsgType::kGroupJoin, 255, 6});
  EXPECT_NE(a.digest(), b.digest());
  // Leaving again restores the state, and with it the digest.
  a.receive_remote(Mid{MsgType::kGroupLeave, 255, 5});
  b.receive_remote(Mid{MsgType::kGroupLeave, 255, 6});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StateDigest, PeriodicStreamOfTheHighestIdIsFed) {
  Universe a;
  Universe b;
  a.node.start_periodic(255, sim::Time::ms(10), std::vector<std::uint8_t>{7});
  EXPECT_NE(a.digest(), b.digest());
  // One active stream each, differing only in stream 255's payload.
  b.node.start_periodic(255, sim::Time::ms(10), std::vector<std::uint8_t>{8});
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace canely::testing
