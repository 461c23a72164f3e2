// Tests for the shared FNV-1a word step (sim/hash.hpp): the zero-high-
// byte fold must produce exactly the digest of the byte-wise loop, since
// equivalence keys, frontier records and aggregate hashes are all built
// on it and are compared byte for byte across versions.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "check/harness.hpp"
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

}  // namespace
}  // namespace canely::testing
