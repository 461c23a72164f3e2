#pragma once
// Canonical state hashing for simulation components.
//
// The checker's equivalence dedup (src/check/explore.cpp) collapses fault
// placements whose pre-injection universe state is identical: equal hash +
// equal remaining script implies an identical continuation, because every
// component of a checked run is a deterministic function of its state.
// Components expose `hash_state(sim::StateHasher&) const` methods that feed
// their canonical state — everything that influences future behavior, and
// nothing that doesn't (diagnostic counters, trace history) — into this
// accumulator in a fixed, documented order.
//
// The hash is a seeded byte-wise FNV-1a over typed feeds.  Every feed
// mixes a full 64-bit word, so adjacent fields never alias (a bool is a
// whole word, not one bit), and the digest is a pure function of the fed
// sequence — independent of platform, thread count, and process.  The
// seed keeps independently-keyed hash domains (state classes vs. script
// keys) from colliding structurally.
//
// fnv1a_word() is the one word step every FNV user in the tree shares
// (this accumulator, the checker's trace hash, script and record keys).
// It computes exactly the byte-wise loop, but a zero byte's step is a
// bare multiply (x ^ 0 == x), so the run of zero high bytes that most
// fed words carry — bools, ids, counts, sub-second nanosecond times —
// folds into one multiply by a precomputed power of the prime.

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "sim/time.hpp"

namespace canely::sim {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// kFnvPrimePowers[k] = kFnvPrime^k mod 2^64: k zero-byte steps.
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

/// One FNV-1a step over the 8 little-endian bytes of `value`: the same
/// digest as the byte-wise loop, with the zero high bytes folded into a
/// single multiply.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t hash,
                                                 std::uint64_t value) {
  const int significant = (71 - std::countl_zero(value)) / 8;
  for (int i = 0; i < significant; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash * kFnvPrimePowers[static_cast<std::size_t>(8 - significant)];
}

/// Version of the canonical state encoding the components' hash_state()
/// methods feed.  Bump it whenever a feed changes, even when the dedup
/// partition does not: the digests, and with them the checker's unit
/// keys, move, and the explorer folds this into its frontier
/// fingerprint so a frontier keyed under an older scheme starts fresh.
///   1  dense per-id tables (every id below kMaxNodes, 256 streams/groups)
///   2  sparse FD/FDA feeds: count of non-default ids, then (id, state)
inline constexpr std::uint64_t kStateDigestVersion = 2;

/// Seeded FNV-1a accumulator for canonical component state.
class StateHasher {
 public:
  explicit constexpr StateHasher(std::uint64_t seed = 0) {
    feed(seed);
  }

  /// Mix one 64-bit word, byte-wise little-endian.
  constexpr void feed(std::uint64_t value) {
    hash_ = fnv1a_word(hash_, value);
  }

  constexpr void feed_bool(bool value) { feed(value ? 1 : 0); }

  /// Times feed as their raw nanosecond count; Time::max() (the "timer
  /// not pending" deadline) hashes like any other value, so activeness is
  /// covered by the deadline feed alone.
  constexpr void feed_time(Time t) {
    feed(static_cast<std::uint64_t>(t.to_ns()));
  }

  /// Raw bytes, each mixed as one word (length must be framed by the
  /// caller when ambiguity is possible — feed the count first).
  constexpr void feed_bytes(std::span<const std::uint8_t> bytes) {
    for (std::uint8_t b : bytes) feed(b);
  }

  [[nodiscard]] constexpr std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_{kFnvOffset};
};

}  // namespace canely::sim
