#pragma once
// Prefix-replay cache for the explorer's depth-2 pipeline.
//
// Every depth-2 placement shares its base (first-fault) script with all
// other placements derived from the same base.  The probe run for that
// base — the tx log enumerating injectable attempts, the judge-time
// state samples the dedup keys on, and the probe's own verdict, which
// units that rejoin the base trajectory inherit — is therefore pure
// reuse: computing it once per base instead of once per placement
// removes the dominant cost of naive depth-2 exploration (re-simulating
// the shared prefix from zero).
//
// The cache is an LRU over full probe results, keyed by the base script's
// content hash.  Cell payloads live in one sim::Arena per slot: eviction
// is an arena reset (blocks retained), so a warmed cache performs no
// allocation in steady state.  The cache is owned and touched by the
// explorer's coordinator thread only — probe *execution* fans out to the
// campaign workers, insertion of results does not.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "check/fault_script.hpp"
#include "check/harness.hpp"
#include "sim/arena.hpp"

namespace canely::check {

/// Content hash of a fault script (prefix-cache key).  Scripts are equal
/// iff they drive byte-identical runs, so equal hashes (modulo the usual
/// 64-bit caveat) identify a shared prefix.
[[nodiscard]] std::uint64_t hash_script(const FaultScript& script);

/// One cached probe: the per-attempt targeting map of a base run, and
/// its trajectory — the judge-time state samples the dedup keys on, its
/// script end and its verdict, which units that rejoin it inherit.
/// Spans point into the owning cache slot and stay valid until that slot
/// is evicted.
struct PrefixProbe {
  std::span<const TxLogEntry> tx_log;
  RejoinTarget trajectory;
};

/// LRU-bounded cache of base-run probes.
class PrefixCache {
 public:
  /// `capacity`: maximum live slots (>= 1 enforced).
  explicit PrefixCache(std::size_t capacity);
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// Look up the probe for `key`.  Counts a hit or a miss; refreshes the
  /// slot's LRU position on hit.  Returns nullptr when absent.
  [[nodiscard]] const PrefixProbe* find(std::uint64_t key);

  /// Copy a probe into the cache under `key`, evicting the least recently
  /// used slot if full.  Returns the cached view (valid until this slot
  /// is evicted by a later insert).
  const PrefixProbe* insert(std::uint64_t key,
                            const std::vector<TxLogEntry>& tx_log,
                            const std::vector<StateSample>& samples,
                            const std::vector<Violation>& violations = {},
                            std::uint64_t script_end = 0);

  /// The probe whose slot the next insert of a new key overwrites (null
  /// while the cache has room).
  [[nodiscard]] const PrefixProbe* next_eviction() const;

  struct Stats {
    std::uint64_t hits{};
    std::uint64_t misses{};
    std::uint64_t evictions{};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    std::uint64_t key{};
    std::uint64_t last_used{};
    std::unique_ptr<sim::Arena> arena;
    std::vector<Violation> violations;  // not trivially destructible
    PrefixProbe probe;
  };

  [[nodiscard]] std::size_t lru_slot() const;

  std::size_t capacity_;
  std::uint64_t tick_{0};
  std::vector<Slot> slots_;               // stable: reserved to capacity
  std::map<std::uint64_t, std::size_t> index_;  // key -> slot position
  Stats stats_;
};

}  // namespace canely::check
