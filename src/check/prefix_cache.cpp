#include "check/prefix_cache.hpp"

#include <algorithm>

namespace canely::check {

std::uint64_t hash_script(const FaultScript& script) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, script.size());
  for (const FaultEvent& e : script) {
    h = fnv1a(h, e.tx);
    h = fnv1a(h, static_cast<std::uint64_t>(e.op));
    h = fnv1a(h, e.victims.bits());
    h = fnv1a(h, e.crash_sender ? 1 : 0);
  }
  return h;
}

PrefixCache::PrefixCache(std::size_t capacity)
    : capacity_{capacity == 0 ? 1 : capacity} {
  slots_.reserve(capacity_);  // slot addresses stay stable for the probe views
}

const PrefixProbe* PrefixCache::find(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  Slot& slot = slots_[it->second];
  slot.last_used = ++tick_;
  return &slot.probe;
}

std::size_t PrefixCache::lru_slot() const {
  std::size_t pos = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].last_used < slots_[pos].last_used) pos = i;
  }
  return pos;
}

const PrefixProbe* PrefixCache::next_eviction() const {
  if (slots_.size() < capacity_) return nullptr;
  return &slots_[lru_slot()].probe;
}

const PrefixProbe* PrefixCache::insert(
    std::uint64_t key, const std::vector<TxLogEntry>& tx_log,
    const std::vector<StateSample>& samples,
    const std::vector<Violation>& violations, std::uint64_t script_end) {
  std::size_t pos;
  if (slots_.size() < capacity_) {
    pos = slots_.size();
    slots_.emplace_back();
    slots_[pos].arena = std::make_unique<sim::Arena>();
  } else {
    pos = lru_slot();
    index_.erase(slots_[pos].key);
    slots_[pos].arena->reset();  // blocks retained: steady state reallocates nothing
    ++stats_.evictions;
  }
  Slot& slot = slots_[pos];
  slot.key = key;
  slot.last_used = ++tick_;
  const std::span<TxLogEntry> log_cell =
      slot.arena->alloc_span<TxLogEntry>(tx_log.size());
  std::copy(tx_log.begin(), tx_log.end(), log_cell.begin());
  const std::span<StateSample> sample_cell =
      slot.arena->alloc_span<StateSample>(samples.size());
  std::copy(samples.begin(), samples.end(), sample_cell.begin());
  slot.violations = violations;
  slot.probe = PrefixProbe{
      log_cell, RejoinTarget{sample_cell, script_end, slot.violations}};
  index_[key] = pos;
  return &slot.probe;
}

}  // namespace canely::check
