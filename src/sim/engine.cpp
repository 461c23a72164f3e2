#include "sim/engine.hpp"

#include <utility>

// canely-lint: hot-path
// (whole file: the schedule→dispatch loop is the simulator's innermost
// loop and must stay allocation-free — DESIGN.md §8)

namespace canely::sim {

bool Engine::dispatch_next() {
  while (const QEntry* pe = queue_.peek()) {
    const QEntry e = *pe;
    queue_.pop();
    Slot& slot = slot_ref(e.slot());
    if (slot.cur_seq != e.seq_lo()) {
      if (postponed(slot, e)) rekey(slot, e.slot());
      continue;  // otherwise cancelled; stale entry
    }
    slot.cur_seq = 0;
    --live_;
    now_ = e.t;
    ++dispatched_;
    slot.cb();  // chunk storage is stable: safe even if it schedules
    slot.cb.reset();
    free_slot(e.slot());
    return true;
  }
  return false;
}

std::size_t Engine::run_until(Time t) {
  stopped_ = false;
  std::size_t n = 0;
  // One flat loop instead of peek + dispatch_next(): each entry is
  // popped and checked exactly once.  Stale (cancelled) entries are
  // dropped no matter their timestamp; a live or postponed entry past
  // `t` ends the run (it stays queued — only peek() was read), so the
  // re-key count does not depend on how a run is split into horizons.
  // `stopped_` can only change inside a callback, so it is tested after
  // dispatch rather than on every queue probe.
  while (const QEntry* pe = queue_.peek()) {
    const QEntry e = *pe;
    Slot& slot = slot_ref(e.slot());  // one lookup serves liveness + dispatch
    if (slot.cur_seq != e.seq_lo()) {
      if (!postponed(slot, e)) {
        queue_.pop();  // cancelled; stale entry
        continue;
      }
      if (e.t > t) break;
      queue_.pop();
      rekey(slot, e.slot());
      continue;
    }
    if (e.t > t) break;
    queue_.pop();
    slot.cur_seq = 0;
    --live_;
    now_ = e.t;
    ++dispatched_;
    slot.cb();  // chunk storage is stable: safe even if it schedules
    slot.cb.reset();
    free_slot(e.slot());
    ++n;
    if (stopped_) break;
  }
  if (now_ < t) now_ = t;
  return n;
}

std::size_t Engine::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && dispatch_next()) ++n;
  return n;
}

}  // namespace canely::sim
