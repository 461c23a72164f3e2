#include "sim/engine.hpp"

#include <utility>

// canely-lint: hot-path
// (whole file: the schedule→dispatch loop is the simulator's innermost
// loop and must stay allocation-free — DESIGN.md §8)

namespace canely::sim {

bool Engine::dispatch_next() {
  while (const QEntry* pe = s_.queue.peek()) {
    const QEntry e = *pe;
    s_.queue.pop();
    Slot& slot = slot_ref(e.slot());
    if (slot.cur_seq != e.seq_lo()) {
      if (postponed(slot, e)) rekey(slot, e.slot());
      continue;  // otherwise cancelled; stale entry
    }
    slot.cur_seq = 0;
    --s_.live;
    s_.now = e.t;
    ++s_.dispatched;
    slot.cb();  // chunk storage is stable: safe even if it schedules
    slot.cb.reset();
    free_slot(e.slot());
    return true;
  }
  return false;
}

std::size_t Engine::run_until(Time t) {
  s_.stopped = false;
  std::size_t n = 0;
  // One flat loop instead of peek + dispatch_next(): each entry is
  // popped and checked exactly once.  Stale (cancelled) entries are
  // dropped no matter their timestamp; a live or postponed entry past
  // `t` ends the run (it stays queued — only peek() was read), so the
  // re-key count does not depend on how a run is split into horizons.
  // `s_.stopped` can only change inside a callback, so it is tested after
  // dispatch rather than on every queue probe.
  while (const QEntry* pe = s_.queue.peek()) {
    const QEntry e = *pe;
    Slot& slot = slot_ref(e.slot());  // one lookup serves liveness + dispatch
    if (slot.cur_seq != e.seq_lo()) {
      if (!postponed(slot, e)) {
        s_.queue.pop();  // cancelled; stale entry
        continue;
      }
      if (e.t > t) break;
      s_.queue.pop();
      rekey(slot, e.slot());
      continue;
    }
    if (e.t > t) break;
    s_.queue.pop();
    slot.cur_seq = 0;
    --s_.live;
    s_.now = e.t;
    ++s_.dispatched;
    slot.cb();  // chunk storage is stable: safe even if it schedules
    slot.cb.reset();
    free_slot(e.slot());
    ++n;
    if (s_.stopped) break;
  }
  // A stop() leaves now() at the event that requested it, so a later
  // run_*() call continues from exactly where this one returned.
  if (!s_.stopped && s_.now < t) s_.now = t;
  return n;
}

std::size_t Engine::run() {
  s_.stopped = false;
  std::size_t n = 0;
  while (!s_.stopped && dispatch_next()) ++n;
  return n;
}

}  // namespace canely::sim
