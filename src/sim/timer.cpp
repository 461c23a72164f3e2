#include "sim/timer.hpp"

#include <utility>

// canely-lint: hot-path
// (whole file: every protocol timer start/fire/restart/cancel runs
// through here; slots + free list + heap keep it allocation-free in
// steady state)

namespace canely::sim {

namespace {
constexpr TimerId encode(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<TimerId>(slot) + 1) << 32 | gen;
}
}  // namespace

std::uint32_t TimerService::armed_slot(TimerId id) const {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > s_.slots.size()) return kNoSlot;
  const auto s = static_cast<std::uint32_t>(hi - 1);
  const Slot& slot = s_.slots[s];
  if (slot.pos == kNoSlot || slot.gen != static_cast<std::uint32_t>(id)) {
    return kNoSlot;
  }
  return s;
}

void TimerService::release(std::uint32_t s) {
  Slot& slot = s_.slots[s];
  slot.pos = kNoSlot;
  slot.next_free = s_.free_head;
  s_.free_head = s;
}

void TimerService::sift_up(std::uint32_t i) {
  const Armed a = s_.heap[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!(a.at < s_.heap[parent].at)) break;
    heap_set(i, s_.heap[parent]);
    i = parent;
  }
  heap_set(i, a);
}

void TimerService::sift_down(std::uint32_t i) {
  const Armed a = s_.heap[i];
  const auto n = static_cast<std::uint32_t>(s_.heap.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && s_.heap[child + 1].at < s_.heap[child].at) ++child;
    if (!(s_.heap[child].at < a.at)) break;
    heap_set(i, s_.heap[child]);
    i = child;
  }
  heap_set(i, a);
}

void TimerService::heap_erase(std::uint32_t i) {
  const Armed last = s_.heap.back();
  s_.heap.pop_back();
  if (i == s_.heap.size()) return;
  const bool up = last.at < s_.heap[i].at;
  heap_set(i, last);
  if (up) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void TimerService::move_wake() {
  if (s_.heap.empty()) {
    engine_.cancel(s_.wake);
    s_.wake = EventId{};
    s_.wake_at = Ticket{};
    return;
  }
  const Ticket due = s_.heap.front().at;
  if (s_.wake.valid()) {
    if (s_.wake_at < due) {
      s_.wake = engine_.postpone(s_.wake, due);
      s_.wake_at = due;
      return;
    }
    engine_.cancel(s_.wake);  // an earlier minimum: the entry must move up
  }
  s_.wake = engine_.schedule_at(due, [this] { on_wake(); });
  s_.wake_at = due;
}

void TimerService::on_wake() {
  s_.wake = EventId{};  // this event is being dispatched
  s_.wake_at = Ticket{};
  const std::uint32_t s = s_.heap.front().slot;
  heap_erase(0);
  Callback cb = std::move(s_.cbs[s]);
  // Release and re-arm the wake before invoking, so the callback
  // observes the timer as inactive and may start, restart or cancel
  // alarms — including reusing this slot under a fresh generation.
  release(s);
  sync_wake();
  cb();  // may reallocate s_.slots and s_.heap
}

TimerId TimerService::start_alarm(Time duration, Callback on_expiry) {
  const Ticket at = engine_.ticket(engine_.now() + duration);
  std::uint32_t s;
  if (s_.free_head != kNoSlot) {
    s = s_.free_head;
    s_.free_head = s_.slots[s].next_free;
  } else {
    s_.slots.emplace_back();
    s_.cbs.emplace_back();
    s = static_cast<std::uint32_t>(s_.slots.size() - 1);
  }
  Slot& slot = s_.slots[s];
  ++slot.gen;
  s_.cbs[s] = std::move(on_expiry);
  s_.heap.push_back(Armed{at, s});
  sift_up(static_cast<std::uint32_t>(s_.heap.size() - 1));
  sync_wake();
  return encode(s, slot.gen);
}

bool TimerService::restart_alarm(TimerId id, Time duration) {
  const std::uint32_t s = armed_slot(id);
  if (s == kNoSlot) return false;
  const Ticket at = engine_.ticket(engine_.now() + duration);
  const std::uint32_t i = s_.slots[s].pos;
  const bool up = at < s_.heap[i].at;
  s_.heap[i].at = at;
  if (up) {
    sift_up(i);
  } else {
    sift_down(i);
  }
  sync_wake();
  return true;
}

bool TimerService::cancel_alarm(TimerId id) {
  const std::uint32_t s = armed_slot(id);
  if (s == kNoSlot) return false;
  heap_erase(s_.slots[s].pos);
  s_.cbs[s].reset();
  release(s);
  sync_wake();
  return true;
}

Time TimerService::deadline(TimerId id) const {
  const std::uint32_t s = armed_slot(id);
  return s == kNoSlot ? Time::max() : s_.heap[s_.slots[s].pos].at.t;
}

void TimerService::cancel_all() {
  for (const Armed& a : s_.heap) {
    s_.cbs[a.slot].reset();
    release(a.slot);
  }
  s_.heap.clear();
  sync_wake();
}

}  // namespace canely::sim
