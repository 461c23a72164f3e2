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
  if (hi == 0 || hi > slots_.size()) return kNoSlot;
  const auto s = static_cast<std::uint32_t>(hi - 1);
  const Slot& slot = slots_[s];
  if (slot.pos == kNoSlot || slot.gen != static_cast<std::uint32_t>(id)) {
    return kNoSlot;
  }
  return s;
}

void TimerService::release(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.pos = kNoSlot;
  slot.next_free = free_head_;
  free_head_ = s;
}

void TimerService::sift_up(std::uint32_t i) {
  const Armed a = heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!(a.at < heap_[parent].at)) break;
    heap_set(i, heap_[parent]);
    i = parent;
  }
  heap_set(i, a);
}

void TimerService::sift_down(std::uint32_t i) {
  const Armed a = heap_[i];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].at < heap_[child].at) ++child;
    if (!(heap_[child].at < a.at)) break;
    heap_set(i, heap_[child]);
    i = child;
  }
  heap_set(i, a);
}

void TimerService::heap_erase(std::uint32_t i) {
  const Armed last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  const bool up = last.at < heap_[i].at;
  heap_set(i, last);
  if (up) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void TimerService::move_wake() {
  if (heap_.empty()) {
    engine_.cancel(wake_);
    wake_ = EventId{};
    wake_at_ = Ticket{};
    return;
  }
  const Ticket due = heap_.front().at;
  if (wake_.valid()) {
    if (wake_at_ < due) {
      wake_ = engine_.postpone(wake_, due);
      wake_at_ = due;
      return;
    }
    engine_.cancel(wake_);  // an earlier minimum: the entry must move up
  }
  wake_ = engine_.schedule_at(due, [this] { on_wake(); });
  wake_at_ = due;
}

void TimerService::on_wake() {
  wake_ = EventId{};  // this event is being dispatched
  wake_at_ = Ticket{};
  const std::uint32_t s = heap_.front().slot;
  heap_erase(0);
  Callback cb = std::move(cbs_[s]);
  // Release and re-arm the wake before invoking, so the callback
  // observes the timer as inactive and may start, restart or cancel
  // alarms — including reusing this slot under a fresh generation.
  release(s);
  sync_wake();
  cb();  // may reallocate slots_ and heap_
}

TimerId TimerService::start_alarm(Time duration, Callback on_expiry) {
  const Ticket at = engine_.ticket(engine_.now() + duration);
  std::uint32_t s;
  if (free_head_ != kNoSlot) {
    s = free_head_;
    free_head_ = slots_[s].next_free;
  } else {
    slots_.emplace_back();
    cbs_.emplace_back();
    s = static_cast<std::uint32_t>(slots_.size() - 1);
  }
  Slot& slot = slots_[s];
  ++slot.gen;
  cbs_[s] = std::move(on_expiry);
  heap_.push_back(Armed{at, s});
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  sync_wake();
  return encode(s, slot.gen);
}

bool TimerService::restart_alarm(TimerId id, Time duration) {
  const std::uint32_t s = armed_slot(id);
  if (s == kNoSlot) return false;
  const Ticket at = engine_.ticket(engine_.now() + duration);
  const std::uint32_t i = slots_[s].pos;
  const bool up = at < heap_[i].at;
  heap_[i].at = at;
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
  heap_erase(slots_[s].pos);
  cbs_[s].reset();
  release(s);
  sync_wake();
  return true;
}

Time TimerService::deadline(TimerId id) const {
  const std::uint32_t s = armed_slot(id);
  return s == kNoSlot ? Time::max() : heap_[slots_[s].pos].at.t;
}

void TimerService::cancel_all() {
  for (const Armed& a : heap_) {
    cbs_[a.slot].reset();
    release(a.slot);
  }
  heap_.clear();
  sync_wake();
}

}  // namespace canely::sim
