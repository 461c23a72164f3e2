#pragma once
// Per-node alarm service, mirroring the `start alarm` / `cancel alarm`
// primitives used throughout the paper's pseudo-code (Figures 7, 8, 9).
//
// Each protocol entity owns a TimerService; a timer is identified by a
// TimerId ("tid" in the paper), with kNullTimer playing the role of the
// pseudo-code's `tid := NULL`.
//
// One engine event per service.  Every alarm takes an engine Ticket when
// it is started or restarted, so it owns the (time, seq) position an
// engine event of its own would have had.  The armed alarms sit in an
// indexed min-heap on that position, and the service keeps a single
// engine event, its *wake*, at the heap minimum.  Starting, restarting
// or cancelling an alarm that is not (and does not become) the minimum
// never touches the engine; a new later minimum costs one
// Engine::postpone(), an earlier one a cancel plus a schedule at the
// reserved ticket.  Because the wake always sits exactly where the
// minimum alarm's own event would be, the global dispatch order is
// the one an event-per-alarm service produces (DESIGN.md §8).
//
// Storage is a slot vector recycled through a free list — the same
// (slot, generation) scheme as the engine's event pool, so every
// operation is an index instead of a hash lookup, and arming an alarm
// never heap-allocates in steady state.  A slot's 12 bytes of
// bookkeeping live apart from its 64-byte callback, so sifting the heap
// (which rewrites the moved entries' positions) stays within a few
// cache lines.

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace canely::sim {

/// Opaque timer identifier.  0 is the distinguished "no timer" value.
/// Encodes (slot + 1, generation); stale ids from fired or cancelled
/// alarms are rejected by the generation check, never recycled.
using TimerId = std::uint64_t;
inline constexpr TimerId kNullTimer = 0;

/// One-shot alarms on top of the discrete-event engine.
class TimerService {
 public:
  using Callback = sim::Callback;

  /// `capacity`: the concurrent alarm count the owner expects.  The
  /// storage is sized for it once, instead of regrowing from empty in
  /// every run; more alarms still work, growing as before.
  explicit TimerService(Engine& engine, std::size_t capacity = 0)
      : engine_{engine} {
    slots_.reserve(capacity);
    cbs_.reserve(capacity);
    heap_.reserve(capacity);
  }
  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// Start a one-shot alarm that fires `duration` from now.
  /// The expiry callback runs at most once; the timer is considered
  /// inactive from the moment the callback begins executing.
  TimerId start_alarm(Time duration, Callback on_expiry);

  /// Re-arm a pending alarm to fire `duration` from now, keeping its
  /// id and callback.  Orders exactly like cancel_alarm() followed by
  /// start_alarm() with the same callback.  Returns false, doing
  /// nothing, if `id` is not pending.
  bool restart_alarm(TimerId id, Time duration);

  /// Cancel a pending alarm; no-op (returns false) if it already fired,
  /// was cancelled, or `id` is kNullTimer.
  bool cancel_alarm(TimerId id);

  /// True while the alarm is pending.
  [[nodiscard]] bool active(TimerId id) const {
    return armed_slot(id) != kNoSlot;
  }

  /// Expiry instant of a pending alarm; Time::max() if not pending.
  [[nodiscard]] Time deadline(TimerId id) const;

  /// Number of pending alarms.
  [[nodiscard]] std::size_t pending_count() const { return heap_.size(); }

  /// Cancel every pending alarm (used when a node crashes).
  void cancel_all();

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFF;

  struct Slot {
    std::uint32_t gen{0};
    std::uint32_t pos{kNoSlot};  // index in heap_ while armed
    std::uint32_t next_free{kNoSlot};
  };

  // Heap entries carry their key, so sifting never reads a Slot.
  struct Armed {
    Ticket at;
    std::uint32_t slot;
  };

  [[nodiscard]] std::uint32_t armed_slot(TimerId id) const;
  void release(std::uint32_t s);
  void heap_set(std::uint32_t i, const Armed& a) {
    heap_[i] = a;
    slots_[a.slot].pos = i;
  }
  void sift_up(std::uint32_t i);
  void sift_down(std::uint32_t i);
  void heap_erase(std::uint32_t i);
  // Keep the wake at the heap minimum.  Called after every change to the
  // armed set; the common case — the minimum did not change — is one
  // compare (sequence numbers are unique, so equal seq = equal ticket).
  void sync_wake() {
    if (heap_.empty() || heap_.front().at.seq != wake_at_.seq) move_wake();
  }
  void move_wake();
  void on_wake();

  Engine& engine_;
  std::vector<Slot> slots_;   // grows to the max concurrent alarm count
  std::vector<Callback> cbs_;  // expiry callbacks, indexed like slots_
  std::vector<Armed> heap_;   // min-heap on Armed::at
  std::uint32_t free_head_{kNoSlot};
  EventId wake_{};            // engine event at heap_[0].at, if any
  Ticket wake_at_{};          // where wake_ dispatches; seq 0 = no wake
};

}  // namespace canely::sim
