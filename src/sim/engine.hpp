#pragma once
// Deterministic discrete-event engine.
//
// Every component of the reproduction — CAN bus, controllers, protocol
// timers, traffic generators, fault injectors — schedules work on a single
// `Engine`.  Determinism rule: two events scheduled for the same instant
// fire in scheduling order (FIFO, via a monotonically increasing sequence
// number).  A whole run is therefore a pure function of its inputs, which
// the property-test suites rely on.
//
// Internals (DESIGN.md "Engine internals"): callbacks live in pooled
// slots recycled through a free list; slots are stored in fixed-size
// chunks whose addresses never move, so dispatch invokes the callback
// in place instead of moving the 48-byte payload out first.  The
// priority queue holds only 16-byte POD entries ordered by (time, seq).
// An EventId encodes (slot, generation): cancel() bumps nothing but
// frees the slot, and the stale queue entry is skipped at pop time when
// its generation no longer matches (lazy deletion, exactly as the seed
// implementation skipped seqs missing from its live-set — dispatch
// order is unchanged).  With the small-buffer `sim::Callback` payload,
// steady-state schedule->dispatch performs no heap allocation.
//
// A `Ticket` is a dispatch position reserved ahead of scheduling:
// ticket() consumes one sequence number exactly as schedule_at() does,
// and schedule_at(Ticket) / postpone() place an event there later.
// This is what lets sim::TimerService keep one engine event per service
// while every alarm still dispatches at the (time, seq) it would have
// had as an event of its own.  postpone() is lazy: the queued entry
// stays where it is and is re-keyed to the new position when it
// surfaces, which is neither a dispatch nor a change to pending().

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace canely::sim {

/// Handle returned by Engine::schedule_*; usable to cancel the event.
/// Opaque: encodes the event's pool slot and a generation tag (the
/// scheduling sequence number's low 32 bits).  A handle outlives its
/// event safely — cancel() on a dispatched, cancelled, or recycled slot
/// sees a generation mismatch and returns false.
struct EventId {
  std::uint64_t raw{0};
  [[nodiscard]] constexpr bool valid() const { return raw != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;
};

/// A reserved dispatch position: instant `t` and the sequence number
/// that orders it among same-instant events.  Issued by Engine::ticket()
/// from the counter schedule_at() uses, so an event placed at a ticket
/// dispatches exactly where one scheduled at ticket time would have.
struct Ticket {
  Time t;
  std::uint64_t seq{0};
  friend constexpr bool operator<(const Ticket& a, const Ticket& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }
};

/// Single-threaded discrete-event simulation engine.
class Engine {
 public:
  using Callback = sim::Callback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Reserve the dispatch position of an event at absolute time `t`
  /// (>= now()).  Consumes one sequence number, as schedule_at() does.
  [[nodiscard]] Ticket ticket(Time t) {
    if (t < now_) throw std::logic_error("Engine::ticket: time in the past");
    return Ticket{t, next_seq_++};
  }

  /// Schedule `cb` to run at absolute time `t` (>= now()).
  /// Defined inline: schedule/cancel are the simulator's hottest calls
  /// and must fold into their call sites.  The callable is constructed
  /// directly in the event slot — no intermediate Callback move.
  template <typename F, typename = std::enable_if_t<
                            std::is_constructible_v<Callback, F&&>>>
  EventId schedule_at(Time t, F&& cb) {
    reject_empty(cb);  // before ticket(): a rejected call consumes no seq
    return place(ticket(t), std::forward<F>(cb));
  }

  /// Schedule `cb` at a position reserved earlier by ticket().  Each
  /// ticket places at most one event; its instant must not have passed.
  template <typename F, typename = std::enable_if_t<
                            std::is_constructible_v<Callback, F&&>>>
  EventId schedule_at(Ticket tk, F&& cb) {
    if (tk.t < now_) {
      throw std::logic_error("Engine::schedule_at: ticket in the past");
    }
    reject_empty(cb);
    return place(tk, std::forward<F>(cb));
  }

  /// Schedule `cb` to run `delay` after now().
  template <typename F, typename = std::enable_if_t<
                            std::is_constructible_v<Callback, F&&>>>
  EventId schedule_after(Time delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancel a pending event.  Returns false if it already ran, was already
  /// cancelled, or the id is invalid.  An event is cancellable exactly
  /// while its slot is armed under the handle's generation; disarming
  /// both reports success and makes dispatch skip the stale queue entry
  /// when it surfaces (lazy deletion).
  bool cancel(EventId id) {
    const std::uint32_t s = armed_slot(id);
    if (s == kNoSlot) return false;
    Slot& slot = slot_ref(s);
    slot.cb.reset();  // release captured resources now, not at slot reuse
    slot.cur_seq = 0;
    queue_.remove_staged(static_cast<std::uint64_t>(slot.link) << 32 | s);
    free_slot(s);
    --live_;
    return true;
  }

  /// Move a pending event to the later position `to`, keeping its
  /// callback.  Returns the event's new handle (the old one goes stale,
  /// as after a dispatch), or an invalid id if `id` is not pending.  The
  /// queued entry is not touched: when it surfaces it is re-keyed to
  /// `to` (counted by rekeys(), not by dispatched()), so postponing is
  /// O(1) however often it happens before then.
  EventId postpone(EventId id, Ticket to) {
    const std::uint32_t s = armed_slot(id);
    if (s == kNoSlot) return EventId{};
    Slot& slot = slot_ref(s);
    const auto seq_lo = static_cast<std::uint32_t>(to.seq);
    if (!before(slot.due, slot.cur_seq, to.t, seq_lo)) {
      throw std::logic_error("Engine::postpone: position is not later");
    }
    slot.due = to.t;
    slot.cur_seq = seq_lo;
    return EventId{encode(s, seq_lo)};
  }

  /// Run all events with timestamp <= `t`; afterwards now() == max(t, now).
  /// Returns the number of events dispatched.
  std::size_t run_until(Time t);

  /// Run for a further duration `d` of simulated time.
  std::size_t run_for(Time d) { return run_until(now_ + d); }

  /// Run until the event queue drains (or stop() is called).
  std::size_t run();

  /// Request the current run_*() call to return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events dispatched since construction.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Number of live (non-cancelled) events still queued.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Entries pushed into the event queue: one per scheduled event plus
  /// one per re-key.
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }

  /// Postponed entries that surfaced and were re-keyed to their new
  /// position without dispatching.
  [[nodiscard]] std::uint64_t rekeys() const { return rekeys_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFF;

  // EventId layout: (slot + 1) in the high 32 bits — so 0 stays the
  // distinguished invalid handle — and the slot generation in the low 32.
  static constexpr std::uint64_t encode(std::uint32_t slot,
                                        std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }

  // 80 bytes: the 64-byte Callback plus 16 bytes of bookkeeping.
  // cur_seq doubles as the armed flag and the generation tag: 0 =
  // free/disarmed (seq numbers start at 1), otherwise the low 32 bits of
  // the sequence number the event dispatches at.  `link` is the next
  // free slot while the slot is free; while it is armed it holds the
  // seq of the slot's queue entry, which differs from cur_seq only
  // after postpone() — that entry is then re-keyed to (due, cur_seq).
  struct Slot {
    Callback cb;
    Time due{};
    std::uint32_t cur_seq{0};
    std::uint32_t link{kNoSlot};
  };
  static_assert(sizeof(Slot) == 80, "event slot layout changed");

  // What the priority queue actually shuffles: 16 trivially copyable
  // bytes — no callback, so a sift level is one SSE move, and four
  // entries share a cache line.  `key` packs (seq_lo << 32 | slot).
  struct QEntry {
    Time t;
    std::uint64_t key;
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key);
    }
    [[nodiscard]] std::uint32_t seq_lo() const {
      return static_cast<std::uint32_t>(key >> 32);
    }
  };

  // Strict total dispatch order.  FIFO tie-break on the truncated
  // sequence number: wraparound-safe subtraction, exact as long as
  // same-instant events coexisting in the queue span fewer than 2^31
  // schedule calls — which a queue that fits in memory always satisfies.
  static bool before(Time ta, std::uint32_t sa, Time tb, std::uint32_t sb) {
    if (ta != tb) return ta < tb;
    return static_cast<std::int32_t>(sa - sb) < 0;
  }
  static bool before(const QEntry& a, const QEntry& b) {
    return before(a.t, a.seq_lo(), b.t, b.seq_lo());
  }

  // Two-level priority queue: a small unordered staging array in front
  // of a binary heap.  Most simulation events are dispatched or
  // cancelled soon after they are scheduled, so they enter and leave
  // through the staging array and never pay the heap's sift costs; the
  // heap only absorbs overflow when more than kStage events are in
  // flight.  push() is a branch-free append; top() finds the staging
  // minimum with a conditional-move scan — with randomized timestamps
  // an insertion sort mispredicts its shift length on nearly every
  // push, and those flushes cost more than a short branchless scan.
  // Dispatch order is identical to a single heap: `before` is one
  // strict total order with no ties ((time, seq) pairs are unique), so
  // *any* correct priority queue extracts the same sequence, and top()
  // always compares the staging minimum against the heap minimum.
  class EventQueue {
   public:
    [[nodiscard]] bool empty() const {
      return stage_n_ == 0 && heap_.empty();
    }
    void push(const QEntry& e) {
      if (stage_n_ == kStage) flush();
      stage_[stage_n_++] = e;  // append: no shift, no data-dependent branch
    }
    // peek() records which structure holds the minimum so pop()
    // doesn't repeat the scan.  Contract: pop() must directly follow a
    // peek() call with no intervening push() — which is how the
    // engine's dispatch loops use the queue.
    [[nodiscard]] const QEntry& top() { return *peek(); }
    /// top() and empty() folded into one read: nullptr when empty.
    [[nodiscard]] const QEntry* peek() {
      if (stage_n_ == 0) {
        top_in_stage_ = false;
        return heap_.empty() ? nullptr : &heap_.front();
      }
      std::size_t best = 0;
      for (std::size_t i = 1; i < stage_n_; ++i) {
        if (before(stage_[i], stage_[best])) best = i;
      }
      if (!heap_.empty() && before(heap_.front(), stage_[best])) {
        top_in_stage_ = false;
        return &heap_.front();
      }
      top_in_stage_ = true;
      top_idx_ = best;
      return &stage_[best];
    }
    void pop() {  // removes top()
      if (top_in_stage_) {
        stage_[top_idx_] = stage_[--stage_n_];  // swap-remove: order-free
        return;
      }
      std::pop_heap(heap_.begin(), heap_.end(), after);
      heap_.pop_back();
    }
    // Eagerly drop a cancelled event if it still sits in staging.  A
    // cancel usually follows its schedule closely (a timer service
    // dropping its last alarm, a bus aborting a transmission), so this
    // keeps stale entries out of every later peek() scan; a miss means
    // the entry overflowed to the heap and stays lazily deleted there.
    bool remove_staged(std::uint64_t key) {
      for (std::size_t i = 0; i < stage_n_; ++i) {
        if (stage_[i].key == key) {
          stage_[i] = stage_[--stage_n_];
          return true;
        }
      }
      return false;
    }

   private:
    static constexpr std::size_t kStage = 16;
    static bool after(const QEntry& a, const QEntry& b) {
      return before(b, a);
    }
    void flush() {
      for (std::size_t i = 0; i < stage_n_; ++i) {
        heap_.push_back(stage_[i]);
        std::push_heap(heap_.begin(), heap_.end(), after);
      }
      stage_n_ = 0;
    }
    QEntry stage_[kStage];
    std::size_t stage_n_{0};
    std::size_t top_idx_{0};
    bool top_in_stage_{false};
    std::vector<QEntry> heap_;
  };

  bool dispatch_next();  // pops and runs one live event; false if none.

  // Throws on an empty Callback; raw callables are never empty.
  template <typename F>
  static void reject_empty(const F& cb) {
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      if (!cb) throw std::logic_error("Engine::schedule_at: empty callback");
    }
  }

  template <typename F>
  EventId place(Ticket tk, F&& cb) {
    const auto seq_lo = static_cast<std::uint32_t>(tk.seq);
    const std::uint32_t s = alloc_slot();
    Slot& slot = slot_ref(s);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slot.cb = std::forward<F>(cb);
    } else {
      slot.cb.emplace(std::forward<F>(cb));
    }
    slot.due = tk.t;
    slot.cur_seq = seq_lo;
    slot.link = seq_lo;
    queue_.push(QEntry{tk.t, static_cast<std::uint64_t>(seq_lo) << 32 | s});
    ++pushes_;
    ++live_;
    return EventId{encode(s, seq_lo)};
  }

  // The slot `id` names if its event is still pending, else kNoSlot.
  [[nodiscard]] std::uint32_t armed_slot(EventId id) const {
    const std::uint64_t hi = id.raw >> 32;
    if (hi == 0 || hi > slot_count_) return kNoSlot;
    const auto s = static_cast<std::uint32_t>(hi - 1);
    const auto lo = static_cast<std::uint32_t>(id.raw);
    if (lo == 0 || slot_ref(s).cur_seq != lo) return kNoSlot;
    return s;
  }

  // A surfaced entry whose seq is not its slot's cur_seq is either stale
  // (the event was cancelled or dispatched) or the entry of a postponed
  // event, which is re-queued at its new position.
  [[nodiscard]] static bool postponed(const Slot& slot, const QEntry& e) {
    return slot.cur_seq != 0 && slot.link == e.seq_lo();
  }
  void rekey(Slot& slot, std::uint32_t s) {
    slot.link = slot.cur_seq;
    queue_.push(
        QEntry{slot.due, static_cast<std::uint64_t>(slot.cur_seq) << 32 | s});
    ++pushes_;
    ++rekeys_;
  }

  // Slots live in fixed-size chunks; growing appends a chunk and never
  // moves an existing Slot.  Stable addresses let dispatch invoke the
  // callback in place — a scheduling callback may grow the pool under
  // its own feet without invalidating the reference it runs from.
  // Chunks are small (32 slots, 2.5 KB): a CANELy run's queue peaks at
  // n + 1 events, so a bigger first chunk would only be zero-filled and
  // freed again by every short run, while a pool of thousands of
  // pending events still grows one malloc per 32 slots.
  static constexpr std::uint32_t kChunkBits = 5;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  // First-chunk fast path: most runs never outgrow the first chunk, and
  // its address is stable for the Engine's lifetime, so one cached
  // pointer replaces the vector -> unique_ptr -> slot load chain with a
  // single perfectly-predicted branch and one load.
  [[nodiscard]] Slot& slot_ref(std::uint32_t s) {
    return s < kChunkSize ? chunk0_[s]
                          : chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_ref(std::uint32_t s) const {
    return s < kChunkSize ? chunk0_[s]
                          : chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }
  std::uint32_t alloc_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = slot_ref(s).link;
      return s;
    }
    if ((slot_count_ & (kChunkSize - 1)) == 0) {
      // canely-lint: allow(hot-path-transitive) — chunk growth is amortized (every 32nd slot); steady-state scheduling reuses freed slots allocation-free
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      if (slot_count_ == 0) chunk0_ = chunks_.front().get();
    }
    return slot_count_++;
  }
  void free_slot(std::uint32_t s) {
    slot_ref(s).link = free_head_;
    free_head_ = s;
  }

  EventQueue queue_;
  Slot* chunk0_{nullptr};  // cached chunks_[0].get(); address is stable
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // stable slot storage
  std::uint32_t slot_count_{0};    // slots ever allocated (high-water mark)
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
  Time now_{Time::zero()};
  std::uint64_t next_seq_{1};
  std::uint64_t dispatched_{0};
  std::uint64_t pushes_{0};
  std::uint64_t rekeys_{0};
  bool stopped_{false};
};

}  // namespace canely::sim
