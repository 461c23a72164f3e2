// Unit tests for the discrete-event engine (src/sim/engine.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace canely::sim {
namespace {

TEST(Time, FactoriesAndConversions) {
  EXPECT_EQ(Time::us(1).to_ns(), 1'000);
  EXPECT_EQ(Time::ms(1).to_us(), 1'000);
  EXPECT_EQ(Time::sec(1).to_ms(), 1'000);
  EXPECT_EQ(Time::zero().to_ns(), 0);
  EXPECT_DOUBLE_EQ(Time::ms(30).to_sec_f(), 0.030);
}

TEST(Time, Arithmetic) {
  EXPECT_EQ(Time::ms(2) + Time::ms(3), Time::ms(5));
  EXPECT_EQ(Time::ms(5) - Time::ms(3), Time::ms(2));
  EXPECT_EQ(Time::us(10) * 3, Time::us(30));
  EXPECT_EQ(3 * Time::us(10), Time::us(30));
  EXPECT_EQ(Time::ms(10) / Time::ms(2), 5);
  EXPECT_EQ(Time::ms(10) / 2, Time::ms(5));
  EXPECT_LT(Time::us(999), Time::ms(1));
}

TEST(Time, BitTimeHelpers) {
  EXPECT_EQ(bit_time(1'000'000), Time::us(1));   // 1 Mbps
  EXPECT_EQ(bit_time(50'000), Time::us(20));     // 50 kbps
  EXPECT_EQ(bits_to_time(130, 1'000'000), Time::us(130));
}

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), Time::zero());
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(Time::ms(3), [&] { order.push_back(3); });
  e.schedule_at(Time::ms(1), [&] { order.push_back(1); });
  e.schedule_at(Time::ms(2), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Time::ms(3));
}

TEST(Engine, SameTimeFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(Time::ms(1), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::ms(1), [&] { ++fired; });
  e.schedule_at(Time::ms(10), [&] { ++fired; });
  EXPECT_EQ(e.run_until(Time::ms(5)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), Time::ms(5));  // clock advances even with no event
  EXPECT_EQ(e.run_until(Time::ms(10)), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventAtBoundaryIsIncluded) {
  Engine e;
  bool fired = false;
  e.schedule_at(Time::ms(5), [&] { fired = true; });
  e.run_until(Time::ms(5));
  EXPECT_TRUE(fired);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Time seen = Time::zero();
  e.schedule_at(Time::ms(2), [&] {
    e.schedule_after(Time::ms(3), [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, Time::ms(5));
}

TEST(Engine, CancelPreventsDispatch) {
  Engine e;
  bool fired = false;
  EventId id = e.schedule_at(Time::ms(1), [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceFails) {
  Engine e;
  EventId id = e.schedule_at(Time::ms(1), [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterDispatchFails) {
  Engine e;
  EventId id = e.schedule_at(Time::ms(1), [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelInvalidIdFails) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventId{}));
  EXPECT_FALSE(e.cancel(EventId{12345}));
}

TEST(Engine, CancelOneOfManyLeavesOthersAlive) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::ms(1), [&] { ++fired; });
  EventId victim = e.schedule_at(Time::ms(2), [&] { ++fired; });
  e.schedule_at(Time::ms(3), [&] { ++fired; });
  e.cancel(victim);
  EXPECT_EQ(e.pending(), 2u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(Time::ms(5), [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(Time::ms(1), [] {}), std::logic_error);
}

TEST(Engine, EmptyCallbackThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(Time::ms(1), Engine::Callback{}),
               std::logic_error);
}

TEST(Engine, StopBreaksRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::ms(1), [&] {
    ++fired;
    e.stop();
  });
  e.schedule_at(Time::ms(2), [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  e.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsScheduledDuringDispatchRun) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_after(Time::us(1), recurse);
  };
  e.schedule_at(Time::us(1), recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.dispatched(), 5u);
}

// --- the determinism golden -------------------------------------------------
//
// A pseudo-random schedule/cancel/run interleave whose dispatch order
// (event label + dispatch instant, FNV-1a-mixed) is pinned to a constant
// captured from the seed implementation (PR 1's priority-queue +
// unordered_set engine).  The slot/generation rewrite must preserve the
// dispatch order — and the cancel() return values — bit for bit.
TEST(Engine, GoldenDispatchOrderHash) {
  Engine e;
  Rng rng{0xC0FFEE};
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  std::vector<EventId> issued;
  int label = 0;
  for (int round = 0; round < 200; ++round) {
    const auto burst = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const int my = label++;
      issued.push_back(e.schedule_after(
          Time::ns(static_cast<std::int64_t>(rng.below(5000))),
          [&mix, &e, my] {
            mix(static_cast<std::uint64_t>(my));
            mix(static_cast<std::uint64_t>(e.now().to_ns()));
          }));
    }
    // Cancel a random sample of everything ever issued: hits pending,
    // dispatched, and already-cancelled events alike.
    const auto cancels = rng.below(issued.size()) / 2;
    for (std::uint64_t i = 0; i < cancels; ++i) {
      const auto idx = static_cast<std::size_t>(rng.below(issued.size()));
      mix(e.cancel(issued[idx]) ? 1 : 0);
    }
    e.run_for(Time::ns(static_cast<std::int64_t>(rng.below(3000))));
    mix(e.pending());
  }
  e.run();
  mix(e.dispatched());
  EXPECT_EQ(h, 5039619941919453717ULL);
}

TEST(Engine, RunUntilHandlesEventChainsWithinBound) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    e.schedule_after(Time::ms(1), chain);
  };
  e.schedule_at(Time::ms(1), chain);
  e.run_until(Time::ms(10));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(e.pending(), 1u);  // the 11th link is queued
}

// Reference semantics for the pooled engine: a flat list of events plus a
// live-flag, dispatch order (time, scheduling sequence).  This is what the
// seed implementation (std::priority_queue + live-seq set) computed; the
// slot/generation engine must be observably identical under arbitrary
// schedule/cancel churn.
struct ReferenceEngine {
  struct Ev {
    Time t;
    std::uint64_t seq;
    int label;
    bool live;
  };
  std::vector<Ev> events;  // indexed by label
  std::uint64_t next_seq{1};
  Time now{Time::zero()};

  int schedule(Time t, int label) {
    events.push_back(Ev{t, next_seq++, label, true});
    return label;
  }
  // Takes a fresh sequence number, as Engine::ticket() does.
  void postpone(int label, Time t) {
    Ev& ev = events[static_cast<std::size_t>(label)];
    ev.t = t;
    ev.seq = next_seq++;
  }
  bool cancel(int label) {
    if (label < 0 || static_cast<std::size_t>(label) >= events.size()) {
      return false;
    }
    if (!events[static_cast<std::size_t>(label)].live) return false;
    events[static_cast<std::size_t>(label)].live = false;
    return true;
  }
  // Dispatch everything with t <= horizon, in (t, seq) order; returns the
  // dispatched labels.
  std::vector<int> run_until(Time horizon) {
    std::vector<Ev*> due;
    for (Ev& ev : events) {
      if (ev.live && ev.t <= horizon) due.push_back(&ev);
    }
    std::sort(due.begin(), due.end(), [](const Ev* a, const Ev* b) {
      if (a->t != b->t) return a->t < b->t;
      return a->seq < b->seq;
    });
    std::vector<int> order;
    for (Ev* ev : due) {
      ev->live = false;
      order.push_back(ev->label);
    }
    if (now < horizon) now = horizon;
    return order;
  }
  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const Ev& ev : events) n += ev.live ? 1 : 0;
    return n;
  }
};

TEST(Engine, CancelChurnMatchesReferenceSemantics) {
  // Randomized schedule/cancel/run rounds; the engine and the reference
  // must agree on dispatch order, every cancel() return value, and
  // pending() after each round.  Exercises slot recycling under heavy
  // churn (cancelled slots are reused with fresh generations).
  Engine e;
  ReferenceEngine ref;
  Rng rng{20260806};
  std::vector<EventId> ids;       // engine handle per label
  std::vector<int> engine_order;  // labels in engine dispatch order

  int label = 0;
  for (int round = 0; round < 200; ++round) {
    const auto burst = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const Time t =
          e.now() + Time::ns(static_cast<std::int64_t>(rng.below(4000)));
      const int my = label++;
      ids.push_back(e.schedule_at(t, [&engine_order, my] {
        engine_order.push_back(my);
      }));
      ref.schedule(t, my);
    }
    // Cancel a random sample of every handle ever issued — pending,
    // dispatched, cancelled, and forged ids alike.
    const auto cancels = rng.below(static_cast<std::uint64_t>(label)) / 2;
    for (std::uint64_t i = 0; i < cancels; ++i) {
      const auto idx = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(label)));
      ASSERT_EQ(e.cancel(ids[idx]), ref.cancel(static_cast<int>(idx)))
          << "cancel disagreement at round " << round << " label " << idx;
    }
    EXPECT_FALSE(e.cancel(EventId{}));
    EXPECT_FALSE(e.cancel(EventId{0xDEADBEEFULL << 32 | 12345}));

    const Time horizon =
        e.now() + Time::ns(static_cast<std::int64_t>(rng.below(3000)));
    engine_order.clear();
    e.run_until(horizon);
    const std::vector<int> want = ref.run_until(horizon);
    ASSERT_EQ(engine_order, want) << "dispatch order diverged at round "
                                  << round;
    ASSERT_EQ(e.pending(), ref.pending()) << "pending diverged at round "
                                          << round;
  }
  engine_order.clear();
  e.run();
  EXPECT_EQ(engine_order, ref.run_until(Time::max()));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, PendingAccountingSurvivesMassCancellation) {
  Engine e;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        e.schedule_at(Time::us(1 + i % 7), [&fired] { ++fired; }));
  }
  EXPECT_EQ(e.pending(), 1000u);
  for (const EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  for (const EventId id : ids) EXPECT_FALSE(e.cancel(id));  // double cancel
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_EQ(fired, 0);  // every queued entry was stale

  // The pool must be fully recycled: scheduling again reuses the freed
  // slots and the accounting starts clean.
  for (int i = 0; i < 1000; ++i) {
    e.schedule_after(Time::us(1), [&fired] { ++fired; });
  }
  EXPECT_EQ(e.pending(), 1000u);
  e.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, TicketReservesTheSchedulePosition) {
  Engine e;
  std::vector<int> order;
  const Ticket early = e.ticket(Time::us(5));  // seq 1
  e.schedule_at(Time::us(5), [&order] { order.push_back(2); });  // seq 2
  e.schedule_at(early, [&order] { order.push_back(1); });
  e.run_until(Time::us(6));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_THROW((void)e.ticket(Time::us(4)), std::logic_error);
  EXPECT_THROW(e.schedule_at(early, [] {}), std::logic_error);  // passed
}

TEST(Engine, PostponeRekeysWithoutDispatching) {
  Engine e;
  std::vector<char> order;
  const EventId a = e.schedule_at(Time::us(1), [&order] { order.push_back('a'); });
  e.schedule_at(Time::us(3), [&order] { order.push_back('b'); });
  const EventId moved = e.postpone(a, e.ticket(Time::us(3)));  // after b
  ASSERT_TRUE(moved.valid());
  EXPECT_FALSE(e.cancel(a));  // the old handle went stale
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_THROW(e.postpone(moved, e.ticket(Time::us(2))), std::logic_error);

  e.run_until(Time::us(2));  // the old entry surfaces and is re-keyed
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(e.rekeys(), 1u);
  EXPECT_EQ(e.dispatched(), 0u);
  EXPECT_EQ(e.pending(), 2u);
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  EXPECT_EQ(e.dispatched(), 2u);
  EXPECT_EQ(e.pushes(), 3u);  // two schedules and one re-key
  EXPECT_FALSE(e.postpone(moved, e.ticket(Time::us(9))).valid());
}

TEST(Engine, CancelAfterPostponeDropsBothEntries) {
  Engine e;
  int fired = 0;
  const EventId a = e.schedule_at(Time::us(1), [&fired] { ++fired; });
  const EventId b = e.postpone(a, e.ticket(Time::us(5)));
  EXPECT_TRUE(e.cancel(b));
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.rekeys(), 0u);
}

TEST(Engine, PostponeChurnMatchesReferenceSemantics) {
  // Randomized schedule/postpone/cancel/run rounds: a postponed event
  // must dispatch exactly where the reference, which simply re-keys the
  // event, puts it — including the FIFO tie-break at shared instants.
  Engine e;
  ReferenceEngine ref;
  Rng rng{20261017};
  std::vector<EventId> ids;
  std::vector<Time> due;
  std::vector<int> engine_order;
  int label = 0;
  for (int round = 0; round < 200; ++round) {
    const auto burst = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const Time t =
          e.now() + Time::ns(100 * static_cast<std::int64_t>(rng.below(40)));
      const int my = label++;
      ids.push_back(e.schedule_at(t, [&engine_order, my] {
        engine_order.push_back(my);
      }));
      due.push_back(t);
      ref.schedule(t, my);
    }
    const auto moves = rng.below(static_cast<std::uint64_t>(label));
    for (std::uint64_t i = 0; i < moves; ++i) {
      const auto idx = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(label)));
      if (!ref.events[idx].live) continue;
      const Time t =
          due[idx] + Time::ns(100 * static_cast<std::int64_t>(rng.below(20)));
      ids[idx] = e.postpone(ids[idx], e.ticket(t));
      ASSERT_TRUE(ids[idx].valid());
      due[idx] = t;
      ref.postpone(static_cast<int>(idx), t);
    }
    const auto cancels = rng.below(static_cast<std::uint64_t>(label)) / 4;
    for (std::uint64_t i = 0; i < cancels; ++i) {
      const auto idx = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(label)));
      ASSERT_EQ(e.cancel(ids[idx]), ref.cancel(static_cast<int>(idx)));
    }
    const Time horizon =
        e.now() + Time::ns(100 * static_cast<std::int64_t>(rng.below(30)));
    engine_order.clear();
    e.run_until(horizon);
    ASSERT_EQ(engine_order, ref.run_until(horizon)) << "round " << round;
    ASSERT_EQ(e.pending(), ref.pending()) << "round " << round;
  }
  engine_order.clear();
  e.run();
  EXPECT_EQ(engine_order, ref.run_until(Time::max()));
  EXPECT_GT(e.rekeys(), 0u);
  EXPECT_EQ(e.pushes(), static_cast<std::uint64_t>(label) + e.rekeys());
}

}  // namespace
}  // namespace canely::sim
