// Unit tests for the alarm service (src/sim/timer.hpp) and the RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

namespace canely::sim {
namespace {

class TimerTest : public ::testing::Test {
 protected:
  Engine engine;
  TimerService timers{engine};
};

TEST_F(TimerTest, AlarmFiresAfterDuration) {
  bool fired = false;
  timers.start_alarm(Time::ms(5), [&] { fired = true; });
  engine.run_until(Time::ms(4));
  EXPECT_FALSE(fired);
  engine.run_until(Time::ms(5));
  EXPECT_TRUE(fired);
}

TEST_F(TimerTest, NullTimerIsNeverActive) {
  EXPECT_FALSE(timers.active(kNullTimer));
  EXPECT_FALSE(timers.cancel_alarm(kNullTimer));
}

TEST_F(TimerTest, CancelPreventsExpiry) {
  bool fired = false;
  TimerId id = timers.start_alarm(Time::ms(5), [&] { fired = true; });
  EXPECT_TRUE(timers.active(id));
  EXPECT_TRUE(timers.cancel_alarm(id));
  EXPECT_FALSE(timers.active(id));
  engine.run_until(Time::ms(10));
  EXPECT_FALSE(fired);
}

TEST_F(TimerTest, CancelExpiredAlarmFails) {
  TimerId id = timers.start_alarm(Time::ms(1), [] {});
  engine.run_until(Time::ms(2));
  EXPECT_FALSE(timers.cancel_alarm(id));
}

TEST_F(TimerTest, AlarmInactiveDuringItsOwnCallback) {
  bool was_active = true;
  TimerId id{};
  id = timers.start_alarm(Time::ms(1), [&] { was_active = timers.active(id); });
  engine.run_until(Time::ms(1));
  EXPECT_FALSE(was_active);
}

TEST_F(TimerTest, RestartFromCallback) {
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 3) timers.start_alarm(Time::ms(1), tick);
  };
  timers.start_alarm(Time::ms(1), tick);
  engine.run_until(Time::ms(10));
  EXPECT_EQ(fires, 3);
}

TEST_F(TimerTest, DeadlineReporting) {
  TimerId id = timers.start_alarm(Time::ms(7), [] {});
  EXPECT_EQ(timers.deadline(id), Time::ms(7));
  EXPECT_EQ(timers.deadline(kNullTimer), Time::max());
}

TEST_F(TimerTest, CancelAllClearsEverything) {
  int fires = 0;
  for (int i = 1; i <= 5; ++i) {
    timers.start_alarm(Time::ms(i), [&] { ++fires; });
  }
  EXPECT_EQ(timers.pending_count(), 5u);
  timers.cancel_all();
  EXPECT_EQ(timers.pending_count(), 0u);
  engine.run_until(Time::ms(10));
  EXPECT_EQ(fires, 0);
}

TEST_F(TimerTest, IndependentTimersCoexist) {
  std::vector<int> order;
  timers.start_alarm(Time::ms(2), [&] { order.push_back(2); });
  timers.start_alarm(Time::ms(1), [&] { order.push_back(1); });
  engine.run_until(Time::ms(3));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(TimerTest, RestartKeepsIdAndCallback) {
  int fires = 0;
  const TimerId id = timers.start_alarm(Time::ms(5), [&] { ++fires; });
  engine.run_until(Time::ms(4));
  EXPECT_TRUE(timers.restart_alarm(id, Time::ms(5)));
  EXPECT_TRUE(timers.active(id));
  EXPECT_EQ(timers.deadline(id), Time::ms(9));
  engine.run_until(Time::ms(8));
  EXPECT_EQ(fires, 0);
  engine.run_until(Time::ms(9));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(timers.restart_alarm(id, Time::ms(1)));  // already fired
  EXPECT_FALSE(timers.restart_alarm(kNullTimer, Time::ms(1)));
}

TEST_F(TimerTest, RestartToAnEarlierInstantMovesTheWake) {
  std::vector<int> order;
  timers.start_alarm(Time::ms(6), [&] { order.push_back(6); });
  const TimerId id = timers.start_alarm(Time::ms(8), [&] { order.push_back(1); });
  EXPECT_TRUE(timers.restart_alarm(id, Time::ms(1)));
  engine.run_until(Time::ms(1));
  EXPECT_EQ(order, (std::vector<int>{1}));
  engine.run_until(Time::ms(10));
  EXPECT_EQ(order, (std::vector<int>{1, 6}));
}

TEST_F(TimerTest, OneEngineEventPerService) {
  // However many alarms are armed, the service holds one engine event;
  // restarting or cancelling a non-minimum alarm never touches the queue.
  std::vector<TimerId> ids;
  for (int i = 1; i <= 10; ++i) {
    ids.push_back(timers.start_alarm(Time::ms(i), [] {}));
  }
  EXPECT_EQ(timers.pending_count(), 10u);
  EXPECT_EQ(engine.pending(), 1u);
  const std::uint64_t pushes = engine.pushes();
  EXPECT_TRUE(timers.restart_alarm(ids[5], Time::ms(20)));
  EXPECT_TRUE(timers.cancel_alarm(ids[7]));
  EXPECT_EQ(engine.pushes(), pushes);
  EXPECT_TRUE(timers.cancel_alarm(ids[0]));  // the minimum: one postpone
  EXPECT_EQ(engine.pushes(), pushes);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_until(Time::ms(2));
  EXPECT_EQ(engine.rekeys(), 1u);  // the postponed entry surfaced at 1 ms
  EXPECT_EQ(engine.dispatched(), 1u);
  timers.cancel_all();
  EXPECT_EQ(engine.pending(), 0u);
}

// --- differential: one wake per service vs. one event per alarm ------------

/// The alarm service as it was before the one-wake design: every alarm
/// is an engine event of its own, and a restart is an eager cancel plus
/// a fresh schedule.  The model the wake-based TimerService must match
/// dispatch for dispatch.
class ReferenceTimerService {
 public:
  explicit ReferenceTimerService(Engine& engine) : engine_{engine} {}

  TimerId start_alarm(Time duration, Callback on_expiry) {
    slots_.push_back(Slot{std::move(on_expiry), {}, {}, true});
    const auto s = static_cast<std::uint32_t>(slots_.size() - 1);
    arm(s, duration);
    return s + 1;
  }
  bool restart_alarm(TimerId id, Time duration) {
    if (!active(id)) return false;
    engine_.cancel(slots_[id - 1].event);
    arm(static_cast<std::uint32_t>(id - 1), duration);
    return true;
  }
  bool cancel_alarm(TimerId id) {
    if (!active(id)) return false;
    engine_.cancel(slots_[id - 1].event);
    slots_[id - 1].armed = false;
    slots_[id - 1].cb.reset();
    return true;
  }
  [[nodiscard]] bool active(TimerId id) const {
    return id >= 1 && id <= slots_.size() && slots_[id - 1].armed;
  }
  [[nodiscard]] Time deadline(TimerId id) const {
    return active(id) ? slots_[id - 1].when : Time::max();
  }
  [[nodiscard]] std::size_t pending_count() const {
    return static_cast<std::size_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const Slot& s) { return s.armed; }));
  }
  void cancel_all() {
    for (std::size_t i = 0; i < slots_.size(); ++i) cancel_alarm(i + 1);
  }

 private:
  struct Slot {
    Callback cb;
    EventId event;
    Time when;
    bool armed;
  };
  void arm(std::uint32_t s, Time duration) {
    slots_[s].when = engine_.now() + duration;
    slots_[s].event = engine_.schedule_at(slots_[s].when, [this, s] {
      Callback cb = std::move(slots_[s].cb);
      slots_[s].armed = false;
      cb();
    });
  }

  Engine& engine_;
  std::vector<Slot> slots_;  // never recycled: ids are slot + 1
};

/// Seeded churn over several services sharing one engine, interleaved
/// with raw engine events at colliding instants (every duration is a
/// multiple of 100 ns).  Returns a transcript of every dispatch and of
/// the observable state after every round; two service implementations
/// that order alarms identically produce identical transcripts.
template <typename Service>
class Churn {
 public:
  // Engine events the services hold for `pending` armed alarms.
  using EventsFor = std::function<std::size_t(std::size_t pending)>;

  Churn(std::uint64_t seed, EventsFor events_for)
      : rng_{seed}, events_for_{std::move(events_for)} {
    for (int k = 0; k < kServices; ++k) {
      services_.push_back(std::make_unique<Service>(engine_));
    }
  }

  std::vector<std::string> run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const auto ops = 1 + rng_.below(10);
      for (std::uint64_t i = 0; i < ops; ++i) step();
      engine_.run_until(engine_.now() + slot_time(rng_.below(25)));
      snapshot(round);
    }
    engine_.run();
    snapshot(rounds);
    return log_;
  }

 private:
  static constexpr int kServices = 3;
  enum class Act : int { kNone, kStartEarlier, kCancelNextDue, kRestartLatest };
  struct Alarm {
    int svc;
    TimerId id;
    std::uint64_t armed_at;  // arm order: ties on time break on it
  };

  static Time slot_time(std::uint64_t q) {
    return Time::ns(100 * static_cast<std::int64_t>(q));
  }

  void step() {
    const auto op = rng_.below(100);
    if (op < 30) {
      start(static_cast<int>(rng_.below(kServices)), slot_time(rng_.below(20)),
            static_cast<Act>(rng_.below(4)));
    } else if (op < 55) {
      restart(pick(), slot_time(rng_.below(20)));
    } else if (op < 70) {
      cancel(pick());
    } else if (op < 72) {
      const auto k = static_cast<int>(rng_.below(kServices));
      services_[static_cast<std::size_t>(k)]->cancel_all();
      log_.push_back("cancel_all " + std::to_string(k));
    } else if (op < 92) {
      const std::size_t label = raw_.size();
      raw_.push_back(engine_.schedule_at(
          engine_.now() + slot_time(rng_.below(20)), [this, label] {
            log_.push_back("raw " + std::to_string(label) + "@" +
                           std::to_string(engine_.now().to_ns()));
            --raw_live_;
          }));
      ++raw_live_;
    } else if (!raw_.empty()) {
      if (engine_.cancel(raw_[rng_.below(raw_.size())])) --raw_live_;
    }
  }

  // A label among every alarm ever issued: pending, fired or cancelled.
  std::size_t pick() {
    return alarms_.empty() ? 0 : rng_.below(alarms_.size());
  }

  void start(int k, Time duration, Act act) {
    const std::size_t label = alarms_.size();
    Service& svc = *services_[static_cast<std::size_t>(k)];
    alarms_.push_back(Alarm{k, kNullTimer, ++arm_order_});
    alarms_[label].id = svc.start_alarm(duration, [this, label, act] {
      fire(label, act);
    });
  }

  void restart(std::size_t label, Time duration) {
    if (label >= alarms_.size()) return;
    Alarm& a = alarms_[label];
    const bool ok =
        services_[static_cast<std::size_t>(a.svc)]->restart_alarm(a.id,
                                                                   duration);
    if (ok) a.armed_at = ++arm_order_;
    log_.push_back("restart " + std::to_string(label) + " " +
                   std::to_string(ok));
  }

  void cancel(std::size_t label) {
    if (label >= alarms_.size()) return;
    const Alarm& a = alarms_[label];
    const bool ok =
        services_[static_cast<std::size_t>(a.svc)]->cancel_alarm(a.id);
    log_.push_back("cancel " + std::to_string(label) + " " +
                   std::to_string(ok));
  }

  // The service's pending alarms by (deadline, arm order): the order
  // they fire in.
  std::vector<std::size_t> pending_of(int k) const {
    const Service& svc = *services_[static_cast<std::size_t>(k)];
    std::vector<std::size_t> out;
    for (std::size_t l = 0; l < alarms_.size(); ++l) {
      if (alarms_[l].svc == k && svc.active(alarms_[l].id)) out.push_back(l);
    }
    std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
      const Time ta = svc.deadline(alarms_[a].id);
      const Time tb = svc.deadline(alarms_[b].id);
      if (ta != tb) return ta < tb;
      return alarms_[a].armed_at < alarms_[b].armed_at;
    });
    return out;
  }

  void fire(std::size_t label, Act act) {
    log_.push_back("fire " + std::to_string(label) + "@" +
                   std::to_string(engine_.now().to_ns()));
    const int k = alarms_[label].svc;
    const std::vector<std::size_t> due = pending_of(k);
    switch (act) {
      case Act::kNone:
        break;
      case Act::kStartEarlier:  // ahead of everything the service holds
        start(k, slot_time(rng_.below(2)), Act::kNone);
        break;
      case Act::kCancelNextDue:
        if (!due.empty()) cancel(due.front());
        break;
      case Act::kRestartLatest:  // typically to an earlier instant
        if (!due.empty()) restart(due.back(), slot_time(rng_.below(3)));
        break;
    }
  }

  void snapshot(int round) {
    std::string s = "round " + std::to_string(round) +
                    " dispatched=" + std::to_string(engine_.dispatched());
    std::size_t timer_events = 0;
    for (int k = 0; k < kServices; ++k) {
      const Service& svc = *services_[static_cast<std::size_t>(k)];
      s += " svc" + std::to_string(k) + "=" +
           std::to_string(svc.pending_count());
      timer_events += events_for_(svc.pending_count());
    }
    // Raw events plus what the services hold; the latter differs by
    // design, so each side is checked against its own rule.
    s += engine_.pending() == raw_live_ + timer_events ? " pending=ok"
                                                       : " pending=BAD";
    log_.push_back(s);
    for (std::size_t l = 0; l < alarms_.size(); ++l) {
      const Service& svc = *services_[static_cast<std::size_t>(alarms_[l].svc)];
      if (!svc.active(alarms_[l].id)) continue;
      log_.push_back("  " + std::to_string(l) + " due " +
                     std::to_string(svc.deadline(alarms_[l].id).to_ns()));
    }
  }

  Engine engine_;
  Rng rng_;
  EventsFor events_for_;
  std::vector<std::unique_ptr<Service>> services_;
  std::vector<Alarm> alarms_;
  std::vector<EventId> raw_;
  std::size_t raw_live_{0};
  std::uint64_t arm_order_{0};
  std::vector<std::string> log_;
};

TEST(TimerDifferential, OneWakeMatchesEventPerAlarmUnderChurn) {
  for (const std::uint64_t seed : {1ULL, 20261017ULL, 0xC0FFEEULL}) {
    Churn<ReferenceTimerService> ref{seed, [](std::size_t n) { return n; }};
    Churn<TimerService> wake{
        seed, [](std::size_t n) -> std::size_t { return n > 0 ? 1 : 0; }};
    const std::vector<std::string> want = ref.run(400);
    const std::vector<std::string> got = wake.run(400);
    ASSERT_GT(want.size(), 1000u);
    for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", line " << i;
    }
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (const std::string& line : want) {
      ASSERT_EQ(line.find("BAD"), std::string::npos) << line;
    }
  }
}

// --- RNG -------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng{7};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, Uniform01Bounds) {
  Rng rng{9};
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, SampleDistinct) {
  Rng rng{11};
  const auto picks = rng.sample(20, 8);
  EXPECT_EQ(picks.size(), 8u);
  std::set<std::size_t> uniq(picks.begin(), picks.end());
  EXPECT_EQ(uniq.size(), 8u);
  for (auto p : picks) EXPECT_LT(p, 20u);
}

TEST(Rng, ForkIndependence) {
  Rng parent{5};
  Rng child = parent.fork();
  // Child stream differs from the parent's continuation.
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

}  // namespace
}  // namespace canely::sim
