#include "clocksync/sync_service.hpp"

#include <array>

namespace canely::clocksync {

ClockSyncService::ClockSyncService(CanDriver& driver,
                                   sim::TimerService& timers,
                                   DriftClock& clock, SyncParams params,
                                   std::uint64_t seed)
    : driver_{driver}, timers_{timers}, clock_{clock}, params_{params},
      rng_{seed} {
  driver_.on_data_ind(MsgType::kSync,
                      [this](const Mid& mid,
                             std::span<const std::uint8_t> /*payload*/,
                             bool /*own*/) { on_sync_ind(mid); });
  driver_.on_data_ind(MsgType::kSyncAdj,
                      [this](const Mid& mid,
                             std::span<const std::uint8_t> payload,
                             bool /*own*/) { on_adj_ind(mid, payload); });
}

void ClockSyncService::start(unsigned rank) {
  rank_ = rank;
  running_ = true;
  acting_master_ = (rank == 0);
  if (acting_master_) {
    // First round fires immediately so clocks align from the start.
    timers_.start_alarm(sim::Time::us(1), [this] { run_round(); });
  } else {
    arm_watchdog();
  }
}

void ClockSyncService::stop() {
  running_ = false;
  acting_master_ = false;
  timers_.cancel_alarm(watchdog_);
  watchdog_ = sim::kNullTimer;
}

void ClockSyncService::arm_watchdog() {
  const sim::Time deadline =
      params_.period + params_.takeover_delta * static_cast<std::int64_t>(
                                                    rank_ + 1);
  if (timers_.restart_alarm(watchdog_, deadline)) return;
  watchdog_ = timers_.start_alarm(deadline, [this] {
    // No round observed: every better-ranked synchronizer is dead.
    acting_master_ = true;
    run_round();
  });
}

void ClockSyncService::run_round() {
  if (!running_ || !acting_master_) return;
  ++round_no_;
  driver_.can_data_req(Mid{MsgType::kSync, round_no_, driver_.node()}, {});
  // Next round in one period.
  timers_.start_alarm(params_.period, [this] { run_round(); });
}

void ClockSyncService::on_sync_ind(const Mid& mid) {
  if (!running_) return;
  // Latch the local clock at the indication, corrupted by interrupt
  // latency jitter — the dominant precision limit of the scheme.
  const sim::Time jitter = sim::Time::ns(static_cast<std::int64_t>(
      rng_.below(static_cast<std::uint64_t>(
          params_.latch_jitter_max.to_ns() + 1))));
  latched_ = clock_.read(driver_.engine().now() + jitter);
  have_latch_ = true;
  // The synchronizer follows up with its own latched timestamp.
  if (mid.node == driver_.node() && acting_master_) {
    std::array<std::uint8_t, 8> payload{};
    const std::int64_t ns = latched_.to_ns();
    for (std::size_t i = 0; i < 8; ++i) {
      payload[i] = static_cast<std::uint8_t>((ns >> (8 * i)) & 0xFF);
    }
    driver_.can_data_req(Mid{MsgType::kSyncAdj, mid.ref, driver_.node()},
                         payload);
  }
  // Seeing a round means a synchronizer is alive: stand down if a
  // better-ranked node is acting, and re-arm the takeover watchdog.
  if (mid.node < driver_.node()) acting_master_ = false;
  if (!acting_master_) arm_watchdog();
}

void ClockSyncService::on_adj_ind(const Mid& /*mid*/,
                                  std::span<const std::uint8_t> payload) {
  if (!running_ || !have_latch_ || payload.size() < 8) return;
  std::int64_t master_ns = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    master_ns |= static_cast<std::int64_t>(payload[i]) << (8 * i);
  }
  const sim::Time delta = sim::Time::ns(master_ns) - latched_;
  clock_.adjust(delta);
  have_latch_ = false;
  ++rounds_;
  if (on_adjust_) on_adjust_(delta);
}

}  // namespace canely::clocksync
