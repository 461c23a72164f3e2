#include "obs/telemetry.hpp"

#include <chrono>
#include <utility>

#include "json/json.hpp"

namespace canely::obs {
namespace {

/// The one place in src/obs that touches a real clock.  Everything else
/// reaches wall time through the injected WallClock seam, so tests can
/// fake it and the determinism zone stays mockable end to end.
class SteadyTelemetryClock final : public socketcan::WallClock {
 public:
  [[nodiscard]] std::chrono::nanoseconds now() override {
    // canely-lint: allow(no-wall-clock) — telemetry sampler wall time behind the WallClock seam; never feeds a simulation
    return std::chrono::steady_clock::now().time_since_epoch();
  }
  void sleep_for(std::chrono::microseconds d) override {
    std::this_thread::sleep_for(d);
  }
};

}  // namespace

socketcan::WallClock& default_wall_clock() {
  static SteadyTelemetryClock clock;
  return clock;
}

Telemetry::Telemetry(TelemetryConfig cfg)
    : cfg_{std::move(cfg)},
      clock_{cfg_.clock != nullptr ? cfg_.clock : &default_wall_clock()} {
  // canely-lint: nondeterministic-ok(campaign telemetry timestamps wall progress through the injected WallClock seam)
  start_ns_ = static_cast<std::uint64_t>(clock_->now().count());
  if (cfg_.sample_period_ms != 0 && !cfg_.path.empty()) {
    // canely-lint: nondeterministic-ok(sampling thread is observational only; results stay byte-identical with it on or off)
    sampler_ = std::thread{[this] { sampler_loop(); }};
  }
}

Telemetry::~Telemetry() {
  const bool had_sampler = sampler_.joinable();
  if (had_sampler) {
    {
      const std::lock_guard<std::mutex> lock{stop_mu_};
      stop_ = true;
    }
    stop_cv_.notify_all();
    sampler_.join();
    // Final snapshot so even campaigns shorter than one sample period
    // leave a complete line.  Manual mode (period 0) writes only when
    // the caller asks, keeping test snapshot counts exact.
    (void)sample_now();
  }
  if (sink_ != nullptr) std::fclose(sink_);
}

std::uint64_t Telemetry::now_ns() {
  // canely-lint: nondeterministic-ok(run-duration brackets come from the injected WallClock seam, observational only)
  return static_cast<std::uint64_t>(clock_->now().count());
}

void Telemetry::on_run_complete(std::uint64_t dur_ns) {
  add(TelemetryCounter::kRuns);
  stage_us(TelemetryStage::kJudge, dur_ns / 1000);
}

void Telemetry::stage_us(TelemetryStage s, std::uint64_t us) {
  Slot& sl = slot();
  const std::size_t si = static_cast<std::size_t>(s);
  std::size_t b = 0;
  while (b < kStageBucketBoundsUs.size() && us > kStageBucketBoundsUs[b]) {
    ++b;
  }
  sl.stage_buckets[si][b].fetch_add(1, std::memory_order_relaxed);
  sl.stage_count[si].fetch_add(1, std::memory_order_relaxed);
  sl.stage_sum_us[si].fetch_add(us, std::memory_order_relaxed);
}

Telemetry::Slot& Telemetry::slot() {
  // Each thread claims a slot on first touch of this instance and keeps
  // it; re-registration only happens when the thread moves to another
  // Telemetry (tests constructing several).  Claim wrap-around shares a
  // slot between threads, which merely merges their atomic adds.
  static thread_local Telemetry* owner = nullptr;
  static thread_local std::uint32_t index = 0;
  if (owner != this) {
    owner = this;
    index = next_slot_.fetch_add(1, std::memory_order_relaxed) % kMaxSlots;
  }
  return slots_[index];
}

std::uint64_t Telemetry::counter(TelemetryCounter c) const {
  const std::size_t ci = static_cast<std::size_t>(c);
  std::uint64_t total = 0;
  for (const Slot& sl : slots_) {
    total += sl.counters[ci].load(std::memory_order_relaxed);
  }
  return total;
}

std::string Telemetry::snapshot_line() {
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string("canely-telemetry-1"));
  root.set("seq",
           json::Value::integer(static_cast<std::int64_t>(seq_ + 1)));
  // canely-lint: nondeterministic-ok(snapshot timestamps wall progress through the injected WallClock seam)
  const std::uint64_t now = static_cast<std::uint64_t>(clock_->now().count());
  root.set("t_ms", json::Value::integer(static_cast<std::int64_t>(
                       (now - start_ns_) / 1'000'000)));
  root.set("label", json::Value::string(cfg_.label));
  root.set("shard", json::Value::integer(
                        static_cast<std::int64_t>(cfg_.shard_index)));
  root.set("shards", json::Value::integer(
                         static_cast<std::int64_t>(cfg_.shard_count)));
  root.set("total_units",
           json::Value::integer(static_cast<std::int64_t>(
               total_units_.load(std::memory_order_relaxed))));
  if (!cfg_.frontier_path.empty()) {
    root.set("frontier", json::Value::string(cfg_.frontier_path));
  }

  json::Value counters = json::Value::object();
  for (std::size_t c = 0; c < kTelemetryCounters; ++c) {
    counters.set(to_string(static_cast<TelemetryCounter>(c)),
                 json::Value::integer(static_cast<std::int64_t>(
                     counter(static_cast<TelemetryCounter>(c)))));
  }
  root.set("counters", std::move(counters));

  json::Value stages = json::Value::object();
  for (std::size_t s = 0; s < kTelemetryStages; ++s) {
    std::uint64_t count = 0, sum = 0;
    std::array<std::uint64_t, kStageBucketBoundsUs.size() + 1> buckets{};
    for (const Slot& sl : slots_) {
      count += sl.stage_count[s].load(std::memory_order_relaxed);
      sum += sl.stage_sum_us[s].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        buckets[b] += sl.stage_buckets[s][b].load(std::memory_order_relaxed);
      }
    }
    json::Value stage = json::Value::object();
    stage.set("count",
              json::Value::integer(static_cast<std::int64_t>(count)));
    stage.set("sum_us",
              json::Value::integer(static_cast<std::int64_t>(sum)));
    json::Value le = json::Value::array();
    for (const std::uint64_t bound : kStageBucketBoundsUs) {
      le.push(json::Value::integer(static_cast<std::int64_t>(bound)));
    }
    stage.set("le_us", std::move(le));
    json::Value counts = json::Value::array();
    for (const std::uint64_t b : buckets) {
      counts.push(json::Value::integer(static_cast<std::int64_t>(b)));
    }
    stage.set("buckets", std::move(counts));
    stages.set(to_string(static_cast<TelemetryStage>(s)), std::move(stage));
  }
  root.set("stages", std::move(stages));
  root.set("dropped_lines", json::Value::integer(
                                static_cast<std::int64_t>(dropped_lines_)));
  return root.dump() + "\n";
}

bool Telemetry::sample_now() {
  if (cfg_.path.empty()) return false;
  const std::lock_guard<std::mutex> lock{writer_mu_};
  if (sink_ == nullptr) {
    sink_ = std::fopen(cfg_.path.c_str(), "ab");
    if (sink_ == nullptr) {
      ++dropped_lines_;
      return false;
    }
  }
  const std::string line = snapshot_line();
  // One buffered write + flush per line: with O_APPEND semantics a
  // concurrent tail sees whole lines or nothing.
  if (std::fwrite(line.data(), 1, line.size(), sink_) != line.size() ||
      std::fflush(sink_) != 0) {
    ++dropped_lines_;
    return false;
  }
  ++seq_;
  return true;
}

void Telemetry::sampler_loop() {
  std::unique_lock<std::mutex> lock{stop_mu_};
  for (;;) {
    // canely-lint: nondeterministic-ok(sampler pacing is wall-time by design; it only reads counters)
    stop_cv_.wait_for(lock, std::chrono::milliseconds{cfg_.sample_period_ms},
                      [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    (void)sample_now();
    lock.lock();
  }
}

}  // namespace canely::obs
