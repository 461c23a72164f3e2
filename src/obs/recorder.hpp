#pragma once
// obs::Recorder — the handle instrumented layers share (DESIGN.md §11).
//
// One Recorder per simulated run, owned by whoever builds the system
// (scenario runner, checker harness, bench cell) and handed down as a
// non-owning pointer like the fault injector.  A null
// recorder means observability is off and instrumentation costs one
// branch.  The emit path is a POD store into a preallocated ring — no
// std::function, no allocation (canely-lint's hot-path rules apply to the
// instrumented call sites).

#include <cstdint>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "sim/time.hpp"

namespace canely::obs {

class Recorder {
 public:
  explicit Recorder(std::size_t ring_capacity = EventRing::kDefaultCapacity)
      : ring_{ring_capacity} {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void emit(const Event& e) { ring_.push(e); }

  [[nodiscard]] EventRing& ring() { return ring_; }
  [[nodiscard]] const EventRing& ring() const { return ring_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  EventRing ring_;
  MetricsRegistry metrics_;
};

/// End-of-run gauges derived from state the obs layer must not reach into
/// live (sim never depends on obs): the caller reads engine/bus totals and
/// hands plain numbers over at snapshot time.
inline void set_run_gauges(Recorder& rec, std::uint64_t engine_dispatched,
                           std::uint64_t bus_bits_total,
                           std::int64_t bit_rate_bps, sim::Time elapsed) {
  rec.metrics().gauge("engine.events_dispatched")
      .set(static_cast<double>(engine_dispatched));
  if (elapsed > sim::Time::zero() && bit_rate_bps > 0) {
    const double busy_ns = static_cast<double>(bus_bits_total) *
                           (1e9 / static_cast<double>(bit_rate_bps));
    rec.metrics().gauge("bus.utilization")
        .set(busy_ns / static_cast<double>(elapsed.to_ns()));
  }
}

}  // namespace canely::obs
