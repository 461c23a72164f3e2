// Observability subsystem (DESIGN.md §11, docs/OBSERVABILITY.md): the
// bounded event ring, Perfetto export structure, end-to-end metric
// capture on a crash-detection scenario (fd.detection_latency_us must
// respect the §6.3 bound), and snapshot byte-identity across campaign
// thread counts.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "canely/params.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/recorder.hpp"
#include "obs/ring.hpp"
#include "scenario/scenario.hpp"

namespace canely {
namespace {

obs::Event raw_event(std::int64_t when_us, std::uint64_t tag) {
  obs::Event e;
  e.when = sim::Time::us(when_us);
  e.kind = obs::EventKind::kViewInstall;
  e.node = 0;
  e.u.raw = tag;
  return e;
}

obs::Event peer_event(std::int64_t when_us, obs::EventKind kind,
                      std::uint8_t node, std::uint8_t peer) {
  obs::Event e;
  e.when = sim::Time::us(when_us);
  e.kind = kind;
  e.node = node;
  e.u.peer = {peer};
  return e;
}

TEST(EventRing, KeepsNewestAndCountsDrops) {
  obs::EventRing ring{8};
  for (std::uint64_t i = 0; i < 11; ++i) {
    ring.push(raw_event(static_cast<std::int64_t>(i), i));
  }
  EXPECT_EQ(ring.capacity(), 8U);
  EXPECT_EQ(ring.size(), 8U);
  EXPECT_EQ(ring.dropped(), 3U);
  // Drop-oldest: the retained window is events 3..10, oldest first.
  EXPECT_EQ(ring.at(0).u.raw, 3U);
  EXPECT_EQ(ring.at(7).u.raw, 10U);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_LT(ring.at(i - 1).when, ring.at(i).when);
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0U);
  EXPECT_EQ(ring.dropped(), 0U);
}

TEST(EventRing, CapacityZeroRefusesAndCounts) {
  obs::EventRing ring{0};
  ring.push(raw_event(0, 1));
  ring.push(raw_event(1, 2));
  EXPECT_EQ(ring.size(), 0U);
  EXPECT_EQ(ring.dropped(), 2U);
}

TEST(Perfetto, PairsSpansAndDemotesUnmatchedHalves) {
  obs::EventRing ring{64};
  // A complete frame attempt ('X'), a paired FDA round (b/e), an FDA
  // round whose nty never arrived (demotes to 'i'), a paired RHA
  // execution (B/E) and an unterminated one (demotes to 'i').
  obs::Event frame;
  frame.when = sim::Time::us(10);
  frame.kind = obs::EventKind::kFrameTx;
  frame.node = 1;
  frame.u.frame = {0x100, 135, 135'000, 0, 0, 0, 0};
  ring.push(frame);
  ring.push(peer_event(20, obs::EventKind::kFdaRoundStart, 1, 2));
  ring.push(peer_event(30, obs::EventKind::kFdaNty, 1, 2));
  ring.push(peer_event(40, obs::EventKind::kFdaRoundStart, 3, 2));
  ring.push(peer_event(50, obs::EventKind::kRhaRoundStart, 1, 0));
  ring.push(peer_event(60, obs::EventKind::kRhaRoundEnd, 1, 0));
  ring.push(peer_event(70, obs::EventKind::kRhaRoundStart, 3, 0));

  const auto events = obs::build_trace_events(ring);
  const auto check = obs::validate_trace_events(events);
  EXPECT_TRUE(check.ok) << check.error;

  std::string phases;
  for (const auto& t : events) {
    if (t.ph != 'M') phases += t.ph;
  }
  EXPECT_EQ(phases, "XbeiBEi");
  EXPECT_DOUBLE_EQ(events[events.size() - 7].dur_us, 135.0);

  const std::string json =
      obs::render_trace_json(events, nullptr, ring);
  EXPECT_NE(json.find("canely-trace-1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST(Perfetto, ValidatorRejectsMalformedStreams) {
  obs::TraceEvent open;
  open.name = "span";
  open.ph = 'B';
  open.ts_us = 1;
  obs::TraceEvent close = open;
  close.ph = 'E';
  close.ts_us = 2;

  // 'E' with no open 'B'.
  EXPECT_FALSE(obs::validate_trace_events({close}).ok);
  // Unclosed 'B'.
  EXPECT_FALSE(obs::validate_trace_events({open}).ok);
  // Timestamps running backwards on one track.
  obs::TraceEvent late = open;
  late.ts_us = 5;
  obs::TraceEvent early = close;
  early.ts_us = 3;
  EXPECT_FALSE(obs::validate_trace_events({late, early}).ok);
  // Negative duration on a complete event.
  obs::TraceEvent complete;
  complete.name = "frame";
  complete.ph = 'X';
  complete.ts_us = 1;
  complete.dur_us = -1;
  EXPECT_FALSE(obs::validate_trace_events({complete}).ok);
  // The happy path for the same shapes.
  EXPECT_TRUE(obs::validate_trace_events({open, close}).ok);
}

/// The scenario mirrored by scenarios/crash_detection.scn: node 0 carries
/// cyclic app traffic faster than Th (implicit heartbeats), node 2
/// crashes, the three survivors detect and agree.
constexpr const char* kCrashScript = R"(nodes 4
param heartbeat_ms 10
param cycle_ms 30
at 0    join 0..3
at 100  traffic 0 5
at 400  expect-view 0,1,2,3
at 450  crash 2
at 600  expect-view 0,1,3
run 700
)";

TEST(ObsEndToEnd, CrashDetectionLatencyWithinPaperBound) {
  obs::Recorder recorder;
  scenario::RunOptions options;
  options.recorder = &recorder;
  const auto report = scenario::run_script(kCrashScript, options);
  ASSERT_TRUE(report.ok);

  const obs::MetricsRegistry& m = recorder.metrics();
  const obs::Counter* els = m.find_counter("els.frames_sent");
  const obs::Counter* implicit = m.find_counter("heartbeat.implicit");
  ASSERT_NE(els, nullptr);
  ASSERT_NE(implicit, nullptr);
  EXPECT_GT(els->total(), 0U);
  EXPECT_GT(implicit->total(), 0U);
  // Node 0's app traffic (period 5 ms < Th = 10 ms) suppresses all of its
  // explicit life-signs (§6.3: "any frame doubles as a life-sign").
  EXPECT_EQ(els->node(0), 0U);
  EXPECT_GT(implicit->node(0), 0U);

  // §6.3: a crashed node is suspected within Th + Ttd (+ the simulator's
  // deliberate per-node skew) and the FDA round needs at most one more
  // bounded transmission delay, so end-to-end detection at every
  // survivor stays below Th + 2*Ttd + n*fd_skew_quantum.
  const Params defaults;
  const std::int64_t bound_us =
      (defaults.heartbeat_period + defaults.tx_delay_bound * 2 +
       defaults.fd_skew_quantum * 4)
          .to_us();
  const obs::Histogram* detect = m.find_histogram("fd.detection_latency_us");
  ASSERT_NE(detect, nullptr);
  EXPECT_EQ(detect->count(), 3U);  // one sample per survivor
  EXPECT_GT(detect->min(), 0);
  EXPECT_LE(detect->max(), bound_us);

  // The ring from the same run must export as well-formed trace_event
  // JSON without losses at the default capacity.
  EXPECT_EQ(recorder.ring().dropped(), 0U);
  const auto events = obs::build_trace_events(recorder.ring());
  const auto check = obs::validate_trace_events(events);
  EXPECT_TRUE(check.ok) << check.error;
  const std::string json = obs::render_trace_json(
      events, &recorder.metrics(), recorder.ring());
  EXPECT_NE(json.find("\"fd.detection_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"bus.utilization\""), std::string::npos);
}

TEST(ObsEndToEnd, SnapshotsByteIdenticalAcrossThreadCounts) {
  campaign::Grid grid;
  grid.axis("crash_node", {1, 2, 3}).repeats(2).master_seed(7);

  // Each run builds its own universe and returns the full serialized
  // observability output (metric snapshot + rendered trace): if any byte
  // depended on scheduling, the 1-thread and 4-thread campaigns would
  // disagree somewhere in these strings.
  const auto run_one = [](const campaign::RunSpec& spec) -> std::string {
    const int crash = static_cast<int>(spec.param("crash_node"));
    const std::string script = "nodes 4\nparam heartbeat_ms 10\n"
                               "param cycle_ms 30\nat 0 join 0..3\n"
                               "at 450 crash " + std::to_string(crash) +
                               "\nrun 700\n";
    obs::Recorder recorder;
    scenario::RunOptions options;
    options.recorder = &recorder;
    const auto report = scenario::run_script(script, options);
    if (!report.ok) return "run failed";
    const auto events = obs::build_trace_events(recorder.ring());
    return recorder.metrics().snapshot_json(/*per_node=*/true).dump() +
           obs::render_trace_json(events, &recorder.metrics(),
                                  recorder.ring());
  };

  campaign::Runner serial{1};
  campaign::Runner pooled{4};
  const auto a = serial.run<std::string>(grid, run_one);
  const auto b = pooled.run<std::string>(grid, run_one);
  ASSERT_EQ(a.completed, grid.size());
  ASSERT_EQ(b.completed, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "run " << i;
    EXPECT_NE(a.results[i], "run failed") << "run " << i;
  }
}

}  // namespace
}  // namespace canely
