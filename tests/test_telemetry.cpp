// Tests for the campaign telemetry service (src/obs/telemetry) and its
// consumers: JSONL schema round-trip through the canely_top reader,
// monotone snapshot sequencing, explorer byte-identity with telemetry on
// vs off at several thread counts, the counterexample flight recorder's
// artifact round-trip + Perfetto re-export, and the telemetry_view
// reduction canely_top --once --json is built on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifact.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "check/telemetry_view.hpp"
#include "obs/perfetto.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"

namespace canely::testing {
namespace {

using check::FaultEvent;
using check::FaultOp;
using check::FaultScript;
using check::RunResult;
using check::ScenarioConfig;

/// Wall clock returning a scripted sequence of instants (sticky last
/// value), so snapshot timestamps and rates are exact.
class ScriptedClock final : public socketcan::WallClock {
 public:
  explicit ScriptedClock(std::vector<std::int64_t> times_ns)
      : times_ns_{std::move(times_ns)} {}
  std::chrono::nanoseconds now() override {
    const std::size_t i = next_ < times_ns_.size() ? next_ : times_ns_.size() - 1;
    ++next_;
    return std::chrono::nanoseconds{times_ns_[i]};
  }
  void sleep_for(std::chrono::microseconds) override {}

 private:
  std::vector<std::int64_t> times_ns_;
  std::size_t next_{0};
};

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The verified FDA-ablation counterexample (same script as
// test_check.cpp): with FDA off, survivors split over an intermediate
// view — the flight-recorder tests need a real violating run.
FaultScript ablation_counterexample() {
  FaultEvent base;
  base.tx = 32;
  base.op = FaultOp::kOmit;
  base.victims = can::NodeSet{0};
  base.crash_sender = true;
  FaultEvent second;
  second.tx = 35;
  second.op = FaultOp::kOmit;
  second.victims = can::NodeSet{7};
  second.crash_sender = true;
  return FaultScript{base, second};
}

// --- JSONL schema round-trip -------------------------------------------------

TEST(TelemetryJsonl, ManualSnapshotsRoundTripWithMonotoneSeq) {
  const std::string path = ::testing::TempDir() + "telemetry_roundtrip.jsonl";
  std::remove(path.c_str());
  // One now() in the ctor (start), one per snapshot line.
  ScriptedClock clock{{0, 1'000'000'000, 2'500'000'000}};

  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.sample_period_ms = 0;  // manual mode: exact snapshot counts
  cfg.label = "fixture";
  cfg.shard_index = 1;
  cfg.shard_count = 4;
  cfg.clock = &clock;
  {
    obs::Telemetry tel{std::move(cfg)};
    tel.set_total_units(500);
    tel.add(obs::TelemetryCounter::kUnitsJudged, 40);
    tel.add(obs::TelemetryCounter::kDedupSkips, 10);
    tel.add(obs::TelemetryCounter::kPrefixHits, 3);
    tel.add(obs::TelemetryCounter::kPrefixMisses, 1);
    tel.stage_us(obs::TelemetryStage::kJudge, 120);
    tel.stage_us(obs::TelemetryStage::kJudge, 80);
    ASSERT_TRUE(tel.sample_now());
    tel.add(obs::TelemetryCounter::kUnitsJudged, 60);
    tel.add(obs::TelemetryCounter::kCheckpoints, 2);
    tel.stage_us(obs::TelemetryStage::kCheckpointIo, 5000);
    ASSERT_TRUE(tel.sample_now());
  }

  const std::vector<check::TelemetrySnapshot> snaps =
      check::load_telemetry(path);
  std::remove(path.c_str());
  ASSERT_EQ(snaps.size(), 2u);

  // seq strictly monotone from 1; timestamps from the scripted clock.
  EXPECT_EQ(snaps[0].seq, 1u);
  EXPECT_EQ(snaps[1].seq, 2u);
  EXPECT_EQ(snaps[0].t_ms, 1000u);
  EXPECT_EQ(snaps[1].t_ms, 2500u);
  EXPECT_EQ(snaps[0].label, "fixture");
  EXPECT_EQ(snaps[0].shard, 1u);
  EXPECT_EQ(snaps[0].shards, 4u);
  EXPECT_EQ(snaps[0].total_units, 500u);

  // Counters are cumulative across lines.
  EXPECT_EQ(snaps[0].counter(obs::TelemetryCounter::kUnitsJudged), 40u);
  EXPECT_EQ(snaps[1].counter(obs::TelemetryCounter::kUnitsJudged), 100u);
  EXPECT_EQ(snaps[1].counter(obs::TelemetryCounter::kDedupSkips), 10u);
  EXPECT_EQ(snaps[1].counter(obs::TelemetryCounter::kCheckpoints), 2u);
  EXPECT_EQ(snaps[1].units_done(), 110u);  // judged + skips + resumed

  // Stage histograms: counts and sums survive the round trip.
  const auto judge = static_cast<std::size_t>(obs::TelemetryStage::kJudge);
  const auto ckpt =
      static_cast<std::size_t>(obs::TelemetryStage::kCheckpointIo);
  EXPECT_EQ(snaps[0].stage_count[judge], 2u);
  EXPECT_EQ(snaps[0].stage_sum_us[judge], 200u);
  EXPECT_EQ(snaps[1].stage_count[ckpt], 1u);
  EXPECT_EQ(snaps[1].stage_sum_us[ckpt], 5000u);
  EXPECT_EQ(snaps[0].dropped_lines, 0u);
}

TEST(TelemetryJsonl, RejectsForeignSchemaAndGarbage) {
  EXPECT_THROW((void)check::parse_telemetry_line(
                   R"({"schema":"canely-frontier-1","seq":1})"),
               std::runtime_error);
  EXPECT_THROW((void)check::parse_telemetry_line("not json"),
               std::runtime_error);
}

// --- explorer byte-identity, telemetry on vs off -----------------------------

TEST(TelemetryByteIdentity, FrontierAndAggregateIdenticalAcrossThreads) {
  // Same tightly-capped depth-2 space as the CI smoke; four runs cross
  // {telemetry off, on} x {1 thread, 4 threads} and must agree on both
  // the frontier bytes and the aggregate hash.
  const auto run = [](std::size_t threads, obs::Telemetry* tel,
                      const std::string& frontier) {
    check::ExploreConfig cfg;
    cfg.scenario = ScenarioConfig::membership(8, /*fda_on=*/true);
    cfg.threads = threads;
    cfg.depth = 2;
    cfg.exhaustive = true;
    cfg.dedup = true;
    cfg.max_frames = 8;
    cfg.max_victim_sets = 4;
    cfg.max_bases = 8;
    cfg.depth2_targets = 2;
    cfg.frontier_path = frontier;
    cfg.telemetry = tel;
    if (tel != nullptr) cfg.checkpoint_secs = 3600;  // time trigger armed
    return check::explore(cfg);
  };

  const std::string dir = ::testing::TempDir();
  const std::string f_off1 = dir + "tel_off_t1.json";
  const std::string f_off4 = dir + "tel_off_t4.json";
  const std::string f_on1 = dir + "tel_on_t1.json";
  const std::string f_on4 = dir + "tel_on_t4.json";
  const std::string jsonl = dir + "tel_identity.jsonl";
  for (const std::string& f : {f_off1, f_off4, f_on1, f_on4, jsonl}) {
    std::remove(f.c_str());
  }

  const check::ExploreResult off1 = run(1, nullptr, f_off1);
  const check::ExploreResult off4 = run(4, nullptr, f_off4);

  obs::TelemetryConfig tcfg;
  tcfg.path = jsonl;
  tcfg.sample_period_ms = 0;
  obs::Telemetry tel{std::move(tcfg)};
  const check::ExploreResult on1 = run(1, &tel, f_on1);
  const check::ExploreResult on4 = run(4, &tel, f_on4);

  EXPECT_EQ(off1.aggregate_hash, off4.aggregate_hash);
  EXPECT_EQ(off1.aggregate_hash, on1.aggregate_hash);
  EXPECT_EQ(off1.aggregate_hash, on4.aggregate_hash);
  const std::string bytes = read_file(f_off1);
  EXPECT_GT(bytes.size(), 0u);
  EXPECT_EQ(bytes, read_file(f_off4));
  EXPECT_EQ(bytes, read_file(f_on1));
  EXPECT_EQ(bytes, read_file(f_on4));

  // The service really observed the instrumented runs.
  EXPECT_GT(tel.counter(obs::TelemetryCounter::kUnitsJudged), 0u);
  EXPECT_GT(tel.counter(obs::TelemetryCounter::kCheckpoints), 0u);

  for (const std::string& f : {f_off1, f_off4, f_on1, f_on4, jsonl}) {
    std::remove(f.c_str());
  }
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, ArtifactRoundTripReplaysAndReExportsIdentically) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  const FaultScript script = ablation_counterexample();
  obs::Recorder rec;
  const RunResult run =
      check::run_checked(cfg, script, /*want_tx_log=*/false, &rec);
  ASSERT_FALSE(run.violations.empty());
  ASSERT_GT(rec.ring().size(), 0u);

  check::Artifact artifact;
  artifact.scenario = cfg;
  artifact.script = script;
  artifact.monitor = run.violations.front().monitor;
  artifact.trace_hash = run.trace_hash;
  artifact.violation = run.violations.front();
  artifact.flight.present = true;
  artifact.flight.ring_capacity = rec.ring().capacity();
  artifact.flight.dropped = rec.ring().dropped();
  for (std::size_t i = 0; i < rec.ring().size(); ++i) {
    artifact.flight.events.push_back(rec.ring().at(i));
  }
  artifact.flight.has_metrics = true;
  artifact.flight.metrics = rec.metrics().snapshot_json(true);

  const std::string path = ::testing::TempDir() + "flight_roundtrip.json";
  check::write_artifact(path, artifact);
  const check::Artifact loaded = check::load_artifact(path);
  std::remove(path.c_str());

  // Flight payload survives byte-faithfully.
  ASSERT_TRUE(loaded.flight.present);
  EXPECT_EQ(loaded.flight.ring_capacity, artifact.flight.ring_capacity);
  EXPECT_EQ(loaded.flight.dropped, artifact.flight.dropped);
  ASSERT_EQ(loaded.flight.events.size(), artifact.flight.events.size());
  for (std::size_t i = 0; i < loaded.flight.events.size(); ++i) {
    const obs::Event& a = artifact.flight.events[i];
    const obs::Event& b = loaded.flight.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.when, b.when) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    if (a.kind == obs::EventKind::kFrameTx) {
      EXPECT_EQ(a.u.frame.id, b.u.frame.id);
      EXPECT_EQ(a.u.frame.bits, b.u.frame.bits);
      EXPECT_EQ(a.u.frame.outcome, b.u.frame.outcome);
    } else if (a.kind == obs::EventKind::kViewInstall) {
      EXPECT_EQ(a.u.view.members, b.u.view.members);
    }
  }
  ASSERT_TRUE(loaded.flight.has_metrics);

  // A replay of the loaded artifact still reproduces the recorded run.
  const RunResult replayed = check::run_checked(loaded.scenario, loaded.script);
  EXPECT_EQ(replayed.trace_hash, loaded.trace_hash);

  // The archived trace re-export is byte-identical to a live export of
  // the same run (the contract check_explorer --replay --trace-out
  // relies on).
  const auto live_events = obs::build_trace_events(rec.ring());
  const std::string live =
      obs::render_trace_json(live_events, &rec.metrics(), rec.ring());
  obs::EventRing ring{loaded.flight.ring_capacity};
  for (const obs::Event& e : loaded.flight.events) ring.push(e);
  const auto archived_events = obs::build_trace_events(ring);
  const obs::RingStats stats{loaded.flight.ring_capacity,
                             loaded.flight.events.size(),
                             loaded.flight.dropped};
  const std::string archived =
      obs::render_trace_json(archived_events, &loaded.flight.metrics, stats);
  EXPECT_EQ(live, archived);
}

TEST(FlightRecorder, V1ArtifactsStillLoadWithoutFlight) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  check::Artifact artifact;
  artifact.scenario = cfg;
  artifact.script = ablation_counterexample();
  artifact.monitor = "view-consistency";
  artifact.trace_hash = 0x1234;
  artifact.violation =
      check::Violation{"view-consistency", sim::Time::ms(160), "detail"};

  // A v1 file is exactly a v2 file minus the flight key and schema bump.
  std::string v1 = check::artifact_json(artifact).dump(2);
  const std::string::size_type at = v1.find("canely-check-2");
  ASSERT_NE(at, std::string::npos);
  v1.replace(at, std::string{"canely-check-2"}.size(), "canely-check-1");
  const std::string path = ::testing::TempDir() + "flight_v1.json";
  {
    std::ofstream out{path, std::ios::binary};
    out << v1;
  }

  const check::Artifact loaded = check::load_artifact(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.flight.present);
  EXPECT_EQ(loaded.monitor, artifact.monitor);
  EXPECT_EQ(loaded.trace_hash, artifact.trace_hash);
  EXPECT_EQ(loaded.script, artifact.script);
}

// --- telemetry_view (the canely_top core) ------------------------------------

TEST(TelemetryView, ShardStatusRatesAndSummaryFromFixtureFile) {
  const std::string path = ::testing::TempDir() + "telemetry_view.jsonl";
  std::remove(path.c_str());
  ScriptedClock clock{{0, 1'000'000'000, 3'000'000'000}};
  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.sample_period_ms = 0;
  cfg.label = "explore";
  cfg.clock = &clock;
  {
    obs::Telemetry tel{std::move(cfg)};
    tel.set_total_units(400);
    tel.add(obs::TelemetryCounter::kUnitsJudged, 100);
    ASSERT_TRUE(tel.sample_now());  // t=1000ms, done=100
    tel.add(obs::TelemetryCounter::kUnitsJudged, 120);
    tel.add(obs::TelemetryCounter::kDedupSkips, 80);
    ASSERT_TRUE(tel.sample_now());  // t=3000ms, done=300
  }

  const check::ShardStatus sh = check::load_shard_status(path);
  std::remove(path.c_str());
  ASSERT_TRUE(sh.have_prev);
  EXPECT_FALSE(sh.frontier_loaded);  // fixture advertises no frontier
  // (300 - 100) units over (3000 - 1000) ms.
  EXPECT_DOUBLE_EQ(sh.rate(), 100.0);

  const check::StatusSummary sum = check::summarize({sh});
  EXPECT_EQ(sum.done, 300u);
  EXPECT_EQ(sum.total, 400u);
  EXPECT_DOUBLE_EQ(sum.rate, 100.0);
  EXPECT_DOUBLE_EQ(sum.eta_sec, 1.0);  // 100 left at 100 u/s
  EXPECT_NEAR(sum.dedup_pct, 100.0 * 80 / 300, 1e-9);

  // Machine-readable status: the canely_top --once --json schema.
  const json::Value status = check::status_json({sh});
  const std::string dumped = status.dump();
  EXPECT_NE(dumped.find("\"schema\":\"canely-top-1\""), std::string::npos);
  EXPECT_NE(dumped.find("\"done\":300"), std::string::npos);
  EXPECT_NE(dumped.find("\"shards_complete\":0"), std::string::npos);

  // Human rendering: one shard line plus the TOTAL line.
  const std::string text = check::render_status_text({sh});
  EXPECT_NE(text.find("explore"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
  EXPECT_NE(text.find("dedup"), std::string::npos);
}

// `rejoined` was added to canely-telemetry-1 after its first release:
// lines written before it parse with the counter at 0, and canely_top
// reports it when present.
TEST(TelemetryView, RejoinedCounterIsAdditive) {
  const std::string path = ::testing::TempDir() + "telemetry_rejoin.jsonl";
  std::remove(path.c_str());
  ScriptedClock clock{{0, 1'000'000'000}};
  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.sample_period_ms = 0;
  cfg.clock = &clock;
  {
    obs::Telemetry tel{std::move(cfg)};
    tel.add(obs::TelemetryCounter::kUnitsJudged, 200);
    tel.add(obs::TelemetryCounter::kRejoined, 50);
    ASSERT_TRUE(tel.sample_now());
  }
  std::string line;
  {
    std::ifstream in{path};
    ASSERT_TRUE(std::getline(in, line));
  }
  const check::TelemetrySnapshot snap = check::parse_telemetry_line(line);
  EXPECT_EQ(snap.counter(obs::TelemetryCounter::kRejoined), 50u);

  const check::ShardStatus sh = check::load_shard_status(path);
  std::remove(path.c_str());
  EXPECT_EQ(check::summarize({sh}).rejoined, 50u);
  EXPECT_NE(check::status_json({sh}).dump().find("\"rejoined\":50"),
            std::string::npos);
  EXPECT_NE(check::render_status_text({sh}).find("rejoin 25.0%"),
            std::string::npos);

  const std::string field = "\"rejoined\":50";
  const std::string::size_type at = line.find(field);
  ASSERT_NE(at, std::string::npos);
  std::string old_line = line;
  // Drop the field and its separating comma (either side).
  if (at > 0 && old_line[at - 1] == ',') {
    old_line.erase(at - 1, field.size() + 1);
  } else {
    old_line.erase(at, field.size() + 1);
  }
  const check::TelemetrySnapshot old = check::parse_telemetry_line(old_line);
  EXPECT_EQ(old.counter(obs::TelemetryCounter::kRejoined), 0u);
  EXPECT_EQ(old.counter(obs::TelemetryCounter::kUnitsJudged), 200u);
}

}  // namespace
}  // namespace canely::testing
