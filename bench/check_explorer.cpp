// check_explorer — systematic fault-space exploration of the CANELy
// membership scenario (src/check).
//
// Default: exhaustively enumerate every single-fault placement (frame x
// victim subset x sender-crash) against the n=8 membership scenario and
// assert that no invariant monitor fires — the checker's reproduction of
// the paper's §6.1/§6.2 claim.  With --no-fda the FDA agreement step is
// ablated and the explorer switches to the targeted second-order search,
// finds a membership-agreement counterexample, shrinks it to a locally
// minimal reproducer, and writes a replayable JSON artifact.
//
// Exploration at scale: --exhaustive switches depth 2 to the full
// base x second cross product with equivalence dedup on; --shard i/N
// runs one slice of the deterministic unit order; --frontier FILE
// checkpoints progress for resume-after-kill; --merge OUT IN...
// combines completed shard frontiers into a file byte-identical to an
// unsharded run's.  One engine runs every search: --dedup, --frontier
// and --stop-after never change what is explored, and the targeted
// search and random walks refuse --shard (exit 2) rather than explore a
// different space.
//
// Exit codes: 0 = exploration clean (or replay reproduced / merge ok),
// 1 = violation found (artifact written) or replay mismatch,
// 2 = usage/IO error (a malformed flag value, --nodes outside
// [2, kMaxNodes], a configuration explore() rejects, an unwritable
// frontier).
//
// Aggregate output is byte-identical for any --threads value (campaign
// runner determinism); the printed aggregate hash makes that checkable
// from the shell.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "campaign/cli.hpp"
#include "check/artifact.hpp"
#include "check/explore.hpp"
#include "check/frontier.hpp"
#include "check/shrink.hpp"
#include "obs/perfetto.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace canely;

void usage(std::ostream& os) {
  os << "usage: check_explorer [options]\n"
        "  --threads N         worker threads (0 = hardware concurrency)\n"
        "  --seed S            master seed for random walks\n"
        "  --nodes N           scenario size (default 8)\n"
        "  --duration-ms T     override scenario duration (default 160)\n"
        "  --no-fda            ablate FDA agreement (defaults --depth 2)\n"
        "  --depth D           1 = exhaustive single fault, 2 = targeted\n"
        "  --max-frames N      cap targeted attempts (0 = all)\n"
        "  --max-victim-sets N cap victim subsets per attempt (0 = all)\n"
        "  --max-bases N       depth 2: cap bases examined (0 = all)\n"
        "  --targets N         depth 2: seconds per base (0 = all)\n"
        "  --random-walks N    extra seeded multi-fault scripts\n"
        "  --quick             small smoke budget\n"
        "  --exhaustive        depth-2 full cross product, dedup on\n"
        "  --dedup/--no-dedup  equivalence-class dedup and rejoin\n"
        "  --naive             cost out naive re-run-from-zero (bench)\n"
        "  --shard i/N         run slice i of an N-way unit partition\n"
        "  --frontier FILE     checkpoint/resume frontier file\n"
        "  --checkpoint N      units per frontier checkpoint (default 16)\n"
        "  --checkpoint-secs S also checkpoint every S seconds of wall\n"
        "                      time (slow cells; default off)\n"
        "  --telemetry FILE    append live canely-telemetry-1 JSONL\n"
        "                      snapshots (watch with tools/canely_top)\n"
        "  --telemetry-period MS  snapshot period (default 500, 0 = one\n"
        "                      final snapshot only)\n"
        "  --stop-after N      stop after N units (frontier test hook)\n"
        "  --cache-cells N     prefix-replay cache capacity (default 64)\n"
        "  --verify-every N    re-execute every N-th dedup skip, rejoin and\n"
        "                      restored unit (tripwire)\n"
        "  --merge OUT IN...   merge completed shard frontiers into OUT\n"
        "  --no-shrink         keep the first violating script as found\n"
        "  --artifact FILE     counterexample output "
        "(default check_counterexample.json)\n"
        "  --replay FILE       replay an artifact and verify it\n"
        "  --trace-out FILE    Perfetto timeline of the final checked run\n"
        "                      (counterexample if found, else fault-free);\n"
        "                      with --replay: re-export the artifact's\n"
        "                      embedded flight recording\n";
}

/// Re-run `script` under an observability recorder and write the Perfetto
/// trace_event JSON.  Returns false on validation or IO failure.
bool write_trace(const check::ScenarioConfig& scenario,
                 const check::FaultScript& script, const std::string& path) {
  obs::Recorder recorder;
  (void)check::run_checked(scenario, script, /*want_tx_log=*/false,
                           &recorder);
  const auto events = obs::build_trace_events(recorder.ring());
  const auto check_result = obs::validate_trace_events(events);
  if (!check_result.ok) {
    std::cerr << "trace validation failed: " << check_result.error << "\n";
    return false;
  }
  std::ofstream out{path};
  if (!out) {
    std::cerr << "trace: cannot write " << path << "\n";
    return false;
  }
  out << obs::render_trace_json(events, &recorder.metrics(),
                                recorder.ring());
  std::cout << "trace written: " << path << " (" << recorder.ring().size()
            << " events, " << recorder.ring().dropped() << " dropped)\n";
  return true;
}

/// Parse a whole flag value as a number; anything else (junk, trailing
/// characters, a sign an unsigned flag cannot take, overflow) is a usage
/// error: exit 2 with the usage text.
template <typename T>
void parse_number(const std::string& flag, const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    std::cerr << flag << " wants a number (got '" << text << "')\n";
    usage(std::cerr);
    std::exit(2);
  }
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Re-export the artifact's embedded flight recording as Perfetto JSON —
/// no re-run: the archived ring is replayed through the same
/// build/validate/render pipeline a live run uses, with the original
/// capacity and drop count standing in for the live ring.
bool export_flight(const check::FlightRecording& flight,
                   const std::string& path) {
  obs::EventRing ring{flight.ring_capacity};
  for (const obs::Event& ev : flight.events) ring.push(ev);
  const auto events = obs::build_trace_events(ring);
  const auto check_result = obs::validate_trace_events(events);
  if (!check_result.ok) {
    std::cerr << "flight trace validation failed: " << check_result.error
              << "\n";
    return false;
  }
  obs::RingStats stats;
  stats.capacity = flight.ring_capacity;
  stats.recorded = flight.events.size();
  stats.dropped = flight.dropped;
  std::ofstream out{path};
  if (!out) {
    std::cerr << "trace: cannot write " << path << "\n";
    return false;
  }
  out << obs::render_trace_json(
      events, flight.has_metrics ? &flight.metrics : nullptr, stats);
  std::cout << "flight trace written: " << path << " ("
            << flight.events.size() << " archived events, "
            << flight.dropped << " dropped at record time)\n";
  return true;
}

int replay(const std::string& path, const std::string& trace_path) {
  check::Artifact artifact;
  try {
    artifact = check::load_artifact(path);
  } catch (const std::exception& e) {
    std::cerr << "replay: " << e.what() << "\n";
    return 2;
  }
  const check::RunResult run =
      check::run_checked(artifact.scenario, artifact.script);
  bool monitor_fired = false;
  for (const check::Violation& v : run.violations) {
    if (v.monitor == artifact.monitor) monitor_fired = true;
  }
  const bool hash_ok = run.trace_hash == artifact.trace_hash;
  std::cout << "replay " << path << "\n"
            << "  monitor " << artifact.monitor
            << (monitor_fired ? " VIOLATED (as recorded)" : " did NOT fire")
            << "\n"
            << "  trace hash " << hex(run.trace_hash)
            << (hash_ok ? " == recorded" : " != recorded ") << "\n";
  for (const check::Violation& v : run.violations) {
    std::cout << "  violation [" << v.monitor << "] at " << v.when << ": "
              << v.detail << "\n";
  }
  if (!trace_path.empty()) {
    if (artifact.flight.present) {
      if (!export_flight(artifact.flight, trace_path)) return 2;
    } else {
      std::cout << "no flight recording in artifact (canely-check-1?); "
                   "tracing a fresh replay run\n";
      if (!write_trace(artifact.scenario, artifact.script, trace_path)) {
        return 2;
      }
    }
  }
  if (monitor_fired && hash_ok) {
    std::cout << "replay: reproduced\n";
    return 0;
  }
  std::cout << "replay: MISMATCH\n";
  return 1;
}

int merge(const std::string& out, const std::vector<std::string>& inputs) {
  try {
    std::vector<check::FrontierFile> shards;
    shards.reserve(inputs.size());
    for (const std::string& path : inputs) {
      shards.push_back(check::load_frontier(path));
    }
    const check::FrontierFile merged = check::merge_frontiers(shards);
    check::write_frontier(out, merged);
    std::size_t violations = 0;
    for (const check::FrontierRecord& r : merged.records) {
      if (r.violated) ++violations;
    }
    std::cout << "merged " << shards.size() << " shard frontier(s) -> "
              << out << "\n"
              << "records merged:         " << merged.records.size() << "\n"
              << "violations found:       " << violations << "\n"
              << "aggregate hash:         " << hex(merged.aggregate) << "\n";
    if (merged.partial) {
      std::cout << "WARNING: merged frontier is PARTIAL — budget caps "
                   "truncated the space\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "merge: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  check::ExploreConfig cfg;
  std::size_t nodes = 8;
  std::int64_t duration_ms = 0;
  bool fda_on = true;
  bool depth_set = false;
  bool do_shrink = true;
  std::string artifact_path = "check_counterexample.json";
  std::string replay_path;
  std::string trace_path;
  std::string telemetry_path;
  std::uint64_t telemetry_period_ms = 500;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto num = [&](auto& out) { parse_number(arg, next(arg.c_str()), out); };
    if (arg == "--threads") {
      num(cfg.threads);
    } else if (arg == "--seed") {
      num(cfg.seed);
    } else if (arg == "--nodes") {
      num(nodes);
    } else if (arg == "--duration-ms") {
      num(duration_ms);
    } else if (arg == "--no-fda") {
      fda_on = false;
    } else if (arg == "--depth") {
      num(cfg.depth);
      depth_set = true;
    } else if (arg == "--max-frames") {
      num(cfg.max_frames);
    } else if (arg == "--max-victim-sets") {
      num(cfg.max_victim_sets);
    } else if (arg == "--max-bases") {
      num(cfg.max_bases);
    } else if (arg == "--targets") {
      num(cfg.depth2_targets);
    } else if (arg == "--random-walks") {
      num(cfg.random_walks);
    } else if (arg == "--quick") {
      cfg.max_frames = 24;
      cfg.max_victim_sets = 16;
      cfg.max_bases = 48;
      cfg.depth2_targets = 4;
    } else if (arg == "--exhaustive") {
      cfg.exhaustive = true;
      cfg.dedup = true;
      cfg.depth = 2;
      depth_set = true;
    } else if (arg == "--dedup") {
      cfg.dedup = true;
    } else if (arg == "--no-dedup") {
      cfg.dedup = false;
    } else if (arg == "--naive") {
      cfg.naive_rerun = true;
    } else if (arg == "--shard") {
      if (!campaign::parse_shard(next("--shard"), cfg.shard_index,
                                 cfg.shard_count)) {
        std::cerr << "--shard wants i/N with i < N (got '" << argv[i]
                  << "')\n";
        return 2;
      }
    } else if (arg == "--frontier") {
      cfg.frontier_path = next("--frontier");
    } else if (arg == "--checkpoint") {
      num(cfg.checkpoint_every);
    } else if (arg == "--checkpoint-secs") {
      num(cfg.checkpoint_secs);
    } else if (arg == "--telemetry") {
      telemetry_path = next("--telemetry");
    } else if (arg == "--telemetry-period") {
      num(telemetry_period_ms);
    } else if (arg == "--stop-after") {
      num(cfg.stop_after_units);
    } else if (arg == "--cache-cells") {
      num(cfg.prefix_cache_cells);
    } else if (arg == "--verify-every") {
      num(cfg.dedup_verify_every);
    } else if (arg == "--merge") {
      const std::string out = next("--merge");
      std::vector<std::string> inputs;
      while (i + 1 < argc) inputs.emplace_back(argv[++i]);
      if (inputs.empty()) {
        std::cerr << "--merge wants OUT followed by at least one input\n";
        return 2;
      }
      return merge(out, inputs);
    } else if (arg == "--no-shrink") {
      do_shrink = false;
    } else if (arg == "--artifact") {
      artifact_path = next("--artifact");
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (!replay_path.empty()) return replay(replay_path, trace_path);
  if (nodes < 2 || nodes > can::kMaxNodes) {
    std::cerr << "--nodes wants 2.." << can::kMaxNodes << " (got " << nodes
              << ")\n";
    usage(std::cerr);
    return 2;
  }

  cfg.scenario = check::ScenarioConfig::membership(nodes, fda_on);
  if (duration_ms > 0) cfg.scenario.duration = sim::Time::ms(duration_ms);
  if (!fda_on && !depth_set) cfg.depth = 2;

  std::unique_ptr<obs::Telemetry> telemetry;
  if (!telemetry_path.empty()) {
    obs::TelemetryConfig tcfg;
    tcfg.path = telemetry_path;
    tcfg.sample_period_ms = telemetry_period_ms;
    tcfg.label = "explore";
    tcfg.shard_index = cfg.shard_index;
    tcfg.shard_count = cfg.shard_count == 0 ? 1 : cfg.shard_count;
    tcfg.frontier_path = cfg.frontier_path;
    telemetry = std::make_unique<obs::Telemetry>(std::move(tcfg));
    cfg.telemetry = telemetry.get();
  }
  // Period 0 = no sampling thread; leave exactly one line at exit.
  struct FinalSample {
    obs::Telemetry* t{nullptr};
    ~FinalSample() {
      if (t != nullptr) (void)t->sample_now();
    }
  } final_sample{telemetry_period_ms == 0 ? telemetry.get() : nullptr};

  std::cout << "exploring n=" << nodes << " membership scenario, FDA "
            << (fda_on ? "on" : "OFF (ablated)") << ", depth " << cfg.depth
            << (cfg.exhaustive ? " (exhaustive)" : "") << ", threads ";
  if (cfg.threads == 0) {
    std::cout << "auto";
  } else {
    std::cout << cfg.threads;
  }
  if (cfg.shard_count > 1) {
    std::cout << ", shard " << cfg.shard_index << "/" << cfg.shard_count;
  }
  std::cout << "\n";

  check::ExploreResult result;
  try {
    result = check::explore(cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (result.resumed) {
    std::cout << "resumed from frontier:  " << cfg.frontier_path << "\n";
  }
  std::cout << "frames in fault window: " << result.frames_in_window
            << " (targeted " << result.frames_targeted << ")\n"
            << "placements enumerated:  " << result.placements << "\n"
            << "checked runs executed:  " << result.runs << "\n";
  if (cfg.dedup) {
    std::cout << "probe runs:             " << result.probe_runs << " ("
              << result.prefix_cache_hits << " cache hits)\n"
              << "equivalence classes:    " << result.dedup_classes << " ("
              << result.dedup_skips << " units skipped without simulation)\n"
              << "rejoined units:         " << result.rejoined
              << " (stopped on their base trajectory)\n";
  }
  if (!cfg.naive_rerun) {
    std::cout << "prefix runs:            " << result.prefix_runs << " ("
              << result.attempts_skipped
              << " attempts skipped by restored units)\n";
  }
  if (cfg.dedup_verify_every != 0) {
    std::cout << "dedup tripwire:         " << result.dedup_verified
              << " re-executed, " << result.dedup_mismatches
              << " mismatches\n";
  }
  std::cout << "violations found:       " << result.violations.size() << "\n"
            << "aggregate hash:         " << hex(result.aggregate_hash)
            << "\n";
  if (result.partial) {
    std::cout << "WARNING: PARTIAL exploration — budget caps truncated the "
                 "space:\n";
    if (result.dropped_frames != 0) {
      std::cout << "  dropped " << result.dropped_frames
                << " in-window attempts (--max-frames " << cfg.max_frames
                << ")\n";
    }
    if (result.dropped_victim_sets != 0) {
      std::cout << "  dropped " << result.dropped_victim_sets
                << " victim subsets (--max-victim-sets "
                << cfg.max_victim_sets << ")\n";
    }
    if (result.dropped_bases != 0) {
      std::cout << "  dropped " << result.dropped_bases
                << " depth-2 bases (--max-bases " << cfg.max_bases << ")\n";
    }
    if (result.dropped_targets != 0) {
      std::cout << "  dropped " << result.dropped_targets
                << " depth-2 seconds (--targets " << cfg.depth2_targets
                << ")\n";
    }
    if (!cfg.frontier_path.empty()) {
      std::cout << "  frontier file is marked \"partial\": true\n";
    }
  } else if (result.frames_targeted < result.frames_in_window) {
    std::cout << "note: budget caps dropped "
              << result.frames_in_window - result.frames_targeted
              << " eligible frames — NOT an exhaustive exploration\n";
  }

  if (result.violations.empty()) {
    std::cout << "exploration clean: no invariant violated\n";
    if (!trace_path.empty() &&
        !write_trace(cfg.scenario, check::FaultScript{}, trace_path)) {
      return 2;
    }
    return 0;
  }

  const check::FoundViolation& found = result.violations.front();
  std::cout << "first violation (run " << found.run_index << ") ["
            << found.violation.monitor << "]: " << found.violation.detail
            << "\n";

  check::FaultScript script = found.script;
  check::Violation violation = found.violation;
  if (do_shrink) {
    const check::ShrinkResult shrunk =
        check::shrink(cfg.scenario, script, violation.monitor);
    std::cout << "shrunk " << script.size() << " -> "
              << shrunk.script.size() << " fault events in "
              << shrunk.probes << " probes"
              << (shrunk.locally_minimal ? " (locally minimal)" : "")
              << "\n";
    obs::telemetry_add(cfg.telemetry, obs::TelemetryCounter::kShrinkSteps,
                       shrunk.probes);
    script = shrunk.script;
    violation = shrunk.violation;
  }

  // Flight recorder: one final run of the (shrunk) counterexample under a
  // Recorder supplies both the canonical trace hash and the event
  // ring + metrics archived into the artifact.
  obs::Recorder flight_recorder;
  const check::RunResult flight_run = check::run_checked(
      cfg.scenario, script, /*want_tx_log=*/false, &flight_recorder);

  check::Artifact artifact;
  artifact.scenario = cfg.scenario;
  artifact.script = script;
  artifact.monitor = violation.monitor;
  artifact.trace_hash = flight_run.trace_hash;
  artifact.violation = violation;
  artifact.flight.present = true;
  artifact.flight.ring_capacity = flight_recorder.ring().capacity();
  artifact.flight.dropped = flight_recorder.ring().dropped();
  for (std::size_t i = 0; i < flight_recorder.ring().size(); ++i) {
    artifact.flight.events.push_back(flight_recorder.ring().at(i));
  }
  artifact.flight.has_metrics = true;
  artifact.flight.metrics = flight_recorder.metrics().snapshot_json(true);
  try {
    check::write_artifact(artifact_path, artifact);
  } catch (const std::exception& e) {
    std::cerr << "artifact: " << e.what() << "\n";
    return 2;
  }
  std::cout << "artifact written: " << artifact_path << "\n"
            << "replay with: check_explorer --replay " << artifact_path
            << "\n";
  if (!trace_path.empty() &&
      !write_trace(cfg.scenario, script, trace_path)) {
    return 2;
  }
  return 1;
}
