#!/usr/bin/env bash
# CI driver: the checks a change must pass before merging.
#
#   tools/ci.sh            run every stage
#   tools/ci.sh tier1      strict build (CANELY_WERROR=ON) + full ctest
#   tools/ci.sh asan       AddressSanitizer + UBSan build, full ctest
#   tools/ci.sh ubsan      UBSan-only build (catches UB that ASan's
#                          shadow memory hides or alters), full ctest
#   tools/ci.sh tsan       ThreadSanitizer build, campaign-runner tests
#                          (the only code that spawns threads) + benches
#                          at --threads 4
#   tools/ci.sh perf       Release build, full perf_core run; regression
#                          guard against the committed BENCH_core.json:
#                          any cell slower than (1 - CANELY_PERF_TOLERANCE,
#                          default 0.30) x baseline fails the stage
#   tools/ci.sh check      Release build of the checker (src/check);
#                          check_explorer --quick must come back clean and
#                          byte-identical across thread counts; the FDA-off
#                          targeted search + walks must not move with
#                          --threads or --frontier; sharded and --no-dedup
#                          depth-2 frontiers must equal the whole run's
#   tools/ci.sh shootout   Release build of bench/membership_shootout;
#                          the --quick grid (4 protocols x n=8,32) must
#                          converge on every cell, emit a structurally
#                          valid trajectory, and be byte-identical across
#                          thread counts
#   tools/ci.sh lint       build canely_lint and run it over src/, tests/,
#                          bench/ and examples/ (zero unsuppressed findings
#                          required; see DESIGN.md §10), then run-clang-tidy
#                          against the exported compile database when
#                          clang-tidy is installed
#
# Each stage uses its own build tree under build-ci/ so the stages never
# poison each other's CMake caches or object files.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"

configure_build_test() {
  local dir="$1" ctest_args="$2"
  shift 2
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  (cd "$dir" && eval ctest --output-on-failure -j "$JOBS" "$ctest_args")
}

stage_tier1() {
  echo "=== tier1: -Werror build + full test suite ==="
  configure_build_test build-ci/tier1 ""
}

stage_asan() {
  echo "=== asan: AddressSanitizer + UBSan, full test suite ==="
  configure_build_test build-ci/asan "" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
}

stage_tsan() {
  echo "=== tsan: ThreadSanitizer over the campaign thread pool ==="
  local dir=build-ci/tsan
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" >/dev/null
  # Only the campaign runner spawns threads; build and exercise exactly
  # the targets that drive its pool, rather than the whole (serial) suite.
  cmake --build "$dir" -j "$JOBS" --target \
    test_campaign fault_campaign fig10_bandwidth \
    ablation_heartbeat ablation_cycle_skip ablation_fda
  "$dir/tests/test_campaign"
  for bench in fault_campaign fig10_bandwidth ablation_heartbeat \
               ablation_cycle_skip ablation_fda; do
    echo "--- tsan: $bench --threads 4 ---"
    "$dir/bench/$bench" --threads 4 --no-json >/dev/null
  done
}

stage_ubsan() {
  echo "=== ubsan: UndefinedBehaviorSanitizer alone, full test suite ==="
  configure_build_test build-ci/ubsan "" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all"
}

stage_perf() {
  echo "=== perf: Release perf_core vs committed BENCH_core.json ==="
  local dir=build-ci/perf
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target perf_core
  local json=build-ci/perf/BENCH_fresh.json
  (cd "$dir" && ./bench/perf_core --json BENCH_fresh.json)
  # Structural validation + regression guard: every expected cell must be
  # present with a positive rate, and no cell may fall more than
  # CANELY_PERF_TOLERANCE (default 30%) below the committed baseline.
  # Absolute numbers are machine-dependent; the tolerance absorbs normal
  # scheduling noise while catching order-of-magnitude regressions.
  # Deterministic work counts (a cell's "work" object) are machine-
  # independent and must match the baseline exactly.
  CANELY_PERF_TOLERANCE="${CANELY_PERF_TOLERANCE:-0.30}" \
    python3 - "$json" "$ROOT/BENCH_core.json" <<'EOF'
import json, os, sys

def rates(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["bench"] == "perf_core", doc.get("bench")
    cells, work = {}, {}
    for cell in doc["cells"]:
        p = cell["params"]
        key = p["scenario"]
        if "nodes" in p:
            key += ":%d" % p["nodes"]
        if "obs" in p:
            key += ":obs%d" % p["obs"]
        if "tel" in p:
            key += ":tel%d" % p["tel"]
        (metric,) = cell["metrics"].values()
        # Best-of rate: on a shared host the max over reps is the least
        # noise-contaminated estimate of the true speed (same estimator
        # the bench uses for the trace-overhead comparison).
        cells[key] = metric["max"]
        if "work" in cell:
            work[key] = cell["work"]
    return cells, work

(fresh, fresh_work), (baseline, baseline_work) = \
    rates(sys.argv[1]), rates(sys.argv[2])
tolerance = float(os.environ["CANELY_PERF_TOLERANCE"])

expected = ["engine_churn", "engine_fifo", "bus_load:8", "bus_load:32",
            "bus_load:64", "membership_cycle:8", "lint_full_tree",
            "net_medium:64", "swim_steady:128", "trace_overhead:obs0",
            "trace_overhead:obs1", "check_explore:8",
            "check_explore_naive:8", "telemetry_overhead:tel0",
            "telemetry_overhead:tel1"]
missing = [k for k in expected if k not in fresh]
assert not missing, f"missing cells: {missing}"
bad = {k: v for k, v in fresh.items() if not v > 0}
assert not bad, f"non-positive rates: {bad}"

# A cell the fresh run emits but the committed baseline lacks means a
# benchmark was added without regenerating BENCH_core.json — that cell
# would silently escape the regression guard forever.  Fail loudly and
# say how to fix it.
unbaselined = sorted(k for k in fresh if k not in baseline)
if unbaselined:
    print("perf baseline is STALE — fresh cells missing from "
          f"{sys.argv[2]}:")
    for k in unbaselined:
        print(f"  {k}: {fresh[k]:.3g}/s has no committed baseline")
    print("fix: rerun `./bench/perf_core --json BENCH_core.json` on the "
          "reference machine and commit the result")
    sys.exit(1)

regressions = []
for key, base in sorted(baseline.items()):
    now = fresh.get(key)
    if now is None:
        regressions.append(f"{key}: cell vanished (baseline {base:.3g}/s)")
        continue
    ratio = now / base
    flag = "REGRESSION" if ratio < 1 - tolerance else "ok"
    print(f"  {key:24s} {now:14.3g}/s  baseline {base:14.3g}/s  "
          f"x{ratio:.2f}  {flag}")
    if ratio < 1 - tolerance:
        regressions.append(f"{key}: {now:.3g}/s is {1 - ratio:.0%} below "
                           f"baseline {base:.3g}/s (tolerance {tolerance:.0%})")
for key in sorted(baseline_work.keys() | fresh_work.keys()):
    now, base = fresh_work.get(key), baseline_work.get(key)
    print(f"  {key:24s} work {now}")
    if now != base:
        regressions.append(f"{key}: work counts {now} differ from "
                           f"baseline {base} (compared exactly)")
if regressions:
    print("perf regression guard FAILED:")
    for r in regressions:
        print("  " + r)
    sys.exit(1)
print(f"perf guard: {len(baseline)} cells within {tolerance:.0%} of baseline")
EOF
}

stage_check() {
  echo "=== check: explorer smoke + thread-count byte-identity ==="
  local dir=build-ci/check
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target check_explorer
  local out1 out4
  out1="$("$dir/bench/check_explorer" --quick --threads 1)"
  out4="$("$dir/bench/check_explorer" --quick --threads 4)"
  echo "$out4"
  local h1 h4
  h1="$(echo "$out1" | grep 'aggregate hash')"
  h4="$(echo "$out4" | grep 'aggregate hash')"
  if [ "$h1" != "$h4" ]; then
    echo "check: aggregate hash differs between thread counts:" >&2
    echo "  threads 1: $h1" >&2
    echo "  threads 4: $h4" >&2
    exit 1
  fi
  echo "check: --quick clean, aggregate byte-identical for 1 and 4 threads"

  # The FDA-off targeted depth-2 search plus random walks: one engine, so
  # --threads and --frontier change nothing — the same placements,
  # violations and aggregate, and cmp-equal artifacts and frontiers.  The
  # --quick space is clean; the clipped one finds a violation.
  local tdir=build-ci/check/targeted
  rm -rf "$tdir" && mkdir -p "$tdir"
  local space t f
  for space in "" "--max-frames 36 --max-victim-sets 2 --targets 2 --max-bases 0"; do
    local ref="" ref_art=""
    for t in 1 4; do
      for f in none frontier; do
        local tag="t${t}_${f}${space:+_clipped}" rc=0 out lines
        local fflag=()
        [ "$f" = frontier ] && fflag=(--frontier "$tdir/$tag.frontier.json")
        # shellcheck disable=SC2086
        out="$("$dir/bench/check_explorer" --no-fda --quick --random-walks 8 \
          $space --threads "$t" "${fflag[@]}" \
          --artifact "$tdir/$tag.artifact.json")" || rc=$?
        if [ "$rc" -gt 1 ]; then
          echo "check: targeted search ($tag) exited $rc" >&2
          exit 1
        fi
        lines="$(echo "$out" |
          grep -E '^(placements enumerated|violations found|aggregate hash):')"
        # No violation, no artifact: compare an empty file then.
        [ -e "$tdir/$tag.artifact.json" ] || : >"$tdir/$tag.artifact.json"
        if [ -z "$ref" ]; then
          ref="$lines" ref_art="$tdir/$tag.artifact.json"
          echo "$lines"
        elif [ "$lines" != "$ref" ] ||
          ! cmp -s "$tdir/$tag.artifact.json" "$ref_art"; then
          echo "check: targeted search $tag differs from $ref_art" >&2
          exit 1
        fi
      done
    done
    if ! cmp -s "$tdir/t1_frontier${space:+_clipped}.frontier.json" \
      "$tdir/t4_frontier${space:+_clipped}.frontier.json"; then
      echo "check: targeted frontier differs between thread counts" >&2
      exit 1
    fi
  done
  echo "check: targeted search + walks identical across threads and frontier"

  # Depth-2 exhaustive smoke: a tightly budgeted cross product must
  # complete, and two shards merged must be byte-identical to the
  # unsharded frontier — the scale engine's sharding contract.
  local fdir=build-ci/check/frontiers
  rm -rf "$fdir" && mkdir -p "$fdir"
  local caps="--exhaustive --max-frames 8 --max-victim-sets 4 \
              --max-bases 8 --targets 2 --no-shrink"
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --frontier "$fdir/all.json" \
    --threads 4 >/dev/null
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --shard 0/2 \
    --frontier "$fdir/s0.json" --threads 1 >/dev/null
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --shard 1/2 \
    --frontier "$fdir/s1.json" --threads 4 >/dev/null
  "$dir/bench/check_explorer" --merge "$fdir/merged.json" \
    "$fdir/s0.json" "$fdir/s1.json" >/dev/null
  if ! cmp -s "$fdir/all.json" "$fdir/merged.json"; then
    echo "check: merged shard frontier differs from the unsharded run" >&2
    exit 1
  fi
  # Dedup and rejoin inherit verdicts; --no-dedup simulates every unit to
  # the end, and its frontier must be byte-identical.
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --no-dedup --frontier "$fdir/full.json" \
    --threads 4 >/dev/null
  if ! cmp -s "$fdir/all.json" "$fdir/full.json"; then
    echo "check: dedup/rejoin frontier differs from the --no-dedup run" >&2
    exit 1
  fi
  # The tripwire re-runs every skip and every rejoin to full length.
  local trip
  # shellcheck disable=SC2086
  trip="$("$dir/bench/check_explorer" $caps --verify-every 1 --threads 4 |
    grep 'dedup tripwire')"
  echo "$trip"
  case "$trip" in
    *" 0 mismatches") ;;
    *) echo "check: dedup/rejoin tripwire mismatch" >&2; exit 1 ;;
  esac
  echo "check: depth-2 exhaustive smoke ok, shard union and --no-dedup" \
    "byte-identical"
}

stage_shootout() {
  echo "=== shootout: membership baselines smoke + thread byte-identity ==="
  local dir=build-ci/shootout
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target membership_shootout
  local j1=build-ci/shootout/shootout_t1.json
  local j4=build-ci/shootout/shootout_t4.json
  # The bench exits nonzero itself if any cell fails to re-converge.
  "$dir/bench/membership_shootout" --quick --threads 1 --json "$j1" >/dev/null
  "$dir/bench/membership_shootout" --quick --threads 4 --json "$j4"
  if ! cmp -s "$j1" "$j4"; then
    echo "shootout: trajectory differs between thread counts" >&2
    exit 1
  fi
  # Structural validation: every protocol x n cell present, converged,
  # with plausible curve points (positive bandwidth, nonnegative
  # detection latency, no false positives at these loss rates).
  python3 - "$j4" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "membership_shootout", doc.get("bench")

cells = {(int(c["params"]["protocol"]), int(c["params"]["nodes"])): c["metrics"]
         for c in doc["cells"]}
protos = {0: "canely", 1: "swim", 2: "gossip", 3: "rapid"}
expected = [(p, n) for p in protos for n in (8, 32)]
missing = [k for k in expected if k not in cells]
assert not missing, f"missing cells: {missing}"
for (p, n), m in sorted(cells.items()):
    name = f"{protos[p]}:{n}"
    assert m["converged"] == 1, f"{name}: survivors never re-agreed"
    assert m["measured"] == 1, f"{name}: quick cells must all be measured"
    assert m["detection_first_ms"] > 0, f"{name}: no detection recorded"
    assert m["detection_last_ms"] >= m["detection_first_ms"], name
    assert m["bytes_per_node_s"] > 0, f"{name}: zero protocol traffic"
    assert m["false_positives"] == 0, f"{name}: false positives"
    assert m["view_changes"] >= n - 1, f"{name}: too few view changes"
print(f"shootout: {len(cells)} cells converged, curves well-formed, "
      "byte-identical across thread counts")
EOF
}

stage_obs() {
  echo "=== obs: scenario trace export, structural + loss validation ==="
  local dir=build-ci/obs
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target canely_scenario_tool
  local trace=build-ci/obs/trace_crash_detection.json
  "$dir/tools/canely_scenario" --trace-out="$trace" \
    "$ROOT/scenarios/crash_detection.scn"
  # The exported timeline must parse as Chrome trace_event JSON, keep
  # every B/E duration pair balanced per track, carry the §6.3 metrics
  # with nonzero values, and record zero drops at the default ring size.
  python3 - "$trace" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

events = doc["traceEvents"]
assert events, "empty traceEvents"

stacks = {}
async_open = {}
last_ts = {}
for ev in events:
    ph = ev["ph"]
    if ph == "M":
        continue
    track = (ev["pid"], ev["tid"])
    ts = ev["ts"]
    assert last_ts.get(track, -1e18) <= ts, f"ts not monotone on {track}"
    last_ts[track] = ts
    if ph == "B":
        stacks.setdefault(track, []).append(ev["name"])
    elif ph == "E":
        stack = stacks.get(track)
        assert stack, f"E without B on {track}"
        stack.pop()
    elif ph == "b":
        async_open[(ev["cat"], ev["id"])] = ev["name"]
    elif ph == "e":
        assert (ev["cat"], ev["id"]) in async_open, "e without b"
        del async_open[(ev["cat"], ev["id"])]
leftover = {t: s for t, s in stacks.items() if s}
assert not leftover, f"unbalanced duration events: {leftover}"

other = doc["otherData"]
assert other["dropped_events"] == 0, \
    f"{other['dropped_events']} events dropped at default ring size"

counters = doc["metrics"]["counters"]
for name in ("els.frames_sent", "heartbeat.implicit"):
    total = counters[name]["total"] if isinstance(counters[name], dict) \
        else counters[name]
    assert total > 0, f"{name} is zero"
detect = doc["metrics"]["histograms"]["fd.detection_latency_us"]
assert detect["count"] > 0, "no detection-latency samples"
print(f"obs: {len(events)} trace events, spans balanced, 0 dropped, "
      f"detection latency max {detect['max']} us over "
      f"{detect['count']} samples")
EOF

  # Campaign telemetry: a sharded depth-2 run must stream valid
  # canely-telemetry-1 JSONL that canely_top can reduce.  The JSONL is
  # validated independently in Python (not through the C++ reader the
  # tool itself uses) so a schema bug in writer AND reader still fails.
  cmake --build "$dir" -j "$JOBS" --target check_explorer canely_top_tool
  local tdir=build-ci/obs/telemetry
  rm -rf "$tdir" && mkdir -p "$tdir"
  local tcaps="--exhaustive --max-frames 8 --max-victim-sets 4 \
               --max-bases 8 --targets 2 --no-shrink"
  local s
  for s in 0 1; do
    # shellcheck disable=SC2086
    "$dir/bench/check_explorer" $tcaps --shard "$s/2" \
      --frontier "$tdir/f$s.json" --telemetry "$tdir/t$s.jsonl" \
      --telemetry-period 50 --threads 2 >/dev/null
  done
  python3 - "$tdir/t0.jsonl" "$tdir/t1.jsonl" <<'EOF'
import json, sys

counters = ["runs", "units_judged", "dedup_skips", "units_resumed",
            "prefix_cache_hits", "prefix_cache_misses", "violations",
            "shrink_steps", "checkpoints", "rejoined"]
stages = ["judge", "replay", "hash", "checkpoint_io"]
total = 0
for path in sys.argv[1:]:
    with open(path) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    assert lines, f"{path}: no snapshots"
    prev_seq = 0
    for snap in lines:
        assert snap["schema"] == "canely-telemetry-1", snap.get("schema")
        assert snap["seq"] > prev_seq, f"{path}: seq not monotone"
        prev_seq = snap["seq"]
        for c in counters:
            assert isinstance(snap["counters"][c], int), c
        for s in stages:
            st = snap["stages"][s]
            assert st["count"] == sum(st["buckets"]), f"{s}: bucket sum"
    last = lines[-1]["counters"]
    assert last["units_judged"] + last["dedup_skips"] > 0, \
        f"{path}: no units accounted"
    assert last["checkpoints"] > 0, f"{path}: no checkpoints recorded"
    total += len(lines)
print(f"obs: {total} telemetry snapshots across 2 shards, schema valid")
EOF
  # canely_top must reduce the same files to a machine-readable status.
  "$dir/tools/canely_top" --once --json "$tdir/t0.jsonl" "$tdir/t1.jsonl" \
    >"$tdir/status.json"
  python3 - "$tdir/status.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "canely-top-1", doc.get("schema")
assert len(doc["shards"]) == 2, doc["shards"]
assert doc["total"]["done"] > 0, "no progress visible"
assert doc["total"]["shards_complete"] == 2, "shards not complete"
print(f"obs: canely_top sees {doc['total']['done']} units done, "
      "both shard frontiers complete")
EOF
}

stage_lint() {
  echo "=== lint: canely_lint whole-program + clang-tidy (when available) ==="
  local dir=build-ci/lint
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target canely_lint_tool
  # Whole-program pass with a per-file index cache (keyed on content
  # hash).  Two runs — the second entirely cache-served — must produce
  # byte-identical reports; exit codes are checked by the diff gate
  # below, not here.
  local cache="$dir/lint-index-cache"
  mkdir -p "$cache"
  local r1="$dir/lint_run1.json" r2="$dir/lint_run2.json"
  "$dir/tools/canely_lint" --root "$ROOT" --whole-program \
    --threads "$JOBS" --index-cache "$cache" --json \
    src tests bench examples tools >"$r1" || true
  "$dir/tools/canely_lint" --root "$ROOT" --whole-program \
    --threads "$JOBS" --index-cache "$cache" --json \
    src tests bench examples tools >"$r2" || true
  if ! cmp -s "$r1" "$r2"; then
    echo "lint: report not byte-stable across cached re-run" >&2
    exit 1
  fi
  # Diff gate: only findings NOT in the committed baseline fail the
  # stage.  The baseline is regenerated with
  #   canely_lint --whole-program --json src tests bench examples tools \
  #     > tools/lint_baseline.json
  # and reviewed like any other diff.
  "$dir/tools/canely_lint" --root "$ROOT" --whole-program \
    --threads "$JOBS" --index-cache "$cache" \
    --diff "$ROOT/tools/lint_baseline.json" \
    src tests bench examples tools
  # clang-tidy runs the generic AST-level checks (.clang-tidy at the repo
  # root) against the compile database the configure step exported.  The
  # default toolchain here is GCC-only, so absence is a skip, not a failure.
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$dir" "$ROOT/src/.*\.cpp"
  elif command -v clang-tidy >/dev/null 2>&1; then
    find "$ROOT/src" -name '*.cpp' -print0 |
      xargs -0 clang-tidy -quiet -p "$dir"
  else
    echo "lint: clang-tidy not installed; skipping the AST-level pass"
  fi
}

main() {
  local stages=("$@")
  if [ ${#stages[@]} -eq 0 ]; then
    stages=(lint tier1 asan ubsan tsan perf check shootout obs)
  fi
  for s in "${stages[@]}"; do
    case "$s" in
      tier1) stage_tier1 ;;
      asan) stage_asan ;;
      ubsan) stage_ubsan ;;
      tsan) stage_tsan ;;
      perf) stage_perf ;;
      check) stage_check ;;
      shootout) stage_shootout ;;
      obs) stage_obs ;;
      lint) stage_lint ;;
      *)
        echo "unknown stage: $s (expected lint, tier1, asan, ubsan, tsan," \
             "perf, check, shootout, or obs)" >&2
        exit 2
        ;;
    esac
  done
  echo "=== ci: all stages passed ==="
}

main "$@"
