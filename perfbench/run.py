#!/usr/bin/env python3
"""CANELy benchmark: explorer throughput and time to a counterexample verdict.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Workloads (perfbench/README.md says why each exists and which layers it
stresses or bypasses):

    explore_exhaustive  check_explorer --exhaustive, n=8, FDA on, on the
                        strided slice seed % 5 of the first 500 depth-1 bases
    explore_ablation    check_explorer --no-fda --nodes 10 with 1000 random
                        walks seeded by the seed, then --replay of the
                        written artifact

--trace 0 measures the end-to-end metrics with no instrumentation on,
repeating the workload until --seconds have passed and reporting medians.
--trace 1 is the separate traced run: it times calls into each layer
(perfbench_layers), reads the counters the layers expose, runs the
membership shootout grid at the seed (net, baselines), and fails the run
when a traced tool's exact counts differ from the untraced run's.
--self-check runs every workload at a tiny size in both modes and checks
that every metric in BENCHMARK.json is printed with its unit.

The measured binaries are built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench-release (default .bench_build) at
CMAKE_BUILD_TYPE=Release.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Exit 0 when a result
was printed; 2 when the checkout cannot be built or a tool misbehaves, in
which case no result is printed.
"""

import argparse
import collections
import functools
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 2  # perfbench_layers' kThreads matches it

# explore_exhaustive: depth-2 bases 0..508 are violation-free with FDA on;
# base 509 is the first whose second faults trip detection-latency (see
# README).  The seed picks one of SLICES equal strided slices of the first
# SLICE_BASES bases.
SLICE_BASES = 500
SLICES = 5
ABLATION_NODES = 10
ABLATION_WALKS = 1000
SETUP_REPS = 31
STACK_REPS = 1500
RUN_BUDGET_S = 175  # one measured run, after the build, must end by then
WORK_ROOT = None  # scratch directory inside the build tree, set by main()
DEADLINE = None  # perf_counter() value a measured run must finish by


class ToolError(Exception):
    """The checkout or a measured binary misbehaved: no result."""


# -- end-to-end metric and per-layer metric declarations ---------------------

def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(kind):
    return {m["name"]: m["unit"] for m in bench_spec()[kind]}


# -- processes ---------------------------------------------------------------

Proc = collections.namedtuple("Proc", "rc wall_s rss_mb out")
Started = collections.namedtuple("Started", "cmd popen killer t0 out_path")


def start_proc(cmd, work):
    """Start cmd; finish_proc() waits for it.  The child is killed if it
    would overrun the run's deadline."""
    timeout = None
    if DEADLINE is not None:
        timeout = DEADLINE - time.perf_counter()
        if timeout <= 0:
            raise ToolError("run budget of %d s exhausted" % RUN_BUDGET_S)
    out_path = os.path.join(work, os.path.basename(cmd[0]) + ".out")
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                             cwd=work)
    killer = threading.Timer(timeout, p.kill) if timeout else None
    if killer:
        killer.start()
    return Started(cmd, p, killer, t0, out_path)


def finish_proc(s):
    """Wait for a started child; its wall time, exit code and peak RSS."""
    try:
        _, status, usage = os.wait4(s.popen.pid, 0)
    finally:
        if s.killer:
            s.killer.cancel()
    wall = time.perf_counter() - s.t0
    s.popen.returncode = rc = os.waitstatus_to_exitcode(status)  # reaped
    with open(s.out_path) as f:
        text = f.read()
    if rc < 0:
        raise ToolError("%s killed by signal %d\n%s"
                        % (s.cmd[0], -rc, text[-2000:]))
    return Proc(rc, wall, usage.ru_maxrss / 1024.0, text)


def run_proc(cmd, work):
    return finish_proc(start_proc(cmd, work))


def check_sources():
    need = ["CMakeLists.txt", "src/CMakeLists.txt",
            "bench/check_explorer.cpp", "bench/membership_shootout.cpp"]
    missing = [p for p in need if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise ToolError("not a CANELy source checkout (missing %s)"
                        % ", ".join(missing))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build():
    """Configure and build the measured binaries (incremental)."""
    check_sources()
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", bdir, "-j", "4", "--target", "check_explorer",
         "membership_shootout", "perfbench_layers"],
    ]
    if os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps = steps[1:]
    with open(log, "w") as f:
        for step in steps:
            if subprocess.run(step, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log) as g:
                    tail = g.read()[-3000:]
                raise ToolError("build failed: %s\n%s" % (" ".join(step), tail))
    return os.path.join(bdir, "bin")


def build_info(bindir):
    cache = {}
    with open(os.path.join(os.path.dirname(bindir), "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, cwd=ROOT)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " "
                      + cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip(),
        "generator": cache.get("CMAKE_GENERATOR", ""),
        "commit": commit,
        "source_sha256": source_digest(),
        "threads": THREADS,
    }


def source_digest():
    """Digest of every file the measured binaries are built from."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, n) for n in files]
    paths += [os.path.join(ROOT, "bench", n)
              for n in ("check_explorer.cpp", "membership_shootout.cpp")]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


# -- output parsing ----------------------------------------------------------

def grab(text, pattern, cast=int):
    m = re.search(pattern, text, re.M)
    if not m:
        raise ToolError("unexpected check_explorer output (no %r):\n%s"
                        % (pattern, text[-2000:]))
    return cast(m.group(1))


def explorer_counts(text):
    c = {
        "placements": grab(text, r"^placements enumerated:\s+(\d+)"),
        "checked_runs": grab(text, r"^checked runs executed:\s+(\d+)"),
        "violations": grab(text, r"^violations found:\s+(\d+)"),
        "aggregate": grab(text, r"^aggregate hash:\s+(0x[0-9a-f]+)", str),
    }
    if re.search(r"^probe runs:", text, re.M):
        c["probe_runs"] = grab(text, r"^probe runs:\s+(\d+)")
        c["classes"] = grab(text, r"^equivalence classes:\s+(\d+)")
        c["dedup_skips"] = grab(text, r"\((\d+) units skipped")
    return c


def last_json_line(path):
    with open(path) as f:
        lines = [l for l in f if l.strip()]
    if not lines:
        raise ToolError("empty telemetry file %s" % path)
    return json.loads(lines[-1])


# -- workloads: one untraced repetition each ---------------------------------

class Workload:
    def __init__(self, name, seed, bindir, work, tiny):
        self.name, self.seed, self.bin, self.work = name, seed, bindir, work
        self.tiny = tiny

    def exe(self, name):
        return os.path.join(self.bin, name)

    def slice_args(self):
        """explore_exhaustive: strided slice seed % SLICES of the bases."""
        bases = 10 if self.tiny else SLICE_BASES
        return ["--exhaustive", "--max-bases", str(bases), "--shard",
                "%d/%d" % (self.seed % SLICES, SLICES), "--no-shrink",
                "--threads", str(THREADS)]

    def ablation_nodes(self):
        return 8 if self.tiny else ABLATION_NODES

    def ablation_walks(self):
        return 20 if self.tiny else ABLATION_WALKS

    def ablation_args(self):
        return ["--no-fda", "--nodes", str(self.ablation_nodes()),
                "--random-walks", str(self.ablation_walks()),
                "--seed", str(self.seed), "--threads", str(THREADS)]

    def setup_cmd(self):
        """A launch that does the workload's set-up and stops at its first
        unit: process start, scenario, fault-free probe, enumeration."""
        if self.name == "explore_exhaustive":
            return [self.exe("check_explorer")] + self.slice_args() + \
                ["--stop-after", "1"]
        return [self.exe("check_explorer"), "--no-fda", "--nodes",
                str(self.ablation_nodes()), "--threads", str(THREADS),
                "--max-bases", "1", "--targets", "1", "--max-victim-sets",
                "1", "--artifact", "setup.json"]

    def setup_launch(self):
        p = run_proc(self.setup_cmd(), self.work)
        if p.rc not in (0, 1):
            raise ToolError("set-up launch exit %d\n%s"
                            % (p.rc, p.out[-2000:]))
        return p.wall_s

    def explorer(self, args):
        p = run_proc([self.exe("check_explorer")] + args, self.work)
        if p.rc not in (0, 1):
            raise ToolError("check_explorer exit %d\n%s"
                            % (p.rc, p.out[-2000:]))
        return p, explorer_counts(p.out)

    def rep(self, extra=()):
        """One untraced repetition (or traced, with telemetry flags)."""
        if self.name == "explore_exhaustive":
            p, c = self.explorer(self.slice_args() + list(extra))
            ok = p.rc == 0 and c["violations"] == 0 and \
                "exploration clean" in p.out
            return {"search_wall_s": p.wall_s, "verdict_s": p.wall_s,
                    "rss_mb": p.rss_mb, "counts": c,
                    "attempted": c["placements"],
                    "failed": 0 if ok else max(1, c["violations"])}
        art = os.path.join(self.work, "counterexample.json")
        p, c = self.explorer(self.ablation_args() + ["--artifact", art])
        m = re.search(r"^first violation \(run \d+\) \[([a-z-]+)\]", p.out,
                      re.M)
        c["monitor"] = m.group(1) if m else None
        m = re.search(r"^shrunk (\d+) -> (\d+) fault events in (\d+) probes",
                      p.out, re.M)
        c["shrunk"] = [int(x) for x in m.groups()] if m else None
        r = None
        if p.rc == 1 and os.path.isfile(art):
            r = run_proc([self.exe("check_explorer"), "--replay", art],
                         self.work)
        c["replay"] = "reproduced" if r is not None and r.rc == 0 and \
            "replay: reproduced" in r.out else "not reproduced"
        # check_explorer exits 1 on a found violation by design.
        ok = p.rc == 1 and c["monitor"] == "view-consistency" and \
            c["shrunk"] is not None and c["shrunk"][1] == 2 and \
            c["replay"] == "reproduced"
        return {"search_wall_s": p.wall_s,
                "verdict_s": p.wall_s + (r.wall_s if r else 0.0),
                "rss_mb": max(p.rss_mb, r.rss_mb if r else 0.0),
                "counts": c, "attempted": 1, "failed": 0 if ok else 1}


def gated(counts):
    """Exact counts gated between runs; the aggregate hash is only shown
    (a state-hash change may legitimately move it)."""
    return {k: v for k, v in counts.items() if k != "aggregate"}


# -- trace 0 ---------------------------------------------------------------

def run_untraced(w, seconds):
    # The SETUP_REPS set-up launches are spread between the repetitions, so
    # set-up and search sample the same stretch of a host whose speed drifts.
    setups, reps = [], []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        reps.append(w.rep())
        share = min(1.0, (time.perf_counter() - t0) / seconds)
        while len(setups) < math.ceil(SETUP_REPS * share):
            setups.append(w.setup_launch())
    setup = statistics.median(setups)
    first = gated(reps[0]["counts"])
    repeat_ok = all(gated(r["counts"]) == first for r in reps)
    # The search wall excludes the set-up its launch also paid.
    rate = statistics.median(
        r["counts"]["placements"] / max(r["search_wall_s"] - setup, 1e-9)
        for r in reps)
    metrics = {
        "setup_s": setup,
        "placements_per_s": rate,
        "counterexample_s": statistics.median(r["verdict_s"] for r in reps),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
    }
    print("digest %s: %s" % (w.name, json.dumps(first, sort_keys=True)))
    print("aggregate hash (shown, not gated): %s"
          % sorted({r["counts"]["aggregate"] for r in reps}))
    print("repetitions: %d; counterexample_s each: %s"
          % (len(reps), ", ".join("%.3f" % r["verdict_s"] for r in reps)))
    if not repeat_ok:
        print("FAIL: exact counts differ between repetitions",
              file=sys.stderr)
    return (metrics, sum(r["attempted"] for r in reps),
            sum(r["failed"] for r in reps), repeat_ok)


# -- trace 1: per-layer tools ------------------------------------------------

def layer_work():
    work = os.path.join(WORK_ROOT, "layers")
    os.makedirs(work, exist_ok=True)
    return work


def layers(bindir, *args):
    p = run_proc([os.path.join(bindir, "perfbench_layers")]
                 + [str(a) for a in args], layer_work())
    if p.rc != 0:
        raise ToolError("perfbench_layers %s exit %d\n%s"
                        % (args[0], p.rc, p.out[-2000:]))
    out = json.loads(p.out.strip().splitlines()[-1])
    out["proc_wall_s"] = p.wall_s
    return out


# The shared layer runs are memoized so --self-check runs each once.
@functools.lru_cache(maxsize=None)
def layer_stack(bindir, reps):
    return layers(bindir, "stack", "--reps", reps)


@functools.lru_cache(maxsize=None)
def layer_counterexample(bindir, nodes, walks, seed):
    tel = os.path.join(layer_work(), "ce-telemetry.jsonl")
    if os.path.exists(tel):
        os.remove(tel)
    out = layers(bindir, "counterexample", "--nodes", nodes, "--walks", walks,
                 "--seed", seed, "--artifact",
                 os.path.join(layer_work(), "ce-artifact.json"),
                 "--telemetry", tel)
    if not out.get("found"):
        raise ToolError("perfbench_layers counterexample found no violation")
    out["telemetry"] = last_json_line(tel)
    return out


@functools.lru_cache(maxsize=None)
def shootout_layers(bindir, seed, quick):
    """The grid rebuilt cell by cell, and membership_shootout at the same
    medium seed (wall time and curves).  The two run side by side: each
    grid's wall is its one gossip-n1024 cell, whose time the other process
    does not move (README), so the pair costs one grid's wall."""
    work = layer_work()
    path = os.path.join(work, "shootout.json")
    quick_arg = ["--quick"] if quick else []
    shootout = start_proc([os.path.join(bindir, "membership_shootout"),
                           "--threads", str(THREADS), "--seed", str(seed),
                           "--json", path] + quick_arg, work)
    try:
        cells = layers(bindir, "cells", "--seed", seed, *quick_arg)
    except BaseException:
        shootout.popen.kill()
        shootout.popen.wait()
        if shootout.killer:
            shootout.killer.cancel()
        raise
    p = finish_proc(shootout)
    if p.rc not in (0, 1) or not os.path.isfile(path):
        raise ToolError("membership_shootout exit %d\n%s"
                        % (p.rc, p.out[-2000:]))
    with open(path) as f:
        rows = json.load(f)["cells"]
    names = ["canely", "swim", "gossip", "rapid"]
    curves = {}
    for cell in rows:
        axes = cell["params"]
        key = "%s-n%d" % (names[int(axes["protocol"])], int(axes["nodes"]))
        curves[key] = cell["metrics"]
    return cells, {"wall_s": p.wall_s, "curves": curves}


CURVE_KEYS = ["detection_first_ms", "detection_last_ms", "bytes_per_node_s",
              "view_changes", "false_positives", "converged", "measured"]


def curves_match(cells, grid):
    """The rebuilt cells reproduce the shootout's curves exactly."""
    mine = {"%s-n%d" % (c["protocol"], c["nodes"]): c for c in cells["cells"]}
    bad = [k for k, v in grid["curves"].items()
           if k not in mine or any(mine[k][x] != v[x] for x in CURVE_KEYS)]
    for k in bad:
        print("FAIL: cell %s curves differ from membership_shootout" % k,
              file=sys.stderr)
    return not bad


def traced_exhaustive(w):
    """check_explorer on the slice with campaign telemetry on."""
    tel = os.path.join(w.work, "explore-telemetry.jsonl")
    if os.path.exists(tel):
        os.remove(tel)
    r = w.rep(["--telemetry", tel, "--telemetry-period", "0"])
    r["telemetry"] = last_json_line(tel)
    return r


def check_metrics(placements, checked_runs, skips, tel):
    """Explorer counters + telemetry stage sums -> check.* metrics."""
    stages = tel["stages"]
    judge = stages["judge"]["sum_us"] / 1e6
    replay = stages["replay"]["sum_us"] / 1e6
    hashing = stages["hash"]["sum_us"] / 1e6
    units = tel["counters"]["units_judged"]
    wall = tel["t_ms"] / 1e3
    return {
        "check.placements": placements,
        "check.sim_units": units,
        "check.probe_runs": checked_runs - units,
        "check.dedup_skip_ratio": skips / placements,
        "check.judge_busy_s": judge,
        "check.judge_us_per_unit": judge * 1e6 / max(units, 1),
        "check.replay_busy_s": replay,
        "check.hash_busy_s": hashing,
        "check.search_wall_s": wall,
        "campaign.utilization": judge / (THREADS * wall),
        "campaign.wait_s": THREADS * (wall - replay - hashing) - judge,
    }


def stack_metrics(st):
    m = {}
    for t in ("n8", "n10"):
        if not st["stack.repeatable." + t]:
            print("FAIL: stack replay %s counts differ between repetitions"
                  % t, file=sys.stderr)
        for k in ("sim.events_per_unit", "can.frames_per_unit",
                  "can.bits_per_unit", "stack.construct_us",
                  "stack.us_per_unit"):
            m["%s.%s" % (k, t)] = st["%s.%s" % (k, t)]
        print("stack %s: unit median %.1f us, p%.1f %.1f us, %d samples"
              % (t, st["stack.us_per_unit." + t], st["stack.tail_pct." + t],
                 st["stack.us_per_unit_tail." + t], st["stack.samples." + t]))
    run_ns = st["stack.run_us.n8"] * 1e3
    m["sim.ns_per_event"] = run_ns / st["sim.events_per_unit.n8"]
    m["can.ns_per_frame"] = run_ns / st["can.frames_per_unit.n8"]
    m["check.harness_us_per_unit"] = \
        st["harness.us_per_unit.n8"] - st["stack.us_per_unit.n8"]
    return m


def ce_metrics(ce):
    return {"check." + k: ce[k] for k in (
        "search_s", "shrink_s", "shrink_probes", "flight_s",
        "artifact_write_s", "artifact_bytes", "artifact_load_s", "replay_s")}


def cell_metrics(cells, grid, not_converged, tiny):
    # A tiny run's --quick grid (n = 8, 32) stands in for n512 and n1024,
    # so the metric names and units are still produced.
    size = {512: 8, 1024: 32} if tiny else {}
    by = {"%s-n%d" % (c["protocol"], c["nodes"]): c for c in cells["cells"]}

    def cell(proto, n):
        return by["%s-n%d" % (proto, size.get(n, n))]

    m = {"shootout_wall_s": grid["wall_s"],
         "baselines.cell_s.canely-n32": cell("canely", 32)["cell_s"],
         "baselines.cells_not_converged": len(not_converged)}
    for proto in ("swim", "gossip", "rapid"):
        for n in (512, 1024):
            m["baselines.cell_s.%s-n%d" % (proto, n)] = cell(proto, n)["cell_s"]
        c = cell(proto, 1024)
        m["net.msgs_delivered.%s-n1024" % proto] = c["msgs_delivered"]
        m["net.ns_per_msg.%s-n1024" % proto] = \
            c["cell_s"] * 1e9 / c["msgs_delivered"]
    g = cell("gossip", 1024)
    m["sim.events.gossip-n1024"] = g["events"]
    m["sim.ns_per_event.gossip-n1024"] = g["cell_s"] * 1e9 / g["events"]
    m["sim.peak_pending.gossip-n1024"] = g["peak_pending"]
    m["baselines.steady_s.gossip-n1024"] = g["steady_s"]
    m["baselines.converge_s.gossip-n1024"] = g["converge_s"]
    return m


def reconcile_explorer(label, cm, st, tag):
    """Thread-seconds of the search: judge (split by layer) + serial stages
    + worker wait; the residual is judge time the layers do not explain."""
    wall = cm["check.search_wall_s"]
    units = cm["check.sim_units"]
    per_unit = st["stack.us_per_unit." + tag]
    stack = units * per_unit / 1e6
    harness = units * (st["harness.us_per_unit." + tag] - per_unit) / 1e6
    judge = cm["check.judge_busy_s"]
    residual = judge - stack - harness
    print("reconcile %s: %d threads x %.3f s wall = %.3f thread-s = judge "
          "%.3f [stack %d units x %.1f us = %.3f + harness %.3f + residual "
          "%+.3f] + %d x serial (replay %.3f + hash %.3f) + worker wait %.3f"
          % (label, THREADS, wall, THREADS * wall, judge, units, per_unit,
             stack, harness, residual, THREADS, cm["check.replay_busy_s"],
             cm["check.hash_busy_s"], cm["campaign.wait_s"]))
    return abs(residual) / (THREADS * wall)


def reconcile_cells(cells, grid):
    """Thread-seconds of the rebuilt grid: cells + idle tail + residual."""
    wall = cells["wall_s"]
    workers = {}
    for c in cells["cells"]:
        w = workers.setdefault(c["worker"], [0.0, 0.0])
        w[0] += c["cell_s"]
        w[1] = max(w[1], c["end_s"])
    busy = sum(w[0] for w in workers.values())
    idle = sum(wall - w[1] for w in workers.values())
    heavy = max(cells["cells"], key=lambda c: c["cell_s"])
    print("reconcile shootout cells: %d threads x %.3f s wall = %.3f "
          "thread-s = cells %.3f (%s-n%d alone %.3f, %.0f%%) + worker idle "
          "%.3f + residual %+.3f; membership_shootout grid %.3f s"
          % (THREADS, wall, THREADS * wall, busy, heavy["protocol"],
             heavy["nodes"], heavy["cell_s"], 100.0 * heavy["cell_s"] / busy,
             idle, THREADS * wall - busy - idle, grid["wall_s"]))


def run_traced(w):
    """The per-layer run; returns (metrics, attempted, failed, ok)."""
    st = layer_stack(w.bin, 100 if w.tiny else STACK_REPS)
    ce = layer_counterexample(w.bin, w.ablation_nodes(), w.ablation_walks(),
                              w.seed)
    untraced = w.rep()
    uc = untraced["counts"]
    if w.name == "explore_exhaustive":
        traced = traced_exhaustive(w)
        cm = check_metrics(traced["counts"]["placements"],
                           traced["counts"]["checked_runs"],
                           traced["counts"]["dedup_skips"],
                           traced["telemetry"])
        traced_wall = traced["verdict_s"]
        same = gated(traced["counts"]) == gated(uc)
        unexplained = reconcile_explorer(w.name, cm, st, "n8")
    else:
        cm = check_metrics(ce["placements"], ce["runs"], 0, ce["telemetry"])
        traced_wall = ce["proc_wall_s"]
        same = (ce["placements"] == uc["placements"]
                and ce["runs"] == uc["checked_runs"]
                and ce["monitor"] == uc["monitor"]
                and [ce["found_events"], ce["shrunk_events"],
                     ce["shrink_probes"]] == uc["shrunk"]
                and ce["reproduced"] and uc["replay"] == "reproduced")
        unexplained = reconcile_explorer(w.name, cm, st,
                                         "n%d" % w.ablation_nodes())
    overhead = traced_wall - untraced["verdict_s"]
    print("tracing overhead %s: traced %.3f s - untraced %.3f s = %+.3f s"
          % (w.name, traced_wall, untraced["verdict_s"], overhead))

    # Net/baselines layers: the shootout grid, rebuilt cell by cell and
    # checked against membership_shootout at the same seed.  Each cell is
    # one operation, failed when it does not converge.  A tiny run uses
    # the --quick grid.
    cells, grid = shootout_layers(w.bin, w.seed, w.tiny)
    same = curves_match(cells, grid) and same and \
        st["stack.repeatable.n8"] and st["stack.repeatable.n10"]
    reconcile_cells(cells, grid)
    not_converged = sorted(k for k, v in grid["curves"].items()
                           if v["converged"] != 1)
    if not_converged:
        print("shootout cells not converged at seed %d: %s"
              % (w.seed, ", ".join(not_converged)))

    m = dict(cm)
    m.update(stack_metrics(st))
    m.update(ce_metrics(ce))
    m.update(cell_metrics(cells, grid, not_converged, w.tiny))
    m["trace.overhead_s"] = overhead
    m["reconcile.unexplained_share"] = unexplained
    if not same:
        print("FAIL: traced tools' exact counts differ from the untraced "
              "runs", file=sys.stderr)
    return (m, untraced["attempted"] + len(grid["curves"]),
            untraced["failed"] + len(not_converged), same)


# -- entry points --------------------------------------------------------------

def run_workload(name, seed, seconds, trace, bindir, tiny=False):
    work = os.path.join(WORK_ROOT, "%s-%d" % (name, trace))
    os.makedirs(work, exist_ok=True)
    w = Workload(name, seed, bindir, work, tiny)
    if trace:
        metrics, attempted, failed, ok = run_traced(w)
        units = metric_units("per_layer")
    else:
        metrics, attempted, failed, ok = run_untraced(w, seconds)
        units = metric_units("end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise ToolError("metrics not produced: %s" % ", ".join(missing))
    return {
        "correct": bool(ok) and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def self_check(bindir):
    """Every workload at a tiny size, both modes: names, units, parsing."""
    spec = bench_spec()
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            res = run_workload(wl["name"], 1, 1, trace, bindir, tiny=True)
            line = json.dumps(res)
            back = json.loads(line)
            kind = "per_layer" if trace else "end_to_end"
            for m in spec[kind]:
                got = back["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append("%s trace %d: %s" % (wl["name"], trace,
                                                         m["name"]))
            if set(back) != {"correct", "attempted", "failed", "metrics"} \
                    or back["attempted"] < 1 or not back["correct"]:
                problems.append("%s trace %d: result" % (wl["name"], trace))
            print("self-check %s trace %d: %d metrics, correct=%s, "
                  "attempted=%d, failed=%d" % (wl["name"], trace,
                                               len(back["metrics"]),
                                               back["correct"],
                                               back["attempted"],
                                               back["failed"]))
    for p in problems:
        print("self-check: missing or malformed %s" % p, file=sys.stderr)
    print("self-check %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    global WORK_ROOT, DEADLINE
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
            raise ToolError("no BENCHMARK.json at %s" % ROOT)
        names = [w["name"] for w in bench_spec()["workloads"]]
        if not args.self_check and args.workload not in names:
            ap.error("--workload must be one of %s" % ", ".join(names))
        bindir = build()
        print("host: %s" % json.dumps(build_info(bindir), sort_keys=True))
        sys.stdout.flush()
        WORK_ROOT = os.path.join(os.path.dirname(build_dir()),
                                 "work-%d" % os.getpid())
        os.makedirs(WORK_ROOT)
        if args.self_check:
            return self_check(bindir)
        DEADLINE = time.perf_counter() + RUN_BUDGET_S
        res = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, bindir)
    except ToolError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        if WORK_ROOT is not None:
            shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
