#include "obs/perfetto.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "can/bus.hpp"
#include "json/json.hpp"

namespace canely::obs {
namespace {

constexpr int kBusPid = 1;
constexpr int kWireTid = 1;
constexpr int kNodePidBase = 10;
constexpr int kFdTid = 1;
constexpr int kFdaTid = 2;
constexpr int kRhaTid = 3;
constexpr int kMshTid = 4;
constexpr int kLifeTid = 5;

[[nodiscard]] int node_pid(std::uint8_t node) { return kNodePidBase + node; }

[[nodiscard]] std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08X", v);
  return std::string{buf};
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return std::string{buf};
}

[[nodiscard]] const char* outcome_name(std::uint8_t o) {
  switch (static_cast<can::TxOutcome>(o)) {
    case can::TxOutcome::kOk: return "ok";
    case can::TxOutcome::kError: return "error";
    case can::TxOutcome::kInconsistent: return "inconsistent";
    case can::TxOutcome::kAckError: return "ack-error";
    case can::TxOutcome::kCollision: return "collision";
  }
  return "?";
}

/// Span pairing state for pass 1: which ring index opened the span.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

std::vector<TraceEvent> build_trace_events(const EventRing& ring) {
  const std::size_t n = ring.size();

  // Pass 1: resolve each record's phase so pairs are guaranteed balanced.
  // 'B'/'b' halves whose close never made it into the ring demote to 'i'.
  // (kFrameTx is self-contained — an 'X' complete event — and needs no
  // pairing.)
  std::vector<char> phase(n, 'i');
  std::map<std::uint16_t, std::size_t> open_fda;  // (node<<8)|peer -> index
  std::map<std::uint8_t, std::size_t> open_rha;   // node -> index
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = ring.at(i);
    switch (e.kind) {
      case EventKind::kFrameTx:
        phase[i] = 'X';
        break;
      case EventKind::kFdaRoundStart: {
        const auto key = static_cast<std::uint16_t>((e.node << 8) |
                                                    e.u.peer.peer);
        if (const auto it = open_fda.find(key); it != open_fda.end()) {
          phase[it->second] = 'i';
        }
        open_fda[key] = i;
        phase[i] = 'b';
        break;
      }
      case EventKind::kFdaNty: {
        const auto key = static_cast<std::uint16_t>((e.node << 8) |
                                                    e.u.peer.peer);
        if (const auto it = open_fda.find(key); it != open_fda.end()) {
          phase[i] = 'e';
          open_fda.erase(it);
        }
        break;
      }
      case EventKind::kRhaRoundStart:
        if (const auto it = open_rha.find(e.node); it != open_rha.end()) {
          phase[it->second] = 'i';
        }
        open_rha[e.node] = i;
        phase[i] = 'B';
        break;
      case EventKind::kRhaRoundEnd:
        if (const auto it = open_rha.find(e.node); it != open_rha.end()) {
          phase[i] = 'E';
          open_rha.erase(it);
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [key, idx] : open_fda) phase[idx] = 'i';
  for (const auto& [nd, idx] : open_rha) phase[idx] = 'i';

  // Pass 2: emit in ring order (time order), collecting the tracks used.
  std::vector<TraceEvent> out;
  out.reserve(n + 16);
  std::set<std::pair<int, int>> tracks;
  const auto track = [&](int pid, int tid) {
    tracks.insert({pid, tid});
    return std::pair<int, int>{pid, tid};
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = ring.at(i);
    TraceEvent t;
    t.ts_us = e.when.to_us_f();
    t.ph = phase[i];
    switch (e.kind) {
      case EventKind::kFrameTx: {
        std::tie(t.pid, t.tid) = track(kBusPid, kWireTid);
        t.cat = "bus";
        t.name = (e.u.frame.remote != 0 ? "rtr " : "frame ") +
                 hex32(e.u.frame.id);
        t.dur_us = static_cast<double>(e.u.frame.dur_ns) / 1000.0;
        t.args.emplace_back("outcome", outcome_name(e.u.frame.outcome));
        t.args.emplace_back("bits", std::to_string(e.u.frame.bits));
        t.args.emplace_back("attempt", std::to_string(e.u.frame.attempt));
        t.args.emplace_back("tx_node",
                            e.u.frame.orphaned != 0
                                ? std::to_string(e.node) + " (died mid-frame)"
                                : std::to_string(e.node));
        break;
      }
      case EventKind::kFdaRoundStart:
      case EventKind::kFdaNty: {
        std::tie(t.pid, t.tid) = track(node_pid(e.node), kFdaTid);
        t.cat = "fda";
        t.name = "fda failed=" + std::to_string(e.u.peer.peer);
        if (t.ph == 'b' || t.ph == 'e') {
          t.has_id = true;
          t.id = static_cast<std::uint64_t>((e.node << 8) | e.u.peer.peer);
        } else {
          t.name = std::string{to_string(e.kind)} + " failed=" +
                   std::to_string(e.u.peer.peer);
        }
        break;
      }
      case EventKind::kRhaRoundStart:
      case EventKind::kRhaRoundEnd:
        std::tie(t.pid, t.tid) = track(node_pid(e.node), kRhaTid);
        t.cat = "rha";
        t.name = "rha execution";
        if (t.ph == 'i') t.name = to_string(e.kind);
        break;
      case EventKind::kFdTimerArm:
      case EventKind::kFdTimerExpire:
      case EventKind::kFdSuspect:
        std::tie(t.pid, t.tid) = track(node_pid(e.node), kFdTid);
        t.cat = "fd";
        t.name = std::string{to_string(e.kind)} + " peer=" +
                 std::to_string(e.u.peer.peer);
        break;
      case EventKind::kElsSent:
        std::tie(t.pid, t.tid) = track(node_pid(e.node), kFdTid);
        t.cat = "fd";
        t.name = "els_sent";
        break;
      case EventKind::kViewInstall:
        std::tie(t.pid, t.tid) = track(node_pid(e.node), kMshTid);
        t.cat = "msh";
        t.name = "view_install";
        t.args.emplace_back("members", hex64(e.u.view.members));
        break;
      case EventKind::kNodeJoin:
      case EventKind::kNodeLeave:
      case EventKind::kNodeCrash:
      case EventKind::kBusOff:
        std::tie(t.pid, t.tid) = track(node_pid(e.node), kLifeTid);
        t.cat = "lifecycle";
        t.name = to_string(e.kind);
        break;
    }
    out.push_back(std::move(t));
  }

  // Track-naming metadata, prepended so viewers label everything up front.
  std::vector<TraceEvent> meta;
  std::set<int> pids;
  for (const auto& [pid, tid] : tracks) pids.insert(pid);
  for (const int pid : pids) {
    TraceEvent m;
    m.name = "process_name";
    m.ph = 'M';
    m.pid = pid;
    m.tid = 0;
    m.args.emplace_back(
        "name", pid == kBusPid
                    ? std::string{"bus"}
                    : "node " + std::to_string(pid - kNodePidBase));
    meta.push_back(std::move(m));
  }
  for (const auto& [pid, tid] : tracks) {
    TraceEvent m;
    m.name = "thread_name";
    m.ph = 'M';
    m.pid = pid;
    m.tid = tid;
    const char* label = "?";
    if (pid == kBusPid) {
      label = "wire";
    } else {
      switch (tid) {
        case kFdTid: label = "failure-detector"; break;
        case kFdaTid: label = "fda"; break;
        case kRhaTid: label = "rha"; break;
        case kMshTid: label = "membership"; break;
        case kLifeTid: label = "lifecycle"; break;
        default: break;
      }
    }
    m.args.emplace_back("name", label);
    meta.push_back(std::move(m));
  }
  out.insert(out.begin(), std::make_move_iterator(meta.begin()),
             std::make_move_iterator(meta.end()));
  return out;
}

TraceValidation validate_trace_events(const std::vector<TraceEvent>& events) {
  const auto fail = [](std::string msg) {
    return TraceValidation{false, std::move(msg)};
  };
  std::map<std::pair<int, int>, std::vector<std::string>> duration_stack;
  std::map<std::pair<int, int>, double> last_ts;
  std::map<std::pair<std::string, std::uint64_t>, int> async_open;
  for (const TraceEvent& t : events) {
    if (t.ph == 'M') continue;
    const std::pair<int, int> key{t.pid, t.tid};
    if (const auto it = last_ts.find(key); it != last_ts.end()) {
      if (t.ts_us < it->second) {
        return fail("timestamps not monotone on track pid=" +
                    std::to_string(t.pid) + " tid=" + std::to_string(t.tid));
      }
    }
    last_ts[key] = t.ts_us;
    switch (t.ph) {
      case 'X':
        if (t.dur_us < 0) return fail("'X' with negative dur: " + t.name);
        break;
      case 'B':
        duration_stack[key].push_back(t.name);
        break;
      case 'E': {
        auto& stack = duration_stack[key];
        if (stack.empty()) return fail("'E' without open 'B': " + t.name);
        if (stack.back() != t.name) {
          return fail("'E' name mismatch: open '" + stack.back() +
                      "', close '" + t.name + "'");
        }
        stack.pop_back();
        break;
      }
      case 'b': {
        if (!t.has_id) return fail("'b' without id: " + t.name);
        int& open = async_open[{t.cat, t.id}];
        if (open != 0) return fail("nested async span: " + t.name);
        open = 1;
        break;
      }
      case 'e': {
        if (!t.has_id) return fail("'e' without id: " + t.name);
        int& open = async_open[{t.cat, t.id}];
        if (open != 1) return fail("'e' without open 'b': " + t.name);
        open = 0;
        break;
      }
      case 'i':
        break;
      default:
        return fail(std::string{"unknown phase '"} + t.ph + "'");
    }
  }
  for (const auto& [key, stack] : duration_stack) {
    if (!stack.empty()) {
      return fail("unclosed 'B' span: " + stack.back());
    }
  }
  for (const auto& [key, open] : async_open) {
    if (open != 0) return fail("unclosed 'b' span in cat " + key.first);
  }
  return {};
}

std::string render_trace_json(const std::vector<TraceEvent>& events,
                              const MetricsRegistry* metrics,
                              const EventRing& ring) {
  const json::Value snapshot =
      metrics != nullptr ? metrics->snapshot_json(/*per_node=*/true)
                         : json::Value{};
  return render_trace_json(
      events, metrics != nullptr ? &snapshot : nullptr,
      RingStats{ring.capacity(), ring.size(), ring.dropped()});
}

std::string render_trace_json(const std::vector<TraceEvent>& events,
                              const json::Value* metrics_json,
                              const RingStats& stats) {
  json::Value trace_events = json::Value::array();
  for (const TraceEvent& t : events) {
    json::Value o = json::Value::object();
    o.set("name", json::Value::string(t.name));
    if (!t.cat.empty()) o.set("cat", json::Value::string(t.cat));
    o.set("ph", json::Value::string(std::string{t.ph}));
    o.set("ts", json::Value::number(t.ts_us));
    if (t.ph == 'X') o.set("dur", json::Value::number(t.dur_us));
    o.set("pid", json::Value::integer(t.pid));
    o.set("tid", json::Value::integer(t.tid));
    if (t.has_id) {
      o.set("id", json::Value::integer(static_cast<std::int64_t>(t.id)));
    }
    if (!t.args.empty()) {
      json::Value args = json::Value::object();
      for (const auto& [k, v] : t.args) {
        args.set(k, json::Value::string(v));
      }
      o.set("args", std::move(args));
    }
    trace_events.push(std::move(o));
  }

  json::Value other = json::Value::object();
  other.set("schema", json::Value::string("canely-trace-1"));
  other.set("ring_capacity", json::Value::integer(
                                 static_cast<std::int64_t>(stats.capacity)));
  other.set("events_recorded", json::Value::integer(
                                   static_cast<std::int64_t>(stats.recorded)));
  other.set("dropped_events", json::Value::integer(
                                  static_cast<std::int64_t>(stats.dropped)));

  json::Value root = json::Value::object();
  root.set("displayTimeUnit", json::Value::string("ms"));
  root.set("otherData", std::move(other));
  if (metrics_json != nullptr) {
    root.set("metrics", *metrics_json);
  }
  root.set("traceEvents", std::move(trace_events));
  return root.dump(1) + "\n";
}

}  // namespace canely::obs
