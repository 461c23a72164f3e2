#include "check/artifact.hpp"

#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace canely::check {
namespace {

constexpr const char* kSchema = "canely-check-2";
constexpr const char* kSchemaV1 = "canely-check-1";

// ------------------------------------------------------------- writing

json::Value time_ns(sim::Time t) {
  return json::Value::integer(t.to_ns());
}

/// Payload shape of an event kind.  kFrameTx carries the 16-byte frame
/// record (wider than the union's `raw` view), kViewInstall a 64-bit
/// membership bitmap, the detector/FDA kinds a single peer id, and the
/// lifecycle/RHA kinds nothing — so serialization is per kind, the only
/// lossless option.
enum class PayloadShape : std::uint8_t { kNone, kFrame, kPeer, kView };

PayloadShape shape_of(obs::EventKind kind) {
  switch (kind) {
    case obs::EventKind::kFrameTx:
      return PayloadShape::kFrame;
    case obs::EventKind::kFdTimerArm:
    case obs::EventKind::kFdTimerExpire:
    case obs::EventKind::kFdSuspect:
    case obs::EventKind::kFdaRoundStart:
    case obs::EventKind::kFdaNty:
      return PayloadShape::kPeer;
    case obs::EventKind::kViewInstall:
      return PayloadShape::kView;
    case obs::EventKind::kBusOff:
    case obs::EventKind::kElsSent:
    case obs::EventKind::kRhaRoundStart:
    case obs::EventKind::kRhaRoundEnd:
    case obs::EventKind::kNodeJoin:
    case obs::EventKind::kNodeLeave:
    case obs::EventKind::kNodeCrash:
      break;
  }
  return PayloadShape::kNone;
}

constexpr obs::EventKind kAllKinds[] = {
    obs::EventKind::kFrameTx,       obs::EventKind::kBusOff,
    obs::EventKind::kFdTimerArm,    obs::EventKind::kFdTimerExpire,
    obs::EventKind::kElsSent,       obs::EventKind::kFdSuspect,
    obs::EventKind::kFdaRoundStart, obs::EventKind::kFdaNty,
    obs::EventKind::kRhaRoundStart, obs::EventKind::kRhaRoundEnd,
    obs::EventKind::kViewInstall,   obs::EventKind::kNodeJoin,
    obs::EventKind::kNodeLeave,     obs::EventKind::kNodeCrash};

json::Value flight_json(const FlightRecording& flight) {
  json::Value events = json::Value::array();
  for (const obs::Event& ev : flight.events) {
    json::Value e = json::Value::object();
    e.set("t_ns", json::Value::integer(ev.when.to_ns()));
    e.set("kind", json::Value::string(obs::to_string(ev.kind)));
    e.set("node", json::Value::integer(ev.node));
    switch (shape_of(ev.kind)) {
      case PayloadShape::kFrame:
        e.set("id", json::Value::integer(ev.u.frame.id));
        e.set("bits", json::Value::integer(ev.u.frame.bits));
        e.set("dur_ns", json::Value::integer(ev.u.frame.dur_ns));
        e.set("outcome", json::Value::integer(ev.u.frame.outcome));
        e.set("attempt", json::Value::integer(ev.u.frame.attempt));
        e.set("remote", json::Value::integer(ev.u.frame.remote));
        e.set("orphaned", json::Value::integer(ev.u.frame.orphaned));
        break;
      case PayloadShape::kPeer:
        e.set("peer", json::Value::integer(ev.u.peer.peer));
        break;
      case PayloadShape::kView:
        // 64-bit bitmap: serialized as a decimal string like trace_hash,
        // out of int64 range paranoia.
        e.set("members",
              json::Value::string(std::to_string(ev.u.view.members)));
        break;
      case PayloadShape::kNone:
        break;
    }
    events.push(std::move(e));
  }
  json::Value root = json::Value::object(
      {{"ring_capacity",
        json::Value::integer(static_cast<std::int64_t>(flight.ring_capacity))},
       {"dropped",
        json::Value::integer(static_cast<std::int64_t>(flight.dropped))}});
  root.set("events", std::move(events));
  if (flight.has_metrics) root.set("metrics", flight.metrics);
  return root;
}

}  // namespace

json::Value artifact_json(const Artifact& artifact) {
  const ScenarioConfig& cfg = artifact.scenario;
  json::Value scenario = json::Value::object();
  scenario.set("n", json::Value::integer(static_cast<std::int64_t>(cfg.n)));
  scenario.set("clustering", json::Value::boolean(cfg.clustering));
  scenario.set("fda_agreement",
               json::Value::boolean(cfg.params.fda_agreement));
  scenario.set("skip_idle_cycles",
               json::Value::boolean(cfg.params.skip_idle_cycles));
  scenario.set("omission_degree_k",
               json::Value::integer(cfg.params.omission_degree_k));
  scenario.set("inconsistent_degree_j",
               json::Value::integer(cfg.params.inconsistent_degree_j));
  scenario.set("heartbeat_ns", time_ns(cfg.params.heartbeat_period));
  scenario.set("tx_delay_ns", time_ns(cfg.params.tx_delay_bound));
  scenario.set("cycle_ns", time_ns(cfg.params.membership_cycle));
  scenario.set("rha_timeout_ns", time_ns(cfg.params.rha_timeout));
  scenario.set("join_wait_ns", time_ns(cfg.params.join_wait));
  scenario.set("fd_skew_ns", time_ns(cfg.params.fd_skew_quantum));
  scenario.set("duration_ns", time_ns(cfg.duration));
  scenario.set("settle_ns", time_ns(cfg.settle));
  scenario.set("latency_margin_ns", time_ns(cfg.latency_margin));

  json::Value violation = json::Value::object();
  violation.set("monitor", json::Value::string(artifact.violation.monitor));
  violation.set("when_ns", time_ns(artifact.violation.when));
  violation.set("detail", json::Value::string(artifact.violation.detail));

  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kSchema));
  root.set("monitor", json::Value::string(artifact.monitor));
  root.set("trace_hash",
           json::Value::string(std::to_string(artifact.trace_hash)));
  root.set("scenario", std::move(scenario));
  root.set("script", script_json(artifact.script));
  root.set("violation", std::move(violation));
  if (artifact.flight.present) {
    root.set("flight", flight_json(artifact.flight));
  }
  return root;
}

void write_artifact(const std::string& path, const Artifact& artifact) {
  json::write_file(path, artifact_json(artifact).dump(2) + "\n");
}

// ------------------------------------------------------------- parsing

namespace {

using json::Value;
constexpr const char* kWhat = "artifact JSON";

const Value& require(const Value& obj, const std::string& key,
                     Value::Kind kind) {
  return json::require(obj, key, kind, kWhat);
}

std::int64_t get_int(const Value& obj, const std::string& key) {
  return json::get_int(obj, key, kWhat);
}

bool get_bool(const Value& obj, const std::string& key) {
  return json::get_bool(obj, key, kWhat);
}

const std::string& get_string(const Value& obj, const std::string& key) {
  return json::get_string(obj, key, kWhat);
}

}  // namespace

Artifact load_artifact(const std::string& path) {
  const std::string text = json::read_file(path, kWhat);
  const Value root = json::parse(text, kWhat);
  if (root.kind() != Value::Kind::kObject) {
    throw std::runtime_error("artifact JSON: root is not an object");
  }
  const std::string& schema = get_string(root, "schema");
  if (schema != kSchema && schema != kSchemaV1) {
    throw std::runtime_error("artifact JSON: unknown schema");
  }

  Artifact artifact;
  artifact.monitor = get_string(root, "monitor");
  artifact.trace_hash =
      std::strtoull(get_string(root, "trace_hash").c_str(), nullptr, 10);

  const Value& sc = require(root, "scenario", Value::Kind::kObject);
  ScenarioConfig& cfg = artifact.scenario;
  cfg.n = static_cast<std::size_t>(get_int(sc, "n"));
  cfg.clustering = get_bool(sc, "clustering");
  cfg.params.n = cfg.n;
  cfg.params.fda_agreement = get_bool(sc, "fda_agreement");
  cfg.params.skip_idle_cycles = get_bool(sc, "skip_idle_cycles");
  cfg.params.omission_degree_k =
      static_cast<int>(get_int(sc, "omission_degree_k"));
  cfg.params.inconsistent_degree_j =
      static_cast<int>(get_int(sc, "inconsistent_degree_j"));
  cfg.params.heartbeat_period = sim::Time::ns(get_int(sc, "heartbeat_ns"));
  cfg.params.tx_delay_bound = sim::Time::ns(get_int(sc, "tx_delay_ns"));
  cfg.params.membership_cycle = sim::Time::ns(get_int(sc, "cycle_ns"));
  cfg.params.rha_timeout = sim::Time::ns(get_int(sc, "rha_timeout_ns"));
  cfg.params.join_wait = sim::Time::ns(get_int(sc, "join_wait_ns"));
  cfg.params.fd_skew_quantum = sim::Time::ns(get_int(sc, "fd_skew_ns"));
  cfg.duration = sim::Time::ns(get_int(sc, "duration_ns"));
  cfg.settle = sim::Time::ns(get_int(sc, "settle_ns"));
  cfg.latency_margin = sim::Time::ns(get_int(sc, "latency_margin_ns"));

  artifact.script =
      parse_script(require(root, "script", Value::Kind::kArray), kWhat);

  const Value& vio = require(root, "violation", Value::Kind::kObject);
  artifact.violation.monitor = get_string(vio, "monitor");
  artifact.violation.when = sim::Time::ns(get_int(vio, "when_ns"));
  artifact.violation.detail = get_string(vio, "detail");

  // Flight recorder: optional (v1 artifacts, or v2 written without a
  // recorder attached).
  const Value* fl = root.find("flight");
  if (fl != nullptr && fl->kind() == Value::Kind::kObject) {
    FlightRecording& flight = artifact.flight;
    flight.present = true;
    flight.ring_capacity =
        static_cast<std::size_t>(get_int(*fl, "ring_capacity"));
    flight.dropped = static_cast<std::uint64_t>(get_int(*fl, "dropped"));
    for (const Value& e :
         require(*fl, "events", Value::Kind::kArray).items()) {
      if (e.kind() != Value::Kind::kObject) {
        throw std::runtime_error(
            "artifact JSON: flight event is not an object");
      }
      obs::Event ev;
      ev.when = sim::Time::ns(get_int(e, "t_ns"));
      const std::string& kind = get_string(e, "kind");
      bool known = false;
      for (const obs::EventKind k : kAllKinds) {
        if (kind == obs::to_string(k)) {
          ev.kind = k;
          known = true;
          break;
        }
      }
      if (!known) {
        throw std::runtime_error("artifact JSON: unknown event kind '" +
                                 kind + "'");
      }
      ev.node = static_cast<std::uint8_t>(get_int(e, "node"));
      switch (shape_of(ev.kind)) {
        case PayloadShape::kFrame:
          ev.u.frame.id = static_cast<std::uint32_t>(get_int(e, "id"));
          ev.u.frame.bits = static_cast<std::uint32_t>(get_int(e, "bits"));
          ev.u.frame.dur_ns =
              static_cast<std::uint32_t>(get_int(e, "dur_ns"));
          ev.u.frame.outcome =
              static_cast<std::uint8_t>(get_int(e, "outcome"));
          ev.u.frame.attempt =
              static_cast<std::uint8_t>(get_int(e, "attempt"));
          ev.u.frame.remote =
              static_cast<std::uint8_t>(get_int(e, "remote"));
          ev.u.frame.orphaned =
              static_cast<std::uint8_t>(get_int(e, "orphaned"));
          break;
        case PayloadShape::kPeer:
          ev.u.peer.peer = static_cast<std::uint8_t>(get_int(e, "peer"));
          break;
        case PayloadShape::kView:
          ev.u.view.members =
              std::strtoull(get_string(e, "members").c_str(), nullptr, 10);
          break;
        case PayloadShape::kNone:
          break;
      }
      flight.events.push_back(ev);
    }
    const Value* metrics = fl->find("metrics");
    if (metrics != nullptr && metrics->kind() == Value::Kind::kObject) {
      flight.has_metrics = true;
      flight.metrics = *metrics;
    }
  }
  return artifact;
}

}  // namespace canely::check
