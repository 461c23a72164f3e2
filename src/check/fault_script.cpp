#include "check/fault_script.hpp"

#include <stdexcept>

namespace canely::check {

json::Value script_json(const FaultScript& script) {
  json::Value arr = json::Value::array();
  for (const FaultEvent& ev : script) {
    json::Value victims = json::Value::array();
    for (can::NodeId id : ev.victims) {
      victims.push(json::Value::integer(static_cast<std::int64_t>(id)));
    }
    json::Value e = json::Value::object();
    e.set("tx", json::Value::integer(static_cast<std::int64_t>(ev.tx)));
    e.set("op", json::Value::string(
                    ev.op == FaultOp::kOmit ? "omit" : "error"));
    e.set("victims", std::move(victims));
    e.set("crash_sender", json::Value::boolean(ev.crash_sender));
    arr.push(std::move(e));
  }
  return arr;
}

FaultScript parse_script(const json::Value& arr, const std::string& what) {
  FaultScript script;
  for (const json::Value& e : arr.items()) {
    if (e.kind() != json::Value::Kind::kObject) {
      throw std::runtime_error(what + ": script event is not an object");
    }
    FaultEvent ev;
    ev.tx = static_cast<std::uint64_t>(json::get_int(e, "tx", what));
    const std::string& op = json::get_string(e, "op", what);
    if (op == "omit") {
      ev.op = FaultOp::kOmit;
    } else if (op == "error") {
      ev.op = FaultOp::kError;
    } else {
      throw std::runtime_error(what + ": unknown op '" + op + "'");
    }
    for (const json::Value& id :
         json::require(e, "victims", json::Value::Kind::kArray, what)
             .items()) {
      if (id.kind() != json::Value::Kind::kInt || id.as_int() < 0 ||
          id.as_int() >= static_cast<std::int64_t>(can::kMaxNodes)) {
        throw std::runtime_error(what + ": bad victim id");
      }
      ev.victims.insert(static_cast<can::NodeId>(id.as_int()));
    }
    ev.crash_sender = json::get_bool(e, "crash_sender", what);
    script.push_back(ev);
  }
  return script;
}

can::Verdict script_verdict(const FaultScript& script,
                            const can::TxContext& ctx, bool& crash) {
  for (const FaultEvent& ev : script) {
    if (ev.tx != ctx.tx_index) continue;
    crash = ev.crash_sender;
    switch (ev.op) {
      case FaultOp::kOmit:
        // The bus intersects victims with the actual receivers and
        // downgrades an empty victim set to a clean broadcast.
        return can::Verdict::inconsistent(ev.victims);
      case FaultOp::kError:
        return can::Verdict::global_error();
    }
  }
  return can::Verdict::ok();
}

}  // namespace canely::check
