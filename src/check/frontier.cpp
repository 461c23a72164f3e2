#include "check/frontier.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "check/harness.hpp"

namespace canely::check {
namespace {

constexpr const char* kSchema = "canely-frontier-1";
constexpr const char* kWhat = "frontier JSON";

using json::Value;

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

std::uint64_t get_u64_string(const Value& obj, const std::string& key) {
  return std::strtoull(get_string(obj, key).c_str(), nullptr, 10);
}

json::Value u64_string(std::uint64_t v) {
  return json::Value::string(std::to_string(v));
}

void fold_string(std::uint64_t& h, const std::string& s) {
  h = fnv1a(h, s.size());
  for (char c : s) h = fnv1a(h, static_cast<std::uint8_t>(c));
}

}  // namespace

std::uint64_t fold_record(std::uint64_t h, const FrontierRecord& r) {
  h = fnv1a(h, r.u);
  h = fnv1a(h, r.j);
  h = fnv1a(h, r.key);
  h = fnv1a(h, r.violated ? 1 : 0);
  if (r.violated) {
    fold_string(h, r.violation.monitor);
    h = fnv1a(h, static_cast<std::uint64_t>(r.violation.when.to_ns()));
    fold_string(h, r.violation.detail);
  }
  return h;
}

std::uint64_t fold_records(const std::vector<FrontierRecord>& records) {
  std::uint64_t h = kFnvOffset;
  for (const FrontierRecord& r : records) h = fold_record(h, r);
  return h;
}

json::Value frontier_json(const FrontierFile& frontier) {
  json::Value records = json::Value::array();
  for (const FrontierRecord& r : frontier.records) {
    json::Value rec = json::Value::object();
    rec.set("u", json::Value::integer(static_cast<std::int64_t>(r.u)));
    rec.set("j", json::Value::integer(static_cast<std::int64_t>(r.j)));
    rec.set("key", u64_string(r.key));
    rec.set("violated", json::Value::boolean(r.violated));
    if (r.violated) {
      json::Value vio = json::Value::object();
      vio.set("monitor", json::Value::string(r.violation.monitor));
      vio.set("when_ns", json::Value::integer(r.violation.when.to_ns()));
      vio.set("detail", json::Value::string(r.violation.detail));
      rec.set("violation", std::move(vio));
      rec.set("script", script_json(r.script));
    }
    records.push(std::move(rec));
  }

  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kSchema));
  root.set("fingerprint", u64_string(frontier.fingerprint));
  root.set("total", json::Value::integer(
                        static_cast<std::int64_t>(frontier.total)));
  root.set("shard_index", json::Value::integer(frontier.shard_index));
  root.set("shard_count", json::Value::integer(frontier.shard_count));
  root.set("cursor", json::Value::integer(
                         static_cast<std::int64_t>(frontier.cursor)));
  root.set("complete", json::Value::boolean(frontier.complete));
  root.set("partial", json::Value::boolean(frontier.partial));
  root.set("aggregate", u64_string(fold_records(frontier.records)));
  root.set("records", std::move(records));
  return root;
}

void write_frontier(const std::string& path, const FrontierFile& frontier) {
  const std::string tmp = path + ".tmp";
  json::write_file(tmp, frontier_json(frontier).dump(1) + "\n");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("frontier: cannot rename " + tmp + " to " +
                             path);
  }
}

FrontierFile load_frontier(const std::string& path) {
  const std::string text = json::read_file(path, kWhat);
  const Value root = json::parse(text, kWhat);
  if (root.kind() != Value::Kind::kObject) {
    throw std::runtime_error(std::string{kWhat} + ": root is not an object");
  }
  if (get_string(root, "schema") != kSchema) {
    throw std::runtime_error(std::string{kWhat} + ": unknown schema");
  }

  FrontierFile f;
  f.fingerprint = get_u64_string(root, "fingerprint");
  f.total = static_cast<std::uint64_t>(get_int(root, "total"));
  f.shard_index = static_cast<std::uint32_t>(get_int(root, "shard_index"));
  f.shard_count = static_cast<std::uint32_t>(get_int(root, "shard_count"));
  f.cursor = static_cast<std::uint64_t>(get_int(root, "cursor"));
  f.complete = get_bool(root, "complete");
  f.partial = get_bool(root, "partial");

  for (const Value& rv :
       require(root, "records", Value::Kind::kArray).items()) {
    if (rv.kind() != Value::Kind::kObject) {
      throw std::runtime_error(std::string{kWhat} +
                               ": record is not an object");
    }
    FrontierRecord r;
    r.u = static_cast<std::uint64_t>(get_int(rv, "u"));
    r.j = static_cast<std::uint64_t>(get_int(rv, "j"));
    r.key = get_u64_string(rv, "key");
    r.violated = get_bool(rv, "violated");
    if (r.violated) {
      const Value& vio = require(rv, "violation", Value::Kind::kObject);
      r.violation.monitor = get_string(vio, "monitor");
      r.violation.when = sim::Time::ns(get_int(vio, "when_ns"));
      r.violation.detail = get_string(vio, "detail");
      r.script =
          parse_script(require(rv, "script", Value::Kind::kArray), kWhat);
    }
    f.records.push_back(std::move(r));
  }

  f.aggregate = fold_records(f.records);
  if (f.aggregate != get_u64_string(root, "aggregate")) {
    throw std::runtime_error(std::string{kWhat} +
                             ": aggregate does not match records in " + path);
  }
  if (f.cursor != f.records.size()) {
    throw std::runtime_error(std::string{kWhat} +
                             ": cursor does not match record count in " +
                             path);
  }
  return f;
}

FrontierFile merge_frontiers(const std::vector<FrontierFile>& shards) {
  if (shards.empty()) {
    throw std::runtime_error("frontier merge: no shards");
  }
  const std::uint32_t count = shards.front().shard_count;
  if (count != shards.size()) {
    throw std::runtime_error("frontier merge: got " +
                             std::to_string(shards.size()) + " shards of " +
                             std::to_string(count));
  }
  std::vector<bool> seen(count, false);
  for (const FrontierFile& s : shards) {
    if (s.fingerprint != shards.front().fingerprint) {
      throw std::runtime_error(
          "frontier merge: shards explore different configurations");
    }
    if (s.shard_count != count || s.shard_index >= count) {
      throw std::runtime_error("frontier merge: inconsistent shard labels");
    }
    if (seen[s.shard_index]) {
      throw std::runtime_error("frontier merge: duplicate shard " +
                               std::to_string(s.shard_index));
    }
    seen[s.shard_index] = true;
    if (!s.complete) {
      throw std::runtime_error("frontier merge: shard " +
                               std::to_string(s.shard_index) +
                               " is incomplete");
    }
  }

  FrontierFile merged;
  merged.fingerprint = shards.front().fingerprint;
  merged.shard_index = 0;
  merged.shard_count = 1;
  merged.complete = true;
  for (const FrontierFile& s : shards) {
    merged.total += s.total;
    merged.cursor += s.cursor;
    merged.partial = merged.partial || s.partial;
    merged.records.insert(merged.records.end(), s.records.begin(),
                          s.records.end());
  }
  std::sort(merged.records.begin(), merged.records.end(),
            [](const FrontierRecord& a, const FrontierRecord& b) {
              return a.u != b.u ? a.u < b.u : a.j < b.j;
            });
  merged.aggregate = fold_records(merged.records);
  return merged;
}

}  // namespace canely::check
