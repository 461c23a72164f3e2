#pragma once
// Umbrella header for the experiment-campaign runner, plus the shared
// BENCH_*.json trajectory schema (documented in DESIGN.md §"Campaign
// runner"):
//
//   {
//     "bench":       "<name>",
//     "master_seed": <integer>,
//     "repeats":     <integer>,
//     "axes":        { "<axis>": [v, ...], ... },
//     "cells": [
//       { "params":  { "<axis>": v, ... },
//         "metrics": { "<metric>": <number | summary-object>, ... } },
//       ...
//     ]
//   }
//
// where a summary-object is {"count","mean","min","max","p50","p90",
// "p99","stddev"}.  Cells appear in grid enumeration order and metrics
// in emission order, so the bytes are a pure function of the aggregated
// values — independent of the worker thread count (runner.hpp).

#include <exception>
#include <iostream>

#include "campaign/aggregate.hpp"
#include "campaign/cli.hpp"
#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "json/json.hpp"

namespace canely::campaign {

/// The trajectory skeleton: bench identity + grid shape; the caller
/// appends the "cells" array.  The worker thread count is deliberately
/// NOT recorded — trajectories from different --threads must be
/// byte-identical.
[[nodiscard]] inline json::Value trajectory_header(const std::string& bench,
                                                   const Grid& grid) {
  json::Value axes = json::Value::object();
  for (const Grid::Axis& a : grid.axes()) {
    json::Value values = json::Value::array();
    for (double v : a.values) values.push(json::Value::number(v));
    axes.set(a.name, std::move(values));
  }
  json::Value root = json::Value::object();
  root.set("bench", json::Value::string(bench));
  root.set("master_seed",
           json::Value::integer(static_cast<std::int64_t>(grid.seed())));
  root.set("repeats", json::Value::integer(
                          static_cast<std::int64_t>(grid.repeat_count())));
  root.set("axes", std::move(axes));
  return root;
}

/// Write the finished trajectory to opts.json_path.  I/O failure prints
/// to stderr and returns false — a bad --json path must exit non-zero,
/// not abort on an uncaught exception.
[[nodiscard]] inline bool emit_trajectory(const json::Value& root,
                                          const CliOptions& opts) {
  try {
    json::write_file(opts.json_path, root.dump(2));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return false;
  }
  std::cout << "\n  trajectory written to " << opts.json_path << "\n";
  return true;
}

/// A cell's parameter assignment as a JSON object.
[[nodiscard]] inline json::Value params_json(
    const std::vector<std::pair<std::string, double>>& params) {
  json::Value obj = json::Value::object();
  for (const auto& [name, value] : params) {
    obj.set(name, json::Value::number(value));
  }
  return obj;
}

/// A Summary as the schema's summary-object.
[[nodiscard]] inline json::Value summary_json(const Summary& s) {
  json::Value obj = json::Value::object();
  obj.set("count", json::Value::integer(static_cast<std::int64_t>(s.count)));
  obj.set("mean", json::Value::number(s.mean));
  obj.set("min", json::Value::number(s.min));
  obj.set("max", json::Value::number(s.max));
  obj.set("p50", json::Value::number(s.p50));
  obj.set("p90", json::Value::number(s.p90));
  obj.set("p99", json::Value::number(s.p99));
  obj.set("stddev", json::Value::number(s.stddev));
  return obj;
}

}  // namespace canely::campaign
