#pragma once
// Shared command-line handling for campaign-driven benchmarks:
//
//   --threads N   worker threads (default: hardware concurrency)
//   --seed S      master seed of the grid (default 42)
//   --json PATH   write the BENCH_*.json trajectory here ("" = skip)
//   --no-json     suppress the default JSON emission
//   --help        print usage
//
// Every refactored bench accepts exactly these flags, so the
// determinism check "diff <(bench --threads 1 --json a.json) ..." works
// uniformly across the suite (see EXPERIMENTS.md).  A campaign bench
// runs its whole grid in one process, so there is no --shard here:
// check_explorer, whose unit space is partitioned, parses its own with
// parse_shard().

#include <cstdint>
#include <string>

namespace canely::campaign {

struct CliOptions {
  std::size_t threads{0};  ///< 0 = hardware concurrency
  std::uint64_t seed{42};
  std::string json_path;   ///< empty = no JSON emission
  bool help{false};
};

/// Parse a "--shard i/N" argument ("0/4", "3/4", ...).  Returns false —
/// leaving `index`/`count` untouched — unless 0 <= i < N and N >= 1.
[[nodiscard]] bool parse_shard(const std::string& text, std::size_t& index,
                               std::size_t& count);

/// Parse argv.  `default_json` seeds `json_path` (pass "" for benches
/// that only emit on request).  Unknown flags set `help` so the bench
/// prints usage and exits non-zero rather than silently ignoring them.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   const std::string& default_json);

/// Print the usage text for the shared flags to stderr.
void print_cli_usage(const char* argv0);

}  // namespace canely::campaign
