#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "json/json.hpp"
#include "lint/callgraph.hpp"

namespace canely::lint {
namespace {

constexpr std::array<std::string_view, 15> kDeterminismDirs = {
    "src/sim/",      "src/can/",       "src/canely/",   "src/broadcast/",
    "src/campaign/", "src/check/",     "src/scenario/", "src/baselines/",
    "src/clocksync/", "src/media/",    "src/workload/", "src/analysis/",
    "src/obs/",      "src/net/",       "src/json/"};

constexpr std::array<std::string_view, 4> kWireFiles = {
    "src/can/types.hpp", "src/can/frame.hpp", "src/canely/mid.hpp",
    "src/net/types.hpp"};

[[nodiscard]] bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
[[nodiscard]] bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

/// Silence check; marks every matching suppression as used so the
/// whole-program pass can flag the ones that earn their keep nowhere.
[[nodiscard]] bool suppressed_by(const Finding& f,
                                 const std::vector<SuppressionIndex>& sups,
                                 std::vector<char>* used) {
  // The suppression machinery must not be able to silence itself.
  if (f.rule == "bad-suppression" || f.rule == "unknown-rule" ||
      f.rule == "unused-suppression") {
    return false;
  }
  bool hit = false;
  for (std::size_t i = 0; i < sups.size(); ++i) {
    const SuppressionIndex& s = sups[i];
    if (f.line != s.line && f.line != s.line + 1) continue;
    if (std::find(s.rules.begin(), s.rules.end(), f.rule) != s.rules.end()) {
      hit = true;
      if (used) (*used)[i] = 1;
    }
  }
  return hit;
}

[[nodiscard]] std::string baseline_key(const Finding& f) {
  std::string k = f.file;
  k += '\1';
  k += f.rule;
  k += '\1';
  k += f.message;
  return k;
}

/// Load a canely-lint-1 / canely-lint-2 report as a baseline: the set of
/// (file, rule, message) triples already accepted.  Line numbers are
/// deliberately not part of the key so unrelated edits above a finding
/// do not un-baseline it.
[[nodiscard]] bool load_baseline(const std::string& path,
                                 std::set<std::string>& out,
                                 std::string& error) {
  const std::string what = "baseline " + path;
  try {
    const json::Value doc = json::parse(json::read_file(path, what), what);
    const std::string& schema = json::get_string(doc, "schema", what);
    if (schema != "canely-lint-1" && schema != "canely-lint-2") {
      error = what + " is not a canely-lint report";
      return false;
    }
    for (const json::Value& v :
         json::require(doc, "findings", json::Value::Kind::kArray, what)
             .items()) {
      Finding f;
      f.file = json::get_string(v, "file", what);
      f.rule = json::get_string(v, "rule", what);
      f.message = json::get_string(v, "message", what);
      out.insert(baseline_key(f));
    }
  } catch (const std::runtime_error& e) {
    error = e.what();
    return false;
  }
  return true;
}

/// Merge per-file raw findings with the whole-program findings, apply
/// suppressions, flag unused ones, and subtract the baseline.  `fis`
/// must be in sorted-path order; the output is byte-stable.
[[nodiscard]] bool finalize_run(const std::vector<FileIndex>& fis,
                                const Options& opts, RunResult& result,
                                std::string& error) {
  result.whole_program = opts.whole_program;
  result.files = fis.size();

  std::vector<Finding> wp;
  if (opts.whole_program) {
    GraphStats stats;
    whole_program_analyses(fis, wp, stats);
    result.functions = stats.functions;
    result.edges = stats.edges;
  }

  std::set<std::string> baseline;
  if (!opts.diff_baseline.empty() &&
      !load_baseline(opts.diff_baseline, baseline, error)) {
    return false;
  }

  for (const FileIndex& fi : fis) {
    std::vector<Finding> mine = fi.raw;
    for (const Finding& f : wp) {
      if (f.file == fi.path) mine.push_back(f);
    }
    std::vector<char> used(fi.suppressions.size(), 0);
    std::vector<Finding> kept;
    for (Finding& f : mine) {
      if (suppressed_by(f, fi.suppressions, &used)) {
        ++result.suppressed;
      } else {
        kept.push_back(std::move(f));
      }
    }
    if (opts.whole_program) {
      for (std::size_t i = 0; i < fi.suppressions.size(); ++i) {
        if (used[i]) continue;
        std::string rules;
        for (const std::string& r : fi.suppressions[i].rules) {
          if (!rules.empty()) rules += ", ";
          rules += r;
        }
        kept.push_back(Finding{
            fi.path, fi.suppressions[i].line, "unused-suppression",
            "allow(" + rules +
                ") silences no finding under the whole-program pass; "
                "delete it",
            {}});
      }
    }
    std::stable_sort(kept.begin(), kept.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
    for (Finding& f : kept) {
      if (!baseline.empty() && baseline.count(baseline_key(f)) != 0) {
        ++result.baselined;
      } else {
        result.findings.push_back(std::move(f));
      }
    }
  }
  return true;
}

/// Build (or load from cache) one index per file, in parallel when asked.
/// `contents[i]` belongs to `paths[i]`; slot-indexed output keeps the
/// result independent of scheduling.
[[nodiscard]] std::vector<FileIndex> build_indexes(
    const std::vector<std::string>& paths,
    const std::vector<std::string>& contents, const Options& opts) {
  namespace fs = std::filesystem;
  if (!opts.index_cache.empty()) {
    std::error_code ec;
    fs::create_directories(opts.index_cache, ec);  // missing dir = no cache
  }
  std::vector<FileIndex> fis(paths.size());
  const int threads = std::max(1, opts.threads);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < paths.size();
         i = next.fetch_add(1)) {
      std::string cache_file;
      if (!opts.index_cache.empty()) {
        std::string key = paths[i];
        key += '\0';
        key += contents[i];
        char hex[24];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(fnv64(key)));
        cache_file =
            (fs::path(opts.index_cache) / (std::string{hex} + ".json"))
                .string();
        std::ifstream in(cache_file, std::ios::binary);
        if (in) {
          std::ostringstream buf;
          buf << in.rdbuf();
          std::string err;
          FileIndex cached;
          if (index_from_json(buf.str(), cached, err) &&
              cached.path == paths[i]) {
            fis[i] = std::move(cached);
            continue;
          }
        }
      }
      fis[i] = build_index(paths[i], contents[i]);
      if (!cache_file.empty()) {
        std::ofstream out(cache_file, std::ios::binary | std::ios::trunc);
        if (out) out << index_to_json(fis[i]);
      }
    }
  };
  if (threads == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }
  return fis;
}

}  // namespace

Zones classify(std::string_view path) {
  Zones z;
  while (starts_with(path, "./")) path.remove_prefix(2);
  if (path.find("lint_fixtures/") != std::string_view::npos) {
    z.skip = true;
    return z;
  }
  z.flags.header = ends_with(path, ".hpp") || ends_with(path, ".h");
  for (const std::string_view dir : kDeterminismDirs) {
    if (starts_with(path, dir)) {
      z.flags.determinism = true;
      break;
    }
  }
  // src/socketcan/ is real-time by design: never in the determinism zone.
  for (const std::string_view wire : kWireFiles) {
    if (path == wire) {
      z.flags.wire = true;
      break;
    }
  }
  return z;
}

std::span<const std::string_view> determinism_dirs() {
  return kDeterminismDirs;
}
std::span<const std::string_view> wire_files() { return kWireFiles; }

FileResult lint_source(std::string_view path, std::string_view content) {
  FileResult result;
  const Zones z = classify(path);
  if (z.skip) return result;

  const FileIndex fi = build_index(path, content);
  for (const Finding& f : fi.raw) {
    if (suppressed_by(f, fi.suppressions, nullptr)) {
      ++result.suppressed;
    } else {
      result.findings.push_back(f);
    }
  }
  return result;
}

bool lint_paths(const std::string& root, const std::vector<std::string>& paths,
                const Options& opts, RunResult& result, std::string& error) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    const fs::path abs = fs::path(root) / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
      for (fs::recursive_directory_iterator it(abs, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".hpp" && ext != ".cpp" && ext != ".h") continue;
        files.push_back(
            fs::relative(it->path(), root, ec).generic_string());
      }
      if (ec) {
        error = "cannot walk " + abs.string() + ": " + ec.message();
        return false;
      }
    } else if (fs::is_regular_file(abs, ec)) {
      files.push_back(fs::relative(abs, root, ec).generic_string());
    } else {
      error = "no such file or directory: " + abs.string();
      return false;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::string> linted;
  std::vector<std::string> contents;
  for (const std::string& rel : files) {
    if (classify(rel).skip) continue;
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      error = "cannot read " + rel;
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    linted.push_back(rel);
    contents.push_back(buf.str());
  }

  const std::vector<FileIndex> fis = build_indexes(linted, contents, opts);
  return finalize_run(fis, opts, result, error);
}

bool lint_paths(const std::string& root, const std::vector<std::string>& paths,
                RunResult& result, std::string& error) {
  return lint_paths(root, paths, Options{}, result, error);
}

RunResult lint_sources(std::vector<SourceFile> files, const Options& opts) {
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  std::vector<std::string> paths;
  std::vector<std::string> contents;
  for (SourceFile& f : files) {
    if (classify(f.path).skip) continue;
    paths.push_back(std::move(f.path));
    contents.push_back(std::move(f.content));
  }
  const std::vector<FileIndex> fis = build_indexes(paths, contents, opts);
  RunResult result;
  std::string error;
  if (!finalize_run(fis, opts, result, error)) {
    // Baseline problems surface as a synthetic finding so in-memory
    // callers cannot mistake a broken baseline for a clean run.
    result.findings.push_back(Finding{"", 1, "bad-suppression", error, {}});
  }
  return result;
}

std::string to_text(const RunResult& r) {
  std::string out;
  for (const Finding& f : r.findings) {
    out += f.file;
    out += ':';
    out += std::to_string(f.line);
    out += ':';
    out += f.rule;
    out += ": ";
    out += f.message;
    out += '\n';
    if (!f.chain.empty()) {
      out += "    call chain: ";
      for (std::size_t i = 0; i < f.chain.size(); ++i) {
        if (i) out += " → ";
        out += f.chain[i];
      }
      out += '\n';
    }
  }
  if (!r.whole_program) {
    out += "canely_lint: " + std::to_string(r.findings.size()) + " finding" +
           (r.findings.size() == 1 ? "" : "s") + " (" +
           std::to_string(r.suppressed) + " suppressed) in " +
           std::to_string(r.files) + " files\n";
  } else {
    out += "canely_lint: " + std::to_string(r.findings.size()) + " finding" +
           (r.findings.size() == 1 ? "" : "s") + " (" +
           std::to_string(r.suppressed) + " suppressed, " +
           std::to_string(r.baselined) + " baselined) in " +
           std::to_string(r.files) + " files; call graph: " +
           std::to_string(r.functions) + " functions, " +
           std::to_string(r.edges) + " edges\n";
  }
  return out;
}

std::string to_json(const RunResult& r) {
  using json::Value;
  const auto count = [](std::size_t n) {
    return Value::integer(static_cast<std::int64_t>(n));
  };
  Value findings = Value::array();
  for (const Finding& f : r.findings) {
    Value o = Value::object({{"file", Value::string(f.file)},
                             {"line", Value::integer(f.line)},
                             {"rule", Value::string(f.rule)},
                             {"message", Value::string(f.message)}});
    if (!f.chain.empty()) {
      Value chain = Value::array();
      for (const std::string& fn : f.chain) chain.push(Value::string(fn));
      o.set("chain", std::move(chain));
    }
    findings.push(std::move(o));
  }
  const Value root =
      r.whole_program
          ? Value::object({{"schema", Value::string("canely-lint-2")},
                           {"files", count(r.files)},
                           {"functions", count(r.functions)},
                           {"edges", count(r.edges)},
                           {"suppressed", count(r.suppressed)},
                           {"baselined", count(r.baselined)},
                           {"findings", std::move(findings)}})
          : Value::object({{"schema", Value::string("canely-lint-1")},
                           {"files", count(r.files)},
                           {"suppressed", count(r.suppressed)},
                           {"findings", std::move(findings)}});
  return root.dump() + "\n";
}

}  // namespace canely::lint
