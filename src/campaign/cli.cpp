#include "campaign/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace canely::campaign {

bool parse_shard(const std::string& text, std::size_t& index,
                 std::size_t& count) {
  const std::size_t slash = text.find('/');
  if (slash == 0 || slash == std::string::npos || slash + 1 >= text.size()) {
    return false;
  }
  char* end = nullptr;
  const std::string numer = text.substr(0, slash);
  const unsigned long long i = std::strtoull(numer.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  const std::string denom = text.substr(slash + 1);
  const unsigned long long n = std::strtoull(denom.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  if (n == 0 || i >= n) return false;
  index = static_cast<std::size_t>(i);
  count = static_cast<std::size_t>(n);
  return true;
}

CliOptions parse_cli(int argc, char** argv, const std::string& default_json) {
  CliOptions opts;
  opts.json_path = default_json;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        opts.help = true;
        return "";
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      opts.threads = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--json") {
      opts.json_path = value();
    } else if (arg == "--no-json") {
      opts.json_path.clear();
    } else {
      opts.help = true;  // includes --help / -h / anything unknown
    }
  }
  return opts;
}

void print_cli_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--seed S] [--json PATH | --no-json]\n"
               "  --threads N  worker threads (default: hardware concurrency)\n"
               "  --seed S     campaign master seed (default 42)\n"
               "  --json PATH  write the campaign trajectory JSON here\n"
               "  --no-json    suppress JSON emission\n",
               argv0);
}

}  // namespace canely::campaign
