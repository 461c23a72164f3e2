#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <string>

namespace canely::lint {
namespace {

constexpr RuleInfo kRules[] = {
    {"no-wall-clock", "determinism",
     "wall-clock access (std::chrono clocks, time(), ...) in simulated code"},
    {"no-rand", "determinism",
     "ambient randomness (rand(), std::random_device, ...) outside sim::Rng"},
    {"no-getenv", "determinism",
     "environment access (getenv/setenv/putenv) in simulated code"},
    {"no-unordered-iter", "determinism",
     "unordered container in deterministic code (unspecified iteration "
     "order)"},
    {"no-ptr-keyed-map", "determinism",
     "std::map/std::set keyed by a pointer (address-dependent order)"},
    {"determinism-escape", "determinism",
     "determinism-zone code transitively reaches a wall clock, rand, "
     "getenv, or src/socketcan (whole-program)"},
    {"no-hot-alloc", "hot-path",
     "operator new / make_unique / make_shared in a hot-path region"},
    {"no-hot-function", "hot-path",
     "std::function named in a hot-path region (allocating, indirect)"},
    {"no-hot-unreserved-push", "hot-path",
     "push_back on a region-local vector with no prior reserve()"},
    {"hot-path-transitive", "hot-path",
     "function reachable from a hot-path region allocates or names "
     "std::function / unreserved push_back (whole-program)"},
    {"wire-fixed-width", "wire",
     "wire-format struct member with a non-fixed-width type"},
    {"wire-layout", "wire",
     "wire struct with implicit padding, a reordering hazard, or a member "
     "without a fixed wire size (whole-program)"},
    {"no-using-namespace-header", "repo", "using namespace in a header"},
    {"include-guard", "repo",
     "header lacks #pragma once or an include guard"},
    {"todo-issue", "repo",
     "TODO/FIXME without an issue reference, e.g. TODO(#42)"},
    {"bad-suppression", "repo",
     "malformed canely-lint directive or suppression without a reason"},
    {"unknown-rule", "repo",
     "suppression names a rule the linter does not define"},
    {"unused-suppression", "repo",
     "allow() that silences zero findings under the whole-program pass"},
};

template <std::size_t N>
[[nodiscard]] bool in_set(const std::array<std::string_view, N>& set,
                          std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

[[nodiscard]] constexpr bool ident_charish(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

constexpr std::array<std::string_view, 7> kClockTypes = {
    "system_clock", "steady_clock", "high_resolution_clock", "utc_clock",
    "file_clock",   "gps_clock",    "tai_clock"};
constexpr std::array<std::string_view, 8> kClockCalls = {
    "time",      "clock",  "gettimeofday", "clock_gettime",
    "localtime", "gmtime", "mktime",       "timespec_get"};
constexpr std::array<std::string_view, 7> kRandCalls = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random"};
constexpr std::array<std::string_view, 4> kEnvCalls = {
    "getenv", "secure_getenv", "setenv", "putenv"};

/// One file's token stream plus the index of its *code* tokens (comments
/// and preprocessor lines filtered out), which is what most rules walk.
struct Ctx {
  std::string_view path;
  const std::vector<Token>& toks;
  std::vector<std::size_t> code;  ///< indices into toks
  std::vector<Finding>* out;

  [[nodiscard]] std::string_view at(std::size_t p) const {
    return p < code.size() ? toks[code[p]].text : std::string_view{};
  }
  [[nodiscard]] TokKind kind(std::size_t p) const {
    return p < code.size() ? toks[code[p]].kind : TokKind::kPunct;
  }
  [[nodiscard]] int line(std::size_t p) const {
    return p < code.size() ? toks[code[p]].line : 0;
  }
  [[nodiscard]] bool ident_at(std::size_t p, std::string_view s) const {
    return kind(p) == TokKind::kIdent && at(p) == s;
  }
  void report(std::size_t p, std::string_view rule, std::string msg) const {
    out->push_back(Finding{std::string{path}, line(p), std::string{rule},
                           std::move(msg),
                           {}});
  }

  /// Position after the '>' matching the '<' at `open` (which must hold
  /// '<'); code.size() if unmatched.  Tolerates '>>' because the lexer
  /// emits every '>' separately.
  [[nodiscard]] std::size_t match_angle(std::size_t open) const {
    int depth = 0;
    for (std::size_t p = open; p < code.size(); ++p) {
      const std::string_view t = at(p);
      if (t == "<") ++depth;
      if (t == ">" && --depth == 0) return p + 1;
      if (t == ";" || t == "{") break;  // not a template argument list
    }
    return code.size();
  }
  /// Position of the '}' / ')' matching the bracket at `open`.
  [[nodiscard]] std::size_t match(std::size_t open) const {
    const std::string_view o = at(open);
    const std::string_view c = o == "{" ? "}" : (o == "(" ? ")" : "]");
    int depth = 0;
    for (std::size_t p = open; p < code.size(); ++p) {
      if (at(p) == o) ++depth;
      if (at(p) == c && --depth == 0) return p;
    }
    return code.size();
  }
};

/// Is the call `ident (` at position `p` a plain or std::-qualified call
/// (as opposed to a member call or another namespace's function)?
[[nodiscard]] bool plain_or_std_call(const Ctx& c, std::size_t p) {
  if (p == 0) return true;
  const std::string_view prev = c.at(p - 1);
  if (prev == "." || prev == "->") return false;
  if (prev == "::") {
    // std::time( or ::time( flag; other_ns::time( does not.
    return p < 2 || c.kind(p - 2) != TokKind::kIdent || c.at(p - 2) == "std";
  }
  return true;
}

// --- determinism zone ------------------------------------------------------

void check_determinism(const Ctx& c) {
  static constexpr std::array<std::string_view, 4> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static constexpr std::array<std::string_view, 4> kOrderedAssoc = {
      "map", "set", "multimap", "multiset"};

  std::vector<std::string_view> unordered_names;  // declared in this file

  for (std::size_t p = 0; p < c.code.size(); ++p) {
    if (c.kind(p) != TokKind::kIdent) continue;
    const std::string_view t = c.at(p);

    if (in_set(kClockTypes, t)) {
      c.report(p, "no-wall-clock",
               "wall-clock type '" + std::string{t} +
                   "' in a determinism zone; simulated code must take time "
                   "from sim::Engine::now()");
    } else if (in_set(kClockCalls, t) && c.at(p + 1) == "(" &&
               plain_or_std_call(c, p)) {
      c.report(p, "no-wall-clock",
               "wall-clock call '" + std::string{t} +
                   "()' in a determinism zone; simulated code must take "
                   "time from sim::Engine::now()");
    }

    if (t == "random_device") {
      c.report(p, "no-rand",
               "std::random_device in a determinism zone; derive randomness "
               "from the run seed via sim::Rng");
    } else if (in_set(kRandCalls, t) && c.at(p + 1) == "(" &&
               plain_or_std_call(c, p)) {
      c.report(p, "no-rand",
               "ambient randomness '" + std::string{t} +
                   "()' in a determinism zone; derive randomness from the "
                   "run seed via sim::Rng");
    }

    if (in_set(kEnvCalls, t) && c.at(p + 1) == "(" &&
        plain_or_std_call(c, p)) {
      c.report(p, "no-getenv",
               "environment access '" + std::string{t} +
                   "()' in a determinism zone; plumb configuration through "
                   "explicit parameters");
    }

    if (in_set(kUnordered, t)) {
      c.report(p, "no-unordered-iter",
               "std::" + std::string{t} +
                   " in a determinism zone; iteration order is unspecified "
                   "— use std::map/std::set or a sorted vector");
      // Record the declared name (if this is a declaration) so iteration
      // over it is reported at the loop, too.
      if (c.at(p + 1) == "<") {
        std::size_t q = c.match_angle(p + 1);
        while (c.at(q) == "&" || c.at(q) == "*") ++q;
        if (c.kind(q) == TokKind::kIdent && c.at(q + 1) != "::") {
          unordered_names.push_back(c.at(q));
        }
      }
    }

    if (in_set(kOrderedAssoc, t) && p >= 2 && c.at(p - 1) == "::" &&
        c.at(p - 2) == "std" && c.at(p + 1) == "<") {
      // Scan the first template argument for a pointer declarator.
      int depth = 0;
      for (std::size_t q = p + 1; q < c.code.size(); ++q) {
        const std::string_view a = c.at(q);
        if (a == "<") ++depth;
        if (a == ">" && --depth == 0) break;
        if (a == "," && depth == 1) break;  // first argument ended
        if (a == ";" || a == "{") break;
        if (a == "*") {
          c.report(p, "no-ptr-keyed-map",
                   "std::" + std::string{t} +
                       " keyed by a pointer in a determinism zone; ordering "
                       "depends on allocation addresses — key by a stable id");
          break;
        }
      }
    }
  }

  // Iteration over a container declared unordered *in this file*:
  // x.begin()/cbegin() and range-for.
  for (std::size_t p = 0; p < c.code.size(); ++p) {
    const std::string_view t = c.at(p);
    if (c.kind(p) == TokKind::kIdent &&
        std::find(unordered_names.begin(), unordered_names.end(), t) !=
            unordered_names.end()) {
      if ((c.at(p + 1) == "." || c.at(p + 1) == "->") &&
          (c.at(p + 2) == "begin" || c.at(p + 2) == "cbegin" ||
           c.at(p + 2) == "rbegin" || c.at(p + 2) == "crbegin") &&
          c.at(p + 3) == "(") {
        c.report(p, "no-unordered-iter",
                 "iteration over unordered container '" + std::string{t} +
                     "' (unspecified order)");
      }
    }
    if (c.ident_at(p, "for") && c.at(p + 1) == "(") {
      const std::size_t close = c.match(p + 1);
      for (std::size_t q = p + 2; q < close; ++q) {
        if (c.at(q) != ":") continue;
        const std::string_view range = c.at(q + 1);
        if (q + 2 == close && c.kind(q + 1) == TokKind::kIdent &&
            std::find(unordered_names.begin(), unordered_names.end(),
                      range) != unordered_names.end()) {
          c.report(q + 1, "no-unordered-iter",
                   "range-for over unordered container '" +
                       std::string{range} + "' (unspecified order)");
        }
        break;  // only the top-level ':' of the range-for matters
      }
    }
  }
}

// --- hot-path zone ---------------------------------------------------------

void check_hot_paths(const Ctx& c,
                     const std::vector<std::pair<std::size_t, std::size_t>>&
                         regions) {
  for (const auto& [a, b] : regions) {
    // Vectors declared inside the region (locals/parameters); member
    // vectors (declared elsewhere) are exempt by construction.
    std::vector<std::string_view> vec_names;
    std::vector<std::size_t> vec_reserved_at;  // first reserve() position
    for (std::size_t p = a; p <= b && p < c.code.size(); ++p) {
      if (c.ident_at(p, "vector") && c.at(p + 1) == "<") {
        std::size_t q = c.match_angle(p + 1);
        while (c.at(q) == "&" || c.at(q) == "*") ++q;
        if (c.kind(q) == TokKind::kIdent && c.at(q + 1) != "::") {
          vec_names.push_back(c.at(q));
          vec_reserved_at.push_back(c.code.size());
        }
      }
    }
    for (std::size_t p = a; p <= b && p < c.code.size(); ++p) {
      if (c.ident_at(p, "reserve") && c.at(p + 1) == "(" && p >= 2 &&
          (c.at(p - 1) == "." || c.at(p - 1) == "->")) {
        for (std::size_t v = 0; v < vec_names.size(); ++v) {
          if (c.at(p - 2) == vec_names[v] && p < vec_reserved_at[v]) {
            vec_reserved_at[v] = p;
          }
        }
      }
    }
    for (std::size_t p = a; p <= b && p < c.code.size(); ++p) {
      if (c.kind(p) != TokKind::kIdent) continue;
      const std::string_view t = c.at(p);
      if (t == "new") {
        // Placement new (`new (buf) T`) constructs into existing storage
        // and is the sanctioned pool idiom; only allocating `new` is
        // banned.
        if (c.at(p + 1) == "(") continue;
        c.report(p, "no-hot-alloc",
                 "operator new in a hot-path region; use a pool, slot "
                 "vector, or caller-provided buffer");
      } else if (t == "make_unique" || t == "make_shared") {
        c.report(p, "no-hot-alloc",
                 "std::" + std::string{t} +
                     " in a hot-path region; allocate outside the hot path");
      } else if (t == "function" && p >= 2 && c.at(p - 1) == "::" &&
                 c.at(p - 2) == "std") {
        c.report(p, "no-hot-function",
                 "std::function in a hot-path region; use sim::Callback or "
                 "a template parameter");
      } else if (t == "push_back" && p >= 2 &&
                 (c.at(p - 1) == "." || c.at(p - 1) == "->")) {
        for (std::size_t v = 0; v < vec_names.size(); ++v) {
          if (c.at(p - 2) != vec_names[v]) continue;
          if (vec_reserved_at[v] >= p) {
            c.report(p, "no-hot-unreserved-push",
                     "push_back on vector '" + std::string{vec_names[v]} +
                         "' with no prior reserve() in this hot-path "
                         "region");
          }
          break;
        }
      }
    }
  }
}

// --- wire zone -------------------------------------------------------------

void check_wire(const Ctx& c) {
  static constexpr std::array<std::string_view, 20> kNonFixed = {
      "int",      "short",    "long",       "unsigned",  "signed",
      "char",     "wchar_t",  "char8_t",    "char16_t",  "char32_t",
      "size_t",   "ptrdiff_t", "ssize_t",   "time_t",    "intptr_t",
      "uintptr_t", "intmax_t", "uintmax_t", "float",     "double"};
  static constexpr std::array<std::string_view, 5> kSkipLeads = {
      "static", "using", "friend", "typedef", "template"};
  static constexpr std::array<std::string_view, 5> kBodyMarks = {
      ")", "const", "noexcept", "override", "final"};

  int depth = 0;
  std::vector<int> struct_stack;  // depth of each open struct body
  bool pending_struct = false;
  std::vector<std::size_t> stmt;

  const auto in_body = [&] {
    return !struct_stack.empty() && struct_stack.back() == depth;
  };
  const auto analyze = [&] {
    // Drop access-specifier labels that leaked into the statement.
    std::size_t s = 0;
    while (s + 1 < stmt.size() &&
           (c.at(stmt[s]) == "public" || c.at(stmt[s]) == "private" ||
            c.at(stmt[s]) == "protected") &&
           c.at(stmt[s + 1]) == ":") {
      s += 2;
    }
    if (s >= stmt.size()) return;
    if (in_set(kSkipLeads, c.at(stmt[s]))) return;  // not wire data
    for (std::size_t i = s; i < stmt.size(); ++i) {
      if (c.at(stmt[i]) == "(") return;  // function declaration
    }
    for (std::size_t i = s; i < stmt.size(); ++i) {
      const std::size_t p = stmt[i];
      // Qualified and unqualified spellings alike: std::size_t lexes to
      // an ident "size_t" just as bare size_t does.
      if (c.kind(p) == TokKind::kIdent && in_set(kNonFixed, c.at(p))) {
        c.report(p, "wire-fixed-width",
                 "wire struct member uses non-fixed-width type '" +
                     std::string{c.at(p)} +
                     "'; use std::uintN_t / std::intN_t");
        return;  // one finding per member is enough
      }
    }
  };

  for (std::size_t p = 0; p < c.code.size(); ++p) {
    const std::string_view t = c.at(p);
    if (t == "struct" || t == "class") {
      const bool after_enum = p > 0 && c.at(p - 1) == "enum";
      const std::string_view n2 = c.at(p + 2);
      if (!after_enum && c.kind(p + 1) == TokKind::kIdent &&
          (n2 == "{" || n2 == ":" || n2 == "final")) {
        pending_struct = true;
      }
      continue;
    }
    if (t == "{") {
      if (pending_struct) {
        pending_struct = false;
        ++depth;
        struct_stack.push_back(depth);
        stmt.clear();
        continue;
      }
      if (in_body()) {
        // Member-level brace: a function body (skip and reset) or a brace
        // initializer (skip, keep accumulating the declaration).
        const bool is_func_body =
            p > 0 && in_set(kBodyMarks, c.at(p - 1));
        const std::size_t close = c.match(p);
        if (is_func_body) stmt.clear();
        p = close;  // loop ++ moves past the '}'
        continue;
      }
      ++depth;
      continue;
    }
    if (t == "}") {
      if (in_body()) {
        analyze();  // flush a trailing un-terminated statement
        stmt.clear();
        struct_stack.pop_back();
      }
      if (depth > 0) --depth;
      continue;
    }
    if (t == ";") pending_struct = false;
    if (in_body()) {
      if (t == ";") {
        analyze();
        stmt.clear();
      } else {
        stmt.push_back(p);
      }
    }
  }
}

// --- repo-wide -------------------------------------------------------------

void check_header_rules(const Ctx& c) {
  for (std::size_t p = 0; p + 1 < c.code.size(); ++p) {
    if (c.ident_at(p, "using") && c.ident_at(p + 1, "namespace")) {
      c.report(p, "no-using-namespace-header",
               "using namespace in a header leaks into every includer");
    }
  }

  // Include guard: #pragma once anywhere, or a leading #ifndef/#define
  // pair.
  bool guarded = false;
  std::string_view first, second;
  for (const Token& t : c.toks) {
    if (t.kind != TokKind::kPreproc) continue;
    std::size_t i = 1;  // past '#'
    while (i < t.text.size() && (t.text[i] == ' ' || t.text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < t.text.size() && ident_charish(t.text[j])) ++j;
    const std::string_view word = t.text.substr(i, j - i);
    if (word == "pragma" &&
        t.text.find("once", j) != std::string_view::npos) {
      guarded = true;
      break;
    }
    if (first.empty()) {
      first = word;
    } else if (second.empty()) {
      second = word;
    }
  }
  if (!guarded && ((first == "ifndef" || first == "if") && second == "define")) {
    guarded = true;
  }
  if (!guarded && !c.toks.empty()) {
    c.out->push_back(Finding{std::string{c.path}, 1, "include-guard",
                             "header lacks #pragma once or an include "
                             "guard",
                             {}});
  }
}

void check_todo(const Ctx& c) {
  for (const Token& t : c.toks) {
    if (t.kind != TokKind::kComment) continue;
    for (const std::string_view word : {std::string_view{"TODO"},
                                        std::string_view{"FIXME"}}) {
      std::size_t from = 0;
      while (true) {
        const std::size_t o = t.text.find(word, from);
        if (o == std::string_view::npos) break;
        from = o + word.size();
        // Word boundary on both sides ("AUTODOC", "TODOs" are words, not
        // markers).
        if (o > 0 && (ident_charish(t.text[o - 1]))) continue;
        if (from < t.text.size() && ident_charish(t.text[from])) continue;
        const std::string_view rest = t.text.substr(from);
        if (rest.substr(0, 2) == "(#" || rest.substr(0, 6) == "(issue" ||
            rest.substr(0, 6) == "(ISSUE" || rest.substr(0, 6) == "(Issue") {
          continue;
        }
        int line = t.line;
        for (std::size_t i = 0; i < o; ++i) {
          if (t.text[i] == '\n') ++line;
        }
        c.out->push_back(
            Finding{std::string{c.path}, line, "todo-issue",
                    std::string{word} +
                        " without an issue reference; write " +
                        std::string{word} + "(#NN) or remove it",
                    {}});
      }
    }
  }
}

}  // namespace

std::span<const RuleInfo> rule_table() { return kRules; }

bool known_rule(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (r.id == id) return true;
  }
  return false;
}

namespace sinkset {
bool clock_type(std::string_view name) { return in_set(kClockTypes, name); }
bool clock_call(std::string_view name) { return in_set(kClockCalls, name); }
bool rand_call(std::string_view name) { return in_set(kRandCalls, name); }
bool env_call(std::string_view name) { return in_set(kEnvCalls, name); }
}  // namespace sinkset

std::vector<Directive> parse_directives(std::string_view path,
                                        const std::vector<Token>& toks,
                                        std::vector<Finding>& out) {
  std::vector<Directive> dirs;
  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    const Token& t = toks[ti];
    if (t.kind != TokKind::kComment) continue;
    const std::string_view text = t.text;
    const std::size_t d = text.find("canely-lint:");
    if (d == std::string_view::npos) continue;
    // A directive must open its comment ("// canely-lint: ...");
    // prose that merely *mentions* the grammar is not a directive.
    if (text.find_first_not_of("/* \t", 0) != d) continue;
    std::size_t i = d + 12;
    while (i < text.size() && text[i] == ' ') ++i;

    if (text.substr(i, 8) == "hot-path") {
      dirs.push_back(Directive{Directive::Kind::kHotPath, t.line, ti, {}, {}});
      continue;
    }

    // `nondeterministic-ok(<reason>)` — whole-program escape seam.
    if (text.substr(i, 17) == "nondeterministic-") {
      constexpr std::string_view kWord = "nondeterministic-ok";
      if (text.substr(i, kWord.size()) != kWord) {
        out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                              "unrecognized canely-lint directive; expected "
                              "'allow(<rules>) — <reason>', 'hot-path' or "
                              "'nondeterministic-ok(<reason>)'",
                              {}});
        continue;
      }
      i += kWord.size();
      while (i < text.size() && text[i] == ' ') ++i;
      const std::size_t close = i < text.size() && text[i] == '('
                                    ? text.find(')', i)
                                    : std::string_view::npos;
      std::string_view reason = close == std::string_view::npos
                                    ? std::string_view{}
                                    : text.substr(i + 1, close - i - 1);
      while (!reason.empty() && reason.front() == ' ') reason.remove_prefix(1);
      while (!reason.empty() && reason.back() == ' ') reason.remove_suffix(1);
      if (reason.size() < 3) {
        out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                              "nondeterministic-ok without a reason; write "
                              "'nondeterministic-ok(<why this seam is "
                              "safe>)'",
                              {}});
        continue;
      }
      dirs.push_back(Directive{Directive::Kind::kNondetOk, t.line, ti, {},
                               std::string{reason}});
      continue;
    }

    if (text.substr(i, 5) != "allow") {
      out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                            "unrecognized canely-lint directive; expected "
                            "'allow(<rules>) — <reason>', 'hot-path' or "
                            "'nondeterministic-ok(<reason>)'",
                            {}});
      continue;
    }
    i += 5;
    while (i < text.size() && text[i] == ' ') ++i;
    if (i >= text.size() || text[i] != '(') {
      out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                            "allow must list rules in parentheses: "
                            "allow(rule-a, rule-b)",
                            {}});
      continue;
    }
    const std::size_t close = text.find(')', i);
    if (close == std::string_view::npos) {
      out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                            "unterminated allow(...) rule list",
                            {}});
      continue;
    }
    // Split the rule list.
    Directive s{Directive::Kind::kAllow, t.line, ti, {}, {}};
    bool ok = true;
    std::size_t start = i + 1;
    for (std::size_t j = i + 1; j <= close; ++j) {
      if (j == close || text[j] == ',') {
        std::string_view rule = text.substr(start, j - start);
        while (!rule.empty() && rule.front() == ' ') rule.remove_prefix(1);
        while (!rule.empty() && rule.back() == ' ') rule.remove_suffix(1);
        start = j + 1;
        if (rule.empty()) continue;
        if (!known_rule(rule)) {
          out.push_back(Finding{std::string{path}, t.line, "unknown-rule",
                                "allow() names unknown rule '" +
                                    std::string{rule} +
                                    "'; see canely_lint --list-rules",
                                {}});
          ok = false;
          continue;
        }
        s.rules.emplace_back(rule);
      }
    }
    if (s.rules.empty()) {
      out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                            "allow() lists no valid rule",
                            {}});
      continue;
    }
    // Reason: everything after the ')' minus separator punctuation
    // (' — ', ' - ', ': ').  It must carry actual words.
    std::size_t r = close + 1;
    while (r < text.size() &&
           (text[r] == ' ' || text[r] == '-' || text[r] == ':' ||
            static_cast<unsigned char>(text[r]) >= 0x80)) {
      ++r;  // the >=0x80 arm eats UTF-8 dashes (em/en)
    }
    std::string_view reason = text.substr(r);
    const std::size_t tail = reason.find("*/");
    if (tail != std::string_view::npos) reason = reason.substr(0, tail);
    while (!reason.empty() && reason.back() == ' ') reason.remove_suffix(1);
    if (reason.size() < 3) {
      out.push_back(Finding{std::string{path}, t.line, "bad-suppression",
                            "suppression without a reason; write "
                            "'allow(" + s.rules.front() +
                                ") — <why this is safe>'",
                            {}});
      continue;
    }
    if (ok) {
      s.reason = std::string{reason};
      dirs.push_back(std::move(s));
    }
  }
  return dirs;
}

std::vector<std::pair<std::size_t, std::size_t>> hot_path_regions(
    const std::vector<Directive>& dirs, const std::vector<Token>& toks,
    const std::vector<std::size_t>& code) {
  Ctx c{{}, toks, code, nullptr};
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (const Directive& dir : dirs) {
    if (dir.kind != Directive::Kind::kHotPath) continue;
    // First code position after the tag.
    const auto it = std::upper_bound(code.begin(), code.end(), dir.tok);
    const auto start = static_cast<std::size_t>(it - code.begin());
    bool brace_before = false;
    for (std::size_t p = 0; p < start; ++p) {
      if (c.at(p) == "{") {
        brace_before = true;
        break;
      }
    }
    if (!brace_before) {
      regions.emplace_back(0, code.empty() ? 0 : code.size() - 1);
      continue;
    }
    std::size_t open = start;
    while (open < code.size() && c.at(open) != "{") ++open;
    if (open == code.size()) continue;  // tag with nothing after it
    regions.emplace_back(start, c.match(open));
  }
  return regions;
}

void run_rules(std::string_view path, ZoneFlags zones,
               const std::vector<Token>& toks,
               const std::vector<Directive>& dirs,
               std::vector<Finding>& out) {
  Ctx c{path, toks, {}, &out};
  c.code.reserve(toks.size());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kComment &&
        toks[i].kind != TokKind::kPreproc) {
      c.code.push_back(i);
    }
  }
  if (zones.determinism) check_determinism(c);
  // Hot-path rules are scoped by in-source tags, not by path.
  check_hot_paths(c, hot_path_regions(dirs, toks, c.code));
  if (zones.wire) check_wire(c);
  if (zones.header) check_header_rules(c);
  check_todo(c);
}

}  // namespace canely::lint
