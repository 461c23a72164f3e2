#include "lint/index.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "json/json.hpp"
#include "lint/lint.hpp"

namespace canely::lint {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

template <std::size_t N>
[[nodiscard]] bool in_set(const std::array<std::string_view, N>& set,
                          std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

/// Statement keywords that can precede a '(' without being a call or a
/// function name.
constexpr std::array<std::string_view, 22> kNotACall = {
    "if",        "for",         "while",
    "switch",    "return",      "sizeof",
    "alignof",   "decltype",    "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast",
    "catch",     "throw",       "new",
    "delete",    "noexcept",    "typeid",
    "static_assert", "assert",  "alignas",
    "requires"};

/// Builtin-ish type names: `uint32_t(x)` functional casts and
/// `int foo(...)` declarators are not calls worth indexing.
constexpr std::array<std::string_view, 20> kBuiltinish = {
    "int",      "bool",     "char",     "auto",     "void",
    "float",    "double",   "unsigned", "signed",   "long",
    "short",    "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
    "int8_t",   "int16_t",  "int32_t",  "int64_t",  "size_t"};

[[nodiscard]] bool keywordish(std::string_view t) {
  return in_set(kNotACall, t) || t == "else" || t == "do" || t == "case" ||
         t == "default" || t == "struct" || t == "class" || t == "enum" ||
         t == "union" || t == "operator" || t == "this" || t == "co_await" ||
         t == "co_return" || t == "co_yield" || t == "goto";
}

/// The declaration/call-site extractor: a scope-tracking walk over the
/// comment/preproc-filtered token order.  Not a C++ parser — it only
/// needs to recover function definitions (qualified name + body range),
/// call sites, and the type/constant vocabulary the wire audit resolves
/// member layouts with.  When it mis-parses an exotic construct it skips
/// tokens; it never crashes the lint run.
class Extractor {
 public:
  Extractor(const std::vector<Token>& toks,
            const std::vector<std::size_t>& code, bool wire, FileIndex& fi)
      : toks_(toks), code_(code), wire_(wire), fi_(fi) {}

  void run(const std::vector<Directive>& dirs) {
    std::size_t p = 0;
    while (p < code_.size()) {
      const std::size_t next = step(p);
      p = next > p ? next : p + 1;  // never stall on a mis-parse
    }
    assign_tags(dirs);
  }

 private:
  struct Scope {
    enum class Kind : std::uint8_t { kNs, kType, kBlock };
    Kind kind;
    std::string name;        ///< "" for anonymous / blocks
    std::size_t struct_idx;  ///< into fi_.structs, kNone if none
  };
  /// Token span of one indexed function, parallel to fi_.functions.
  struct FnSpan {
    std::size_t start;  ///< first code position of the declaration
    std::size_t open;   ///< body '{'
    std::size_t close;  ///< body '}'
  };

  [[nodiscard]] std::string_view at(std::size_t p) const {
    return p < code_.size() ? toks_[code_[p]].text : std::string_view{};
  }
  [[nodiscard]] TokKind kind(std::size_t p) const {
    return p < code_.size() ? toks_[code_[p]].kind : TokKind::kPunct;
  }
  [[nodiscard]] int line(std::size_t p) const {
    return p < code_.size() ? toks_[code_[p]].line : 1;
  }
  [[nodiscard]] bool ident_at(std::size_t p, std::string_view s) const {
    return kind(p) == TokKind::kIdent && at(p) == s;
  }
  [[nodiscard]] std::size_t match(std::size_t open) const {
    const std::string_view o = at(open);
    const std::string_view c = o == "{" ? "}" : (o == "(" ? ")" : "]");
    int depth = 0;
    for (std::size_t p = open; p < code_.size(); ++p) {
      if (at(p) == o) ++depth;
      if (at(p) == c && --depth == 0) return p;
    }
    return code_.size();
  }
  [[nodiscard]] std::size_t match_angle(std::size_t open) const {
    int depth = 0;
    for (std::size_t p = open; p < code_.size(); ++p) {
      const std::string_view t = at(p);
      if (t == "<") ++depth;
      if (t == ">" && --depth == 0) return p + 1;
      if (t == ";" || t == "{") break;
    }
    return kNone;
  }
  [[nodiscard]] std::size_t skip_to_semi(std::size_t p) const {
    while (p < code_.size() && at(p) != ";" && at(p) != "}") ++p;
    return at(p) == ";" ? p + 1 : p;
  }

  [[nodiscard]] std::string qualify(
      const std::vector<std::string>& comps) const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::Kind::kBlock || s.name.empty()) continue;
      out += s.name;
      out += "::";
    }
    for (std::size_t i = 0; i < comps.size(); ++i) {
      out += comps[i];
      if (i + 1 < comps.size()) out += "::";
    }
    return out;
  }

  // --- top-level walker ----------------------------------------------------

  [[nodiscard]] std::size_t step(std::size_t p) {
    const std::string_view t = at(p);
    if (t == ";") return p + 1;
    if (t == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      return p + 1;
    }
    if (t == "{") {
      scopes_.push_back({Scope::Kind::kBlock, "", kNone});
      return p + 1;
    }
    if (t == "inline" && at(p + 1) == "namespace") return p + 1;
    if (t == "namespace") return parse_namespace(p);
    if (t == "template") {
      std::size_t q = p + 1;
      if (at(q) == "<") {
        const std::size_t m = match_angle(q);
        return m == kNone ? q : m;
      }
      return q;
    }
    if (t == "using") return parse_using(p);
    if (t == "typedef") return skip_to_semi(p);
    if (t == "enum") return parse_enum(p);
    if ((t == "struct" || t == "class" || t == "union") &&
        at(p - 1) != "enum") {
      return parse_type_head(p);
    }
    if (t == "extern" && kind(p + 1) == TokKind::kString) {
      if (at(p + 2) == "{") {
        scopes_.push_back({Scope::Kind::kNs, "", kNone});
        return p + 3;
      }
      return p + 2;
    }
    if ((t == "public" || t == "private" || t == "protected") &&
        at(p + 1) == ":") {
      return p + 2;
    }
    if (t == "static_assert") return skip_to_semi(p);
    return parse_decl(p);
  }

  [[nodiscard]] std::size_t parse_namespace(std::size_t p) {
    std::size_t q = p + 1;
    if (at(q) == "{") {  // anonymous
      scopes_.push_back({Scope::Kind::kNs, "", kNone});
      return q + 1;
    }
    std::string name;
    while (kind(q) == TokKind::kIdent) {
      if (!name.empty()) name += "::";
      name += at(q);
      ++q;
      if (at(q) != "::") break;
      ++q;
    }
    if (at(q) == "=") return skip_to_semi(q);  // namespace alias
    if (at(q) == "{") {
      scopes_.push_back({Scope::Kind::kNs, std::move(name), kNone});
      return q + 1;
    }
    return skip_to_semi(q);
  }

  [[nodiscard]] std::size_t parse_using(std::size_t p) {
    if (at(p + 1) == "namespace") return skip_to_semi(p);
    if (kind(p + 1) == TokKind::kIdent && at(p + 2) == "=") {
      // `using Name = Target;` — record the target's name spelling up to
      // any template bracket; that is all the wire audit resolves.
      std::string target;
      for (std::size_t q = p + 3; q < code_.size() && at(q) != ";"; ++q) {
        if (at(q) == "<") break;
        if (ident_at(q, "typename") || ident_at(q, "const")) continue;
        if (kind(q) == TokKind::kIdent || at(q) == "::") target += at(q);
      }
      fi_.aliases.push_back(
          {qualify({std::string{at(p + 1)}}), std::move(target)});
    }
    return skip_to_semi(p);
  }

  [[nodiscard]] std::size_t parse_enum(std::size_t p) {
    std::size_t q = p + 1;
    if (at(q) == "class" || at(q) == "struct") ++q;
    std::string name;
    if (kind(q) == TokKind::kIdent) {
      name = at(q);
      ++q;
    }
    std::string underlying;
    if (at(q) == ":") {
      for (++q; q < code_.size() && at(q) != "{" && at(q) != ";"; ++q) {
        if (kind(q) == TokKind::kIdent || at(q) == "::") underlying += at(q);
      }
    }
    if (!name.empty() && !underlying.empty()) {
      fi_.aliases.push_back({qualify({name}), underlying});
    }
    if (at(q) == "{") return skip_to_semi(match(q) + 1);
    return skip_to_semi(q);
  }

  [[nodiscard]] std::size_t parse_type_head(std::size_t p) {
    std::size_t q = p + 1;
    while (at(q) == "[" && at(q + 1) == "[") q = match(q) + 1;  // attributes
    if (ident_at(q, "alignas") && at(q + 1) == "(") q = match(q + 1) + 1;
    std::string name;
    while (kind(q) == TokKind::kIdent) {
      if (!name.empty()) name += "::";
      name += at(q);
      ++q;
      if (at(q) == "::") {
        ++q;
        continue;
      }
      break;
    }
    if (at(q) == "<") {  // template specialization head
      const std::size_t m = match_angle(q);
      if (m == kNone) return skip_to_semi(q);
      q = m;
    }
    if (at(q) == ";") return q + 1;  // forward declaration
    if (at(q) == "final") ++q;
    if (at(q) == ":") {  // base clause
      while (q < code_.size() && at(q) != "{" && at(q) != ";") ++q;
    }
    if (at(q) == "{") {
      std::size_t si = kNone;
      if (wire_) {
        si = fi_.structs.size();
        fi_.structs.push_back({qualify({name}), line(p), {}});
      }
      scopes_.push_back({Scope::Kind::kType, std::move(name), si});
      return q + 1;
    }
    // `struct Foo x;` — elaborated type in a declaration; reparse as one.
    return parse_decl(p + 1);
  }

  // --- declarations --------------------------------------------------------

  [[nodiscard]] std::size_t parse_decl(std::size_t p) {
    std::vector<std::size_t> stmt;
    std::size_t paren_open = kNone;
    std::size_t paren_close = kNone;
    bool in_init_list = false;
    std::size_t q = p;
    while (q < code_.size()) {
      const std::string_view t = at(q);
      if (t == ";") {
        decl_end(stmt, paren_open);
        return q + 1;
      }
      if (t == "}") return q;  // enclosing scope ends; step() pops it
      if (t == "(") {
        const std::string_view prev = at(q - 1);
        const bool meta = prev == "noexcept" || prev == "decltype" ||
                          prev == "alignas" || prev == "throw" ||
                          prev == "requires";
        const std::size_t close = match(q);
        if (!in_init_list && !meta) {
          paren_open = q;
          paren_close = close;
        }
        q = close + 1;
        continue;
      }
      if (t == "[") {
        if (at(q + 1) == "[") {  // attribute — not part of the decl
          q = match(q) + 1;
          continue;
        }
        // Array extent (or a lambda capture in an initializer): keep the
        // tokens, the member parser reads extents out of them.
        const std::size_t close = match(q);
        for (std::size_t k = q; k <= close && k < code_.size(); ++k) {
          stmt.push_back(k);
        }
        q = close + 1;
        continue;
      }
      if (t == "<" && q > p && kind(q - 1) == TokKind::kIdent) {
        const std::size_t m = match_angle(q);
        if (m != kNone) {
          for (std::size_t k = q; k < m; ++k) stmt.push_back(k);
          q = m;
          continue;
        }
      }
      if (t == "{") {
        if (in_init_list && kind(q - 1) == TokKind::kIdent) {
          // member brace-init inside a ctor-init list: `: a_{1}`
          q = match(q) + 1;
          continue;
        }
        if (paren_open != kNone && func_name_before(paren_open)) {
          return handle_function(p, paren_open, q);
        }
        q = match(q) + 1;  // brace initializer
        continue;
      }
      if (t == ":" && paren_close != kNone &&
          (q == paren_close + 1 || at(q - 1) == "noexcept" ||
           at(q - 1) == "const")) {
        in_init_list = true;  // ctor-init list follows
        ++q;
        continue;
      }
      stmt.push_back(q);
      ++q;
    }
    return q;
  }

  /// Is the token run ending at `popen` a plausible function name?
  [[nodiscard]] bool func_name_before(std::size_t popen) const {
    if (popen == 0) return false;
    const std::size_t k = popen - 1;
    if (kind(k) == TokKind::kPunct) {
      std::size_t j = k;
      while (j > 0 && kind(j) == TokKind::kPunct && k - j < 4) --j;
      return ident_at(j, "operator");
    }
    if (kind(k) != TokKind::kIdent) return false;
    return !keywordish(at(k)) || ident_at(k - 1, "operator");
  }

  /// Name components ending at `popen`; `name_pos` ← leftmost name token.
  [[nodiscard]] std::vector<std::string> func_name(
      std::size_t popen, std::size_t& name_pos) const {
    std::vector<std::string> comps;
    std::size_t k = popen - 1;
    if (kind(k) == TokKind::kPunct) {
      std::size_t j = k;
      std::string sym;
      while (j > 0 && kind(j) == TokKind::kPunct && k - j < 4) --j;
      if (!ident_at(j, "operator")) return comps;
      for (std::size_t m = j + 1; m <= k; ++m) sym += at(m);
      comps.push_back("operator" + sym);
      k = j;
    } else {
      std::string name{at(k)};
      if (ident_at(k - 1, "operator")) {
        name = "operator " + name;
        --k;
      } else if (at(k - 1) == "~") {
        name = "~" + name;
        --k;
      }
      comps.push_back(std::move(name));
    }
    name_pos = k;
    while (k >= 2 && at(k - 1) == "::" && kind(k - 2) == TokKind::kIdent) {
      comps.insert(comps.begin(), std::string{at(k - 2)});
      k -= 2;
      name_pos = k;
    }
    return comps;
  }

  [[nodiscard]] std::size_t handle_function(std::size_t decl_start,
                                            std::size_t paren_open,
                                            std::size_t body_open) {
    std::size_t name_pos = paren_open;
    const std::vector<std::string> comps = func_name(paren_open, name_pos);
    const std::size_t body_close = match(body_open);
    if (comps.empty()) return body_close + 1;

    FunctionIndex fn;
    fn.name = qualify(comps);
    fn.line = line(name_pos);
    fn.member = comps.size() > 1;
    for (auto it = scopes_.rbegin(); !fn.member && it != scopes_.rend();
         ++it) {
      if (it->kind == Scope::Kind::kType) fn.member = true;
      if (it->kind != Scope::Kind::kBlock) break;
    }
    scan_body(fn, decl_start, body_open, body_close);
    spans_.push_back({decl_start, body_open, body_close});
    fi_.functions.push_back(std::move(fn));
    return body_close + 1;
  }

  void decl_end(const std::vector<std::size_t>& stmt,
                std::size_t paren_open) {
    if (stmt.empty()) return;
    // Integral constant: `[inline] [static] const[expr] T kName = N;`
    bool constish = false;
    for (const std::size_t p : stmt) {
      if (ident_at(p, "constexpr") || ident_at(p, "const")) constish = true;
    }
    if (constish) {
      for (std::size_t i = 1; i + 1 < stmt.size(); ++i) {
        if (at(stmt[i]) == "=" && kind(stmt[i - 1]) == TokKind::kIdent &&
            kind(stmt[i + 1]) == TokKind::kNumber) {
          fi_.constants.push_back(
              {qualify({std::string{at(stmt[i - 1])}}),
               std::strtoll(std::string{at(stmt[i + 1])}.c_str(), nullptr,
                            0)});
          return;
        }
      }
      return;
    }
    if (paren_open != kNone) return;  // function/member declaration
    if (!wire_ || scopes_.empty()) return;
    const Scope& s = scopes_.back();
    if (s.kind != Scope::Kind::kType || s.struct_idx == kNone) return;
    parse_member(stmt, s.struct_idx);
  }

  void parse_member(const std::vector<std::size_t>& stmt,
                    std::size_t struct_idx) {
    for (const std::size_t p : stmt) {
      const std::string_view t = at(p);
      if (t == "static" || t == "using" || t == "friend" || t == "typedef" ||
          t == "template" || t == "virtual") {
        return;  // not wire data
      }
    }
    std::size_t i = 0;
    while (i < stmt.size() && (ident_at(stmt[i], "mutable") ||
                               ident_at(stmt[i], "const") ||
                               ident_at(stmt[i], "volatile") ||
                               ident_at(stmt[i], "inline"))) {
      ++i;
    }
    if (i >= stmt.size() || kind(stmt[i]) != TokKind::kIdent) return;

    MemberIndex m;
    // Element type spelling: ident (:: ident)*.
    while (i < stmt.size() && kind(stmt[i]) == TokKind::kIdent) {
      if (!m.type.empty()) m.type += "::";
      m.type += at(stmt[i]);
      ++i;
      if (i < stmt.size() && at(stmt[i]) == "::") {
        ++i;
        continue;
      }
      break;
    }
    if (i < stmt.size() && at(stmt[i]) == "<") {
      if (m.type == "array" ||
          (m.type.size() > 7 &&
           m.type.compare(m.type.size() - 7, 7, "::array") == 0)) {
        // std::array<T, N>: element type up to the ',', extent after it.
        std::string elem;
        ++i;
        int depth = 1;
        for (; i < stmt.size(); ++i) {
          const std::string_view t = at(stmt[i]);
          if (t == "<") ++depth;
          if (t == ">" && --depth == 0) {
            ++i;
            break;
          }
          if (t == "," && depth == 1) {
            for (++i; i < stmt.size(); ++i) {
              const std::string_view e = at(stmt[i]);
              if (e == ">" && depth == 1) break;
              if (e == "<") ++depth;
              if (e == ">") --depth;
              m.count += e;
            }
            continue;
          }
          if (kind(stmt[i]) == TokKind::kIdent || t == "::") elem += t;
        }
        m.type = std::move(elem);
      } else {
        // Any other template (vector, optional, ...) has no fixed size.
        m.type += "<...>";
        m.opaque = true;
        int depth = 0;
        for (; i < stmt.size(); ++i) {
          if (at(stmt[i]) == "<") ++depth;
          if (at(stmt[i]) == ">" && --depth == 0) {
            ++i;
            break;
          }
        }
      }
    }
    if (i >= stmt.size() || kind(stmt[i]) != TokKind::kIdent) return;
    m.name = at(stmt[i]);
    m.line = line(stmt[i]);
    ++i;
    if (i < stmt.size() && at(stmt[i]) == "[") {
      for (++i; i < stmt.size() && at(stmt[i]) != "]"; ++i) {
        m.count += at(stmt[i]);
      }
    } else if (i < stmt.size() && at(stmt[i]) == ":") {
      m.bitfield = true;
    }
    fi_.structs[struct_idx].members.push_back(std::move(m));
  }

  // --- function bodies -----------------------------------------------------

  [[nodiscard]] bool plainish_call(std::size_t p) const {
    const std::string_view prev = at(p - 1);
    if (prev == "." || prev == "->") return false;
    if (prev == "::") {
      return p < 2 || kind(p - 2) != TokKind::kIdent || at(p - 2) == "std";
    }
    return true;
  }

  void scan_body(FunctionIndex& fn, std::size_t decl_start,
                 std::size_t open, std::size_t close) {
    // Region-local vectors, as in the per-file hot rules: parameters and
    // body locals; member vectors declared elsewhere are exempt.
    std::vector<std::string_view> vec_names;
    std::vector<std::size_t> vec_reserved_at;
    for (std::size_t p = decl_start; p < close && p < code_.size(); ++p) {
      if (ident_at(p, "vector") && at(p + 1) == "<") {
        std::size_t q = match_angle(p + 1);
        if (q == kNone) continue;
        while (at(q) == "&" || at(q) == "*") ++q;
        if (kind(q) == TokKind::kIdent && at(q + 1) != "::") {
          vec_names.push_back(at(q));
          vec_reserved_at.push_back(code_.size());
        }
      }
    }
    for (std::size_t p = open; p < close && p < code_.size(); ++p) {
      if (ident_at(p, "reserve") && at(p + 1) == "(" && p >= 2 &&
          (at(p - 1) == "." || at(p - 1) == "->")) {
        for (std::size_t v = 0; v < vec_names.size(); ++v) {
          if (at(p - 2) == vec_names[v] && p < vec_reserved_at[v]) {
            vec_reserved_at[v] = p;
          }
        }
      }
    }

    for (std::size_t p = open + 1; p < close && p < code_.size(); ++p) {
      if (kind(p) != TokKind::kIdent) continue;
      const std::string_view t = at(p);

      // Allocation / indirection facts (hot propagation seeds).
      if (t == "new" && at(p + 1) != "(") {
        fn.hot_facts.push_back({line(p), "no-hot-alloc", "operator new"});
        continue;
      }
      if (t == "make_unique" || t == "make_shared") {
        fn.hot_facts.push_back(
            {line(p), "no-hot-alloc", "std::" + std::string{t}});
        continue;
      }
      if (t == "function" && at(p - 1) == "::" && at(p - 2) == "std") {
        fn.hot_facts.push_back({line(p), "no-hot-function", "std::function"});
        continue;
      }
      if (t == "push_back" && p >= 2 &&
          (at(p - 1) == "." || at(p - 1) == "->")) {
        for (std::size_t v = 0; v < vec_names.size(); ++v) {
          if (at(p - 2) != vec_names[v]) continue;
          if (vec_reserved_at[v] >= p) {
            fn.hot_facts.push_back({line(p), "no-hot-unreserved-push",
                                    "push_back on unreserved vector '" +
                                        std::string{vec_names[v]} + "'"});
          }
          break;
        }
        fn.calls.push_back({"push_back", line(p), true, false});
        continue;
      }

      // Nondeterminism facts (escape analysis seeds).
      if (sinkset::clock_type(t)) {
        fn.nondet_facts.push_back({line(p), "no-wall-clock", std::string{t}});
        continue;
      }
      if (t == "random_device") {
        fn.nondet_facts.push_back(
            {line(p), "no-rand", "std::random_device"});
        continue;
      }
      const bool is_call = at(p + 1) == "(";
      if (is_call && plainish_call(p)) {
        if (sinkset::clock_call(t)) {
          fn.nondet_facts.push_back(
              {line(p), "no-wall-clock", std::string{t} + "()"});
          continue;
        }
        if (sinkset::rand_call(t)) {
          fn.nondet_facts.push_back(
              {line(p), "no-rand", std::string{t} + "()"});
          continue;
        }
        if (sinkset::env_call(t)) {
          fn.nondet_facts.push_back(
              {line(p), "no-getenv", std::string{t} + "()"});
          continue;
        }
      }

      // Call sites.
      if (keywordish(t) || in_set(kBuiltinish, t)) continue;
      const std::string_view prev = at(p - 1);
      if (is_call) {
        if (prev == "." || prev == "->") {
          fn.calls.push_back({std::string{t}, line(p), true, false});
        } else if (prev == "::") {
          fn.calls.push_back(qualified_call(p));
        } else if (kind(p - 1) == TokKind::kIdent && !keywordish(prev)) {
          // `Foo bar(x);` — a declaration whose initializer calls Foo's
          // constructor; only constructors may resolve.
          if (!in_set(kBuiltinish, prev)) {
            fn.calls.push_back({std::string{prev}, line(p), false, true});
          }
        } else {
          fn.calls.push_back({std::string{t}, line(p), false, false});
        }
      } else if (at(p + 1) == "{" && prev != "." && prev != "->") {
        // `Frame{...}` / `Foo bar{...}` — constructor calls.
        if (kind(p - 1) == TokKind::kIdent && !keywordish(prev) &&
            !in_set(kBuiltinish, prev)) {
          fn.calls.push_back({std::string{prev}, line(p), false, true});
        } else if (prev == "::") {
          CallSite cs = qualified_call(p);
          cs.brace = true;
          fn.calls.push_back(std::move(cs));
        } else if (prev != "struct" && prev != "class" && prev != "enum" &&
                   prev != "union" && prev != "namespace") {
          fn.calls.push_back({std::string{t}, line(p), false, true});
        }
      }
    }
  }

  /// Walk a `::`-qualified name chain back from the last component at `p`.
  [[nodiscard]] CallSite qualified_call(std::size_t p) const {
    std::size_t k = p;
    while (k >= 2 && at(k - 1) == "::" && kind(k - 2) == TokKind::kIdent) {
      k -= 2;
    }
    std::string name;
    for (std::size_t m = k; m <= p; ++m) name += at(m);
    return {std::move(name), line(p), false, false};
  }

  // --- hot / nondeterministic-ok tagging -----------------------------------

  void assign_tags(const std::vector<Directive>& dirs) {
    const auto regions = hot_path_regions(dirs, toks_, code_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      for (const auto& [a, b] : regions) {
        if (a <= spans_[i].close && spans_[i].start <= b) {
          fi_.functions[i].hot = true;
          break;
        }
      }
    }
    for (const Directive& d : dirs) {
      if (d.kind != Directive::Kind::kNondetOk) continue;
      std::size_t best = kNone;
      std::size_t best_start = kNone;
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::size_t start = code_[spans_[i].start];
        const std::size_t close = code_[spans_[i].close];
        if (start <= d.tok && d.tok <= close) {  // annotation inside
          best = i;
          break;
        }
        if (start >= d.tok && (best_start == kNone || start < best_start)) {
          best = i;
          best_start = start;
        }
      }
      if (best != kNone && fi_.functions[best].nondet_ok.empty()) {
        fi_.functions[best].nondet_ok = d.reason;
      }
    }
  }

  const std::vector<Token>& toks_;
  const std::vector<std::size_t>& code_;
  bool wire_;
  FileIndex& fi_;
  std::vector<Scope> scopes_;
  std::vector<FnSpan> spans_;
};

}  // namespace

std::uint64_t fnv64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

FileIndex build_index(std::string_view path, std::string_view content) {
  FileIndex fi;
  fi.path = std::string{path};
  std::string key{path};
  key += '\0';
  key += content;
  fi.content_hash = fnv64(key);

  const Zones z = classify(path);
  if (z.skip) return fi;

  const std::vector<Token> toks = lex(content);
  std::vector<Finding> dir_findings;
  const std::vector<Directive> dirs =
      parse_directives(path, toks, dir_findings);

  // Per-file rules first, then directive findings, then a stable sort by
  // line: byte-identical to the pre-index single-file pipeline.
  run_rules(path, z.flags, toks, dirs, fi.raw);
  for (Finding& f : dir_findings) fi.raw.push_back(std::move(f));
  std::stable_sort(fi.raw.begin(), fi.raw.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });

  for (const Directive& d : dirs) {
    if (d.kind == Directive::Kind::kAllow) {
      fi.suppressions.push_back({d.line, d.rules});
    }
  }

  std::vector<std::size_t> code;
  code.reserve(toks.size());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kComment &&
        toks[i].kind != TokKind::kPreproc) {
      code.push_back(i);
    }
  }
  Extractor ex{toks, code, z.flags.wire, fi};
  ex.run(dirs);
  return fi;
}

namespace {

using json::Value;

Value str(std::string s) { return Value::string(std::move(s)); }
Value num(std::int64_t v) { return Value::integer(v); }
Value flag(bool b) { return Value::boolean(b); }

template <typename T, typename Fn>
Value array_of(const std::vector<T>& items, Fn to_json) {
  Value arr = Value::array();
  for (const T& item : items) arr.push(to_json(item));
  return arr;
}

Value finding_json(const Finding& f) {
  return Value::object({{"line", num(f.line)},
                        {"rule", str(f.rule)},
                        {"message", str(f.message)}});
}

Value suppression_json(const SuppressionIndex& s) {
  return Value::object(
      {{"line", num(s.line)}, {"rules", array_of(s.rules, str)}});
}

Value fact_json(const FactRef& f) {
  return Value::object(
      {{"line", num(f.line)}, {"rule", str(f.rule)}, {"what", str(f.what)}});
}

Value call_json(const CallSite& cs) {
  return Value::object({{"name", str(cs.name)},
                        {"line", num(cs.line)},
                        {"member", flag(cs.member)},
                        {"brace", flag(cs.brace)}});
}

Value function_json(const FunctionIndex& fn) {
  return Value::object({{"name", str(fn.name)},
                        {"line", num(fn.line)},
                        {"member", flag(fn.member)},
                        {"hot", flag(fn.hot)},
                        {"nondet_ok", str(fn.nondet_ok)},
                        {"hot_facts", array_of(fn.hot_facts, fact_json)},
                        {"nondet_facts", array_of(fn.nondet_facts, fact_json)},
                        {"calls", array_of(fn.calls, call_json)}});
}

Value alias_json(const AliasIndex& a) {
  return Value::object({{"name", str(a.name)}, {"target", str(a.target)}});
}

Value constant_json(const ConstantIndex& c) {
  return Value::object({{"name", str(c.name)}, {"value", num(c.value)}});
}

Value member_json(const MemberIndex& m) {
  return Value::object({{"name", str(m.name)},
                        {"type", str(m.type)},
                        {"count", str(m.count)},
                        {"line", num(m.line)},
                        {"bitfield", flag(m.bitfield)},
                        {"opaque", flag(m.opaque)}});
}

Value struct_json(const StructIndex& st) {
  return Value::object({{"name", str(st.name)},
                        {"line", num(st.line)},
                        {"members", array_of(st.members, member_json)}});
}

std::vector<FactRef> facts_from(const Value& fn, std::string_view key,
                                const std::string& what) {
  std::vector<FactRef> facts;
  for (const Value& f :
       json::require(fn, key, Value::Kind::kArray, what).items()) {
    facts.push_back({static_cast<int>(json::get_int(f, "line", what)),
                     json::get_string(f, "rule", what),
                     json::get_string(f, "what", what)});
  }
  return facts;
}

}  // namespace

std::string index_to_json(const FileIndex& fi) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fi.content_hash));
  const Value doc = Value::object(
      {{"schema", str("canely-lint-index-1")},
       {"path", str(fi.path)},
       {"hash", str(hex)},
       {"raw", array_of(fi.raw, finding_json)},
       {"suppressions", array_of(fi.suppressions, suppression_json)},
       {"functions", array_of(fi.functions, function_json)},
       {"aliases", array_of(fi.aliases, alias_json)},
       {"constants", array_of(fi.constants, constant_json)},
       {"structs", array_of(fi.structs, struct_json)}});
  return doc.dump() + "\n";
}

bool index_from_json(std::string_view text, FileIndex& out,
                     std::string& error) {
  using json::get_bool;
  using json::get_int;
  using json::get_string;
  const std::string what = "lint index";
  const auto list = [&what](const Value& obj, std::string_view key)
      -> const std::vector<Value>& {
    return json::require(obj, key, Value::Kind::kArray, what).items();
  };
  const auto line = [&what](const Value& obj) {
    return static_cast<int>(get_int(obj, "line", what));
  };
  try {
    const Value doc = json::parse(text, what);
    if (get_string(doc, "schema", what) != "canely-lint-index-1") {
      error = "not a canely-lint-index-1 document";
      return false;
    }
    FileIndex fi;
    fi.path = get_string(doc, "path", what);
    fi.content_hash =
        std::strtoull(get_string(doc, "hash", what).c_str(), nullptr, 16);
    for (const Value& v : list(doc, "raw")) {
      fi.raw.push_back(Finding{fi.path, line(v), get_string(v, "rule", what),
                               get_string(v, "message", what), {}});
    }
    for (const Value& v : list(doc, "suppressions")) {
      SuppressionIndex s{line(v), {}};
      for (const Value& r : list(v, "rules")) {
        s.rules.push_back(r.as_string());
      }
      fi.suppressions.push_back(std::move(s));
    }
    for (const Value& v : list(doc, "functions")) {
      FunctionIndex fn;
      fn.name = get_string(v, "name", what);
      fn.line = line(v);
      fn.member = get_bool(v, "member", what);
      fn.hot = get_bool(v, "hot", what);
      fn.nondet_ok = get_string(v, "nondet_ok", what);
      fn.hot_facts = facts_from(v, "hot_facts", what);
      fn.nondet_facts = facts_from(v, "nondet_facts", what);
      for (const Value& c : list(v, "calls")) {
        fn.calls.push_back({get_string(c, "name", what), line(c),
                            get_bool(c, "member", what),
                            get_bool(c, "brace", what)});
      }
      fi.functions.push_back(std::move(fn));
    }
    for (const Value& v : list(doc, "aliases")) {
      fi.aliases.push_back(
          {get_string(v, "name", what), get_string(v, "target", what)});
    }
    for (const Value& v : list(doc, "constants")) {
      fi.constants.push_back(
          {get_string(v, "name", what), get_int(v, "value", what)});
    }
    for (const Value& v : list(doc, "structs")) {
      StructIndex st;
      st.name = get_string(v, "name", what);
      st.line = line(v);
      for (const Value& m : list(v, "members")) {
        st.members.push_back(
            {get_string(m, "name", what), get_string(m, "type", what),
             get_string(m, "count", what), line(m),
             get_bool(m, "bitfield", what), get_bool(m, "opaque", what)});
      }
      fi.structs.push_back(std::move(st));
    }
    out = std::move(fi);
  } catch (const std::runtime_error& e) {
    error = e.what();
    return false;
  }
  return true;
}

}  // namespace canely::lint
