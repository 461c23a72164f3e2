#pragma once
// canely_json: the repository's one JSON codec.  A single value type
// builds every document the repo writes (BENCH_*.json trajectories,
// checker artifacts and frontiers, telemetry lines, Perfetto traces,
// lint reports and index caches) and holds every document it reads
// back.  Dependency-free, so even the leaf canely_lint library links it.
//
// Byte-identity contract: dump() is a pure function of the value tree.
// Objects keep insertion order, integers print exactly, doubles print
// shortest-round-trip (std::to_chars), so the same value always dumps to
// the same bytes — which is how campaign outputs are compared across
// thread counts — and dump(parse(dump(v))) == dump(v) for every v.
//
// The parser is strict and bounded: nesting deeper than kMaxDepth,
// integers outside int64, numbers that overflow or underflow a double,
// raw control characters in strings and trailing input are all errors
// (std::runtime_error prefixed with the caller's `what`), never a crash,
// a clamp or an abort.  \uXXXX escapes (surrogate pairs included) decode
// to UTF-8.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace canely::json {

/// Deepest array/object nesting parse() accepts; every schema in the
/// repository stays well under it.
inline constexpr int kMaxDepth = 64;

class Parser;

/// A JSON value: null, bool, int64, double, string, array, or
/// insertion-ordered object.
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };
  using Member = std::pair<std::string, Value>;

  Value() = default;  // null

  [[nodiscard]] static Value boolean(bool b);
  [[nodiscard]] static Value number(double v);
  [[nodiscard]] static Value integer(std::int64_t v);
  [[nodiscard]] static Value string(std::string s);
  [[nodiscard]] static Value array();
  /// An object, optionally with initial members (set() semantics).
  [[nodiscard]] static Value object(std::initializer_list<Member> members = {});

  /// Object member (insertion-ordered; duplicate keys overwrite).
  Value& set(const std::string& key, Value value);

  /// Array element.
  Value& push(Value value);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::int64_t as_int() const { return integer_; }
  /// The number as a double, for kDouble and kInt alike.
  [[nodiscard]] double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(integer_) : number_;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  /// Array elements (empty for every other kind).
  [[nodiscard]] const std::vector<Value>& items() const { return array_; }
  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Serialize.  `indent` > 0 pretty-prints with that many spaces and
  /// ends with a newline; 0 is compact with no trailing newline.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  friend class Parser;  // appends parsed members without set()'s scan

  explicit Value(Kind kind) : kind_{kind} {}
  void write(std::string& out, int indent, int depth) const;

  Kind kind_{Kind::kNull};
  bool bool_{false};
  double number_{0};
  std::int64_t integer_{0};
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Parse `text` completely; throws std::runtime_error (message prefixed
/// with `what`) on any malformed, out-of-range or trailing input.
[[nodiscard]] Value parse(std::string_view text, const std::string& what);

/// Fetch a mandatory object member of the given kind; throws
/// std::runtime_error naming `what` when it is missing or mistyped.
[[nodiscard]] const Value& require(const Value& obj, std::string_view key,
                                   Value::Kind kind, const std::string& what);
[[nodiscard]] std::int64_t get_int(const Value& obj, std::string_view key,
                                   const std::string& what);
[[nodiscard]] bool get_bool(const Value& obj, std::string_view key,
                            const std::string& what);
[[nodiscard]] const std::string& get_string(const Value& obj,
                                            std::string_view key,
                                            const std::string& what);

/// Format a double exactly as dump() does: shortest round-trip, "null"
/// for NaN/Inf (JSON has neither).
[[nodiscard]] std::string format_number(double v);

/// Read a whole file; throws std::runtime_error naming `what` when it
/// cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& what);

/// Write `text` to `path` (truncate + write); throws std::runtime_error
/// on I/O failure.
void write_file(const std::string& path, const std::string& text);

}  // namespace canely::json
