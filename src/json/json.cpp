#include "json/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace canely::json {

Value Value::boolean(bool b) {
  Value v{Kind::kBool};
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  Value v{Kind::kDouble};
  v.number_ = d;
  return v;
}

Value Value::integer(std::int64_t i) {
  Value v{Kind::kInt};
  v.integer_ = i;
  return v;
}

Value Value::string(std::string s) {
  Value v{Kind::kString};
  v.string_ = std::move(s);
  return v;
}

Value Value::array() { return Value{Kind::kArray}; }

Value Value::object(std::initializer_list<Member> members) {
  Value v{Kind::kObject};
  for (const Member& m : members) v.set(m.first, m.second);
  return v;
}

Value& Value::set(const std::string& key, Value value) {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("json::Value::set on a non-object");
  }
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

Value& Value::push(Value value) {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("json::Value::push on a non-array");
  }
  array_.push_back(std::move(value));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ------------------------------------------------------------- writing

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[64];
  // Shortest round-trip.  From 2^63 up, that form can be a bare integer
  // of 19+ digits, which parse() would reject as an int64 overflow; force
  // an exponent there so every dumped double reads back.
  const auto res =
      std::fabs(v) >= 0x1p63
          ? std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::scientific)
          : std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

std::string format_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void Value::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kDouble:
      append_number(out, number_);
      break;
    case Kind::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), integer_);
      out.append(buf, res.ptr);
      break;
    }
    case Kind::kString:
      write_escaped(out, string_);
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline(out, indent, depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        newline(out, indent, depth + 1);
        write_escaped(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// ------------------------------------------------------------- parsing

class Parser {
 public:
  Parser(std::string_view text, const std::string& what)
      : text_{text}, what_{what} {}

  Value parse() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(what_ + ": " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  Value value(int depth) {
    skip_ws();
    switch (peek()) {
      case '{':
        return object(depth + 1);
      case '[':
        return array(depth + 1);
      case '"':
        return Value::string(string());
      case 't':
        literal("true");
        return Value::boolean(true);
      case 'f':
        literal("false");
        return Value::boolean(false);
      case 'n':
        literal("null");
        return Value{};
      default:
        return number();
    }
  }

  void enter(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    ++pos_;  // the opening bracket
    skip_ws();
  }

  Value object(int depth) {
    enter(depth);
    Value v = Value::object();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      // Appended, not set(): a document's duplicate keys are kept as
      // written (find() returns the first) and parsing stays linear.
      v.object_.emplace_back(std::move(key), value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array(int depth) {
    enter(depth);
    Value v = Value::array();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.push(value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  unsigned hex4() {
    if (text_.size() - pos_ < 4) fail("truncated \\u escape");
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = text_[pos_++];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    // Lead byte, then 6-bit continuation bytes, most significant first.
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
    for (int k = extra - 1; k >= 0; --k) {
      out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
    }
  }

  // \uXXXX, with a UTF-16 surrogate pair folded into one code point.
  unsigned code_point() {
    const unsigned hi = hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF) fail("lone low surrogate");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
    pos_ += 2;
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': append_utf8(out, code_point()); break;
        default: fail("bad escape");
      }
    }
  }

  bool digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  std::size_t digits() {
    const std::size_t start = pos_;
    while (digit()) ++pos_;
    if (pos_ == start) fail("bad number");
    return pos_ - start;
  }

  Value number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    if (digits() > 1 && text_[int_start] == '0') {
      pos_ = int_start;
      fail("leading zero in number");
    }
    bool real = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      real = true;
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      real = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits();
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // "-0" is how dump() spells the double -0.0; as an integer it would
    // reload as 0 and break the dump/parse round trip.
    if (!real && !(last - first == 2 && first[0] == '-' && first[1] == '0')) {
      std::int64_t i = 0;
      const auto res = std::from_chars(first, last, i);
      if (res.ec != std::errc{} || res.ptr != last) {
        pos_ = start;
        fail("integer out of int64 range");
      }
      return Value::integer(i);
    }
    double d = 0;
    const auto res = std::from_chars(first, last, d);
    if (res.ec != std::errc{} || res.ptr != last || !std::isfinite(d)) {
      pos_ = start;
      fail("number out of double range");
    }
    return Value::number(d);
  }

  std::string_view text_;
  const std::string& what_;
  std::size_t pos_{0};
};

Value parse(std::string_view text, const std::string& what) {
  return Parser{text, what}.parse();
}

const Value& require(const Value& obj, std::string_view key,
                     Value::Kind kind, const std::string& what) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->kind() != kind) {
    throw std::runtime_error(what + ": missing or mistyped field '" +
                             std::string{key} + "'");
  }
  return *v;
}

std::int64_t get_int(const Value& obj, std::string_view key,
                     const std::string& what) {
  return require(obj, key, Value::Kind::kInt, what).as_int();
}

bool get_bool(const Value& obj, std::string_view key,
              const std::string& what) {
  return require(obj, key, Value::Kind::kBool, what).as_bool();
}

const std::string& get_string(const Value& obj, std::string_view key,
                              const std::string& what) {
  return require(obj, key, Value::Kind::kString, what).as_string();
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error(what + ": cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f << text;
  if (!f) throw std::runtime_error("short write to " + path);
}

}  // namespace canely::json
