// canely_json (src/json): the one codec every on-disk format goes
// through.  Pins the byte format against committed files, the
// dump/parse round trip over seeded random values, and the parser's
// rejection of hostile or out-of-range input with a clean
// std::runtime_error.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "json/json.hpp"
#include "sim/rng.hpp"

namespace canely {
namespace {

using json::Value;

std::string repo_file(const std::string& rel) {
  return json::read_file(std::string(CANELY_SOURCE_DIR) + "/" + rel, rel);
}

// --- byte format -------------------------------------------------------------

TEST(JsonFormat, ParseThenDumpReproducesCommittedFiles) {
  // A campaign trajectory (pretty, indent 2, trailing newline) ...
  const std::string bench = repo_file("BENCH_core.json");
  EXPECT_EQ(json::parse(bench, "BENCH_core.json").dump(2), bench);
  // ... and a lint report (compact; the writer appends the newline).
  const std::string lint = repo_file("tools/lint_baseline.json");
  EXPECT_EQ(json::parse(lint, "lint_baseline.json").dump() + "\n", lint);
}

TEST(JsonFormat, ObjectsKeepInsertionOrderAndNumbersAreExact) {
  Value o = Value::object();
  o.set("z", Value::integer(std::numeric_limits<std::int64_t>::min()));
  o.set("a", Value::number(0.1));
  o.set("m", Value::string("tab\there \"q\" \x01"));
  o.set("z", Value::integer(7));  // overwrite keeps the first position
  EXPECT_EQ(o.dump(),
            "{\"z\":7,\"a\":0.1,\"m\":\"tab\\there \\\"q\\\" \\u0001\"}");
  EXPECT_EQ(Value::number(std::nan("")).dump(), "null");
  EXPECT_EQ(Value::array().dump(2), "[]\n");
}

// --- reader hardening --------------------------------------------------------

void expect_rejected(const std::string& text) {
  try {
    (void)json::parse(text, "probe");
    ADD_FAILURE() << "accepted: " << text.substr(0, 60);
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("probe: ", 0), 0U) << e.what();
  }
}

TEST(JsonParse, DeepNestingIsAnErrorNotAStackOverflow) {
  expect_rejected(std::string(2000000, '['));
  // The cap sits exactly at kMaxDepth.
  const int d = json::kMaxDepth;
  const std::string ok = std::string(static_cast<std::size_t>(d), '[') +
                         std::string(static_cast<std::size_t>(d), ']');
  EXPECT_NO_THROW((void)json::parse(ok, "probe"));
  expect_rejected("[" + ok + "]");
}

TEST(JsonParse, IntegerOverflowIsRejectedNotClamped) {
  expect_rejected("99999999999999999999");
  expect_rejected("-9223372036854775809");
  EXPECT_EQ(json::parse("9223372036854775807", "probe").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(json::parse("-9223372036854775808", "probe").as_int(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonParse, OutOfRangeAndNonFiniteNumbersAreRejected) {
  expect_rejected("1e999");
  expect_rejected("[-1e999]");
  expect_rejected("1e-999");
  expect_rejected("NaN");
  expect_rejected("Infinity");
  // Subnormals are in range and survive exactly.
  EXPECT_EQ(json::parse("5e-324", "probe").as_double(),
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonParse, MalformedInputIsRejected) {
  for (const char* text :
       {"", "[1,]", "{\"a\" 1}", "{\"a\":1,}", "01", "1.", "-", "[1] x",
        "\"unterminated", "\"raw\ncontrol\"", "\"\\x\"", "\"\\u12\"",
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "tru", "nul"}) {
    expect_rejected(text);
  }
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(json::parse("\"\\u00e9\\u20ac\\ud83d\\ude00\"", "probe")
                .as_string(),
            "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  // The writer's own control-character escapes come back as the byte.
  const Value v = json::parse("\"a\\u0001b\\u001f\"", "probe");
  EXPECT_EQ(v.as_string(), std::string("a\x01" "b\x1f"));
  EXPECT_EQ(v.dump(), "\"a\\u0001b\\u001f\"");
}

TEST(JsonParse, MissingOrMistypedFieldsNameTheDocument) {
  const Value doc = json::parse("{\"n\":\"8\"}", "probe");
  EXPECT_THROW((void)json::get_int(doc, "n", "probe"), std::runtime_error);
  EXPECT_THROW((void)json::get_bool(doc, "absent", "probe"),
               std::runtime_error);
  EXPECT_EQ(json::get_string(doc, "n", "probe"), "8");
}

// --- round trip property -----------------------------------------------------

double random_double(sim::Rng& rng) {
  constexpr double kEdges[] = {-0.0,
                               0.0,
                               0x1p63,
                               -0x1p63,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::infinity()};
  switch (rng.below(5)) {
    case 4:
      return kEdges[rng.below(std::size(kEdges))];
    case 0: {  // any bit pattern: NaN, Inf, subnormals, huge, -0
      const std::uint64_t bits = rng.next_u64();
      double d = 0;
      std::memcpy(&d, &bits, sizeof d);
      return d;
    }
    case 1:
      return static_cast<double>(static_cast<std::int64_t>(rng.next_u64()));
    case 2:
      return static_cast<double>(rng.below(2000)) / 8.0 - 100.0;
    default:
      return (rng.below(2) == 0 ? 1.0 : -1.0) *
             std::ldexp(1.0, static_cast<int>(rng.below(200)) - 100);
  }
}

std::string random_string(sim::Rng& rng) {
  std::string s;
  const std::uint64_t len = rng.below(12);
  for (std::uint64_t i = 0; i < len; ++i) {
    // Every byte value: escapes, control bytes, raw high bytes.
    s += static_cast<char>(rng.below(256));
  }
  return s;
}

Value random_value(sim::Rng& rng, int depth) {
  const std::uint64_t pick = rng.below(depth >= 6 ? 5 : 7);
  switch (pick) {
    case 0:
      return Value{};
    case 1:
      return Value::boolean(rng.below(2) == 1);
    case 2:
      return Value::integer(static_cast<std::int64_t>(rng.next_u64()) >>
                            rng.below(64));
    case 3:
      return Value::number(random_double(rng));
    case 4:
      return Value::string(random_string(rng));
    case 5: {
      Value a = Value::array();
      for (std::uint64_t i = rng.below(5); i > 0; --i) {
        a.push(random_value(rng, depth + 1));
      }
      return a;
    }
    default: {
      Value o = Value::object();
      for (std::uint64_t i = rng.below(5); i > 0; --i) {
        o.set(random_string(rng), random_value(rng, depth + 1));
      }
      return o;
    }
  }
}

TEST(JsonRoundTrip, DumpParseDumpIsByteStableOnRandomValues) {
  sim::Rng rng{0xC0DEC};
  for (int i = 0; i < 2000; ++i) {
    const Value v = random_value(rng, 0);
    for (const int indent : {0, 1, 2}) {
      const std::string once = v.dump(indent);
      std::string twice;
      try {
        twice = json::parse(once, "round trip").dump(indent);
      } catch (const std::runtime_error& e) {
        FAIL() << "value " << i << ": " << e.what() << "\n" << once;
      }
      ASSERT_EQ(twice, once) << "value " << i << " indent " << indent;
    }
  }
}

}  // namespace
}  // namespace canely
