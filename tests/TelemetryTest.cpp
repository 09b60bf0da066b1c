//===- tests/TelemetryTest.cpp - Remarks and JSON -------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Json.h"
#include "telemetry/Remarks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::telemetry;

namespace {

TEST(Json, EscapeCoversControlAndQuoteCharacters) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::escape(std::string("a\x01z", 3)), "a\\u0001z");
}

TEST(Json, WriterProducesValidDocuments) {
  json::Writer W;
  W.beginObject()
      .key("s")
      .value("he \"said\"\n")
      .key("n")
      .value(uint64_t{18446744073709551615ull})
      .key("i")
      .value(int64_t{-7})
      .key("b")
      .value(true);
  W.key("arr").beginArray().value(1).value(2).null().endArray();
  W.key("nested").beginObject().endObject();
  W.endObject();
  EXPECT_TRUE(json::isValid(W.str())) << W.str();
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  // JSON has no NaN/Infinity literals; the writer must emit null so the
  // document stays spec-valid (and Perfetto/jq keep loading it).
  json::Writer W;
  W.beginObject()
      .key("nan")
      .value(std::nan(""))
      .key("pinf")
      .value(std::numeric_limits<double>::infinity())
      .key("ninf")
      .value(-std::numeric_limits<double>::infinity())
      .key("subnormal")
      .value(std::numeric_limits<double>::denorm_min())
      .key("negzero")
      .value(-0.0)
      .endObject();
  const std::string Doc = W.str();
  ASSERT_TRUE(json::isValid(Doc)) << Doc;
  json::Value Root;
  ASSERT_TRUE(json::parse(Doc, Root));
  EXPECT_EQ(Root.find("nan")->kind(), json::Value::Kind::Null);
  EXPECT_EQ(Root.find("pinf")->kind(), json::Value::Kind::Null);
  EXPECT_EQ(Root.find("ninf")->kind(), json::Value::Kind::Null);
  // Subnormals are finite: they must survive as (tiny) numbers.
  ASSERT_EQ(Root.find("subnormal")->kind(), json::Value::Kind::Number);
  EXPECT_GT(Root.find("subnormal")->asNumber(), 0.0);
  EXPECT_EQ(Root.find("negzero")->kind(), json::Value::Kind::Number);
}

TEST(Json, WriterParserRoundTripPreservesStructure) {
  json::Writer W;
  W.beginObject()
      .key("text")
      .value("he \"said\"\n\ttab \\ slash")
      .key("big")
      .value(uint64_t{9007199254740993ull})
      .key("neg")
      .value(int64_t{-42})
      .key("pi")
      .value(3.25)
      .key("flags")
      .beginArray()
      .value(true)
      .value(false)
      .null()
      .endArray()
      .key("empty")
      .beginObject()
      .endObject()
      .endObject();
  json::Value Root;
  ASSERT_TRUE(json::parse(W.str(), Root)) << W.str();
  EXPECT_EQ(Root.find("text")->asString(), "he \"said\"\n\ttab \\ slash");
  EXPECT_EQ(Root.find("neg")->asNumber(), -42.0);
  EXPECT_DOUBLE_EQ(Root.find("pi")->asNumber(), 3.25);
  ASSERT_EQ(Root.find("flags")->array().size(), 3u);
  EXPECT_TRUE(Root.find("flags")->array()[0].asBool());
  EXPECT_EQ(Root.find("flags")->array()[2].kind(),
            json::Value::Kind::Null);
  EXPECT_TRUE(Root.find("empty")->object().empty());
  EXPECT_EQ(Root.numberOr("missing", -1.0), -1.0);
  EXPECT_EQ(Root.stringOr("text", ""), "he \"said\"\n\ttab \\ slash");
}

TEST(Json, ParserDecodesEscapesAndSurrogatePairs) {
  json::Value V;
  ASSERT_TRUE(json::parse("\"a\\u0041\\n\\u00e9\"", V));
  EXPECT_EQ(V.asString(), "aA\n\xc3\xa9");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  ASSERT_TRUE(json::parse("\"\\ud83d\\ude00\"", V));
  EXPECT_EQ(V.asString(), "\xf0\x9f\x98\x80");
  // Lone or malformed surrogates are invalid.
  EXPECT_FALSE(json::parse("\"\\ud83d\"", V));
  EXPECT_FALSE(json::parse("\"\\ude00\"", V));
  EXPECT_FALSE(json::parse("\"\\ud83dx\"", V));
}

std::string nestedArray(int Depth) {
  return std::string(static_cast<size_t>(Depth), '[') + "1" +
         std::string(static_cast<size_t>(Depth), ']');
}

std::string nestedObject(int Depth) {
  std::string Doc;
  for (int I = 0; I < Depth; ++I)
    Doc += "{\"k\":";
  return Doc + "0" + std::string(static_cast<size_t>(Depth), '}');
}

TEST(Json, ParserMatchesValidatorOnMalformedInput) {
  // isValid() and parse() accept exactly the same documents, over the
  // valid and invalid corpora of the tests below: the depth bound at
  // 256/257, lone surrogates and malformed syntax alike.
  const std::vector<std::string> Valid = {
      "{\"a\":[1,2,{\"b\":null}]}", "{\"a\":1,\"b\":2,\"a\":3}",
      "\"a\\u0041\\n\\u00e9\"", "\"\\ud83d\\ude00\"",
      "18446744073709551615", "-9223372036854775808", "1.7976931348623157e308",
      "5e-324", "1e999", " [true, false, null] ", nestedArray(200),
      nestedArray(256), nestedObject(256)};
  const std::vector<std::string> Invalid = {
      "", "{", "{\"a\":1,}", "{\"a\" 1}", "[1 2]", "\"unterminated", "01",
      "{} extra", "nul", "{\"a\"}", "[,]", "\"\\ud800\"", "\"\\udbff\"",
      "\"\\udc00\"", "\"\\udfff\"", "\"\\ud83d \\ude00\"", "\"\\ud83dx\"",
      nestedArray(257), nestedArray(100000), nestedObject(257)};
  for (const std::string &Doc : Valid) {
    json::Value V;
    EXPECT_TRUE(json::parse(Doc, V)) << Doc.substr(0, 40);
    EXPECT_TRUE(json::isValid(Doc)) << Doc.substr(0, 40);
  }
  for (const std::string &Doc : Invalid) {
    json::Value V;
    EXPECT_FALSE(json::parse(Doc, V)) << Doc.substr(0, 40);
    EXPECT_FALSE(json::isValid(Doc)) << Doc.substr(0, 40);
  }
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  EXPECT_TRUE(json::isValid("{\"a\":[1,2,{\"b\":null}]}"));
  EXPECT_FALSE(json::isValid(""));
  EXPECT_FALSE(json::isValid("{"));
  EXPECT_FALSE(json::isValid("{\"a\":1,}"));
  EXPECT_FALSE(json::isValid("{\"a\" 1}"));
  EXPECT_FALSE(json::isValid("[1 2]"));
  EXPECT_FALSE(json::isValid("\"unterminated"));
  EXPECT_FALSE(json::isValid("01"));
  EXPECT_FALSE(json::isValid("{} extra"));
}

TEST(Json, DeepNestingIsBoundedNotFatal) {
  // The parser is recursive-descent with a 256-level container bound:
  // comfortably deep documents parse, adversarial "[[[[..." input is
  // rejected cleanly instead of overflowing the stack.
  json::Value V;
  EXPECT_TRUE(json::isValid(nestedArray(200)));
  EXPECT_TRUE(json::parse(nestedArray(200), V));
  EXPECT_TRUE(json::isValid(nestedArray(256)));
  EXPECT_FALSE(json::isValid(nestedArray(257)));
  EXPECT_FALSE(json::parse(nestedArray(257), V));
  EXPECT_FALSE(json::isValid(nestedArray(100000)));
  EXPECT_FALSE(json::parse(nestedArray(100000), V));

  // Same bound for objects.
  EXPECT_FALSE(json::isValid(nestedObject(300)));
  EXPECT_FALSE(json::parse(nestedObject(300), V));
}

TEST(Json, DuplicateKeysKeepInsertionOrderAndFindReturnsFirst) {
  // RFC 8259 leaves duplicate member names to the implementation; ours
  // keeps every member in insertion order and find() returns the first.
  const std::string Doc = "{\"a\":1,\"b\":2,\"a\":3}";
  EXPECT_TRUE(json::isValid(Doc));
  json::Value Root;
  ASSERT_TRUE(json::parse(Doc, Root));
  ASSERT_EQ(Root.object().size(), 3u);
  EXPECT_EQ(Root.find("a")->asNumber(), 1.0);
  EXPECT_EQ(Root.object()[2].second.asNumber(), 3.0);
}

TEST(Json, NumbersAtIntegerAndDoubleBoundaries) {
  json::Value V;
  // UINT64_MAX: beyond double precision, so it rounds — but it must
  // parse, and to the nearest representable double.
  ASSERT_TRUE(json::parse("18446744073709551615", V));
  EXPECT_DOUBLE_EQ(V.asNumber(), 18446744073709551615.0);
  // INT64_MIN.
  ASSERT_TRUE(json::parse("-9223372036854775808", V));
  EXPECT_DOUBLE_EQ(V.asNumber(), -9223372036854775808.0);
  // 2^53 and 2^53 + 1: the edge of exact integer representation (the
  // latter rounds to the former).
  ASSERT_TRUE(json::parse("9007199254740992", V));
  EXPECT_EQ(V.asNumber(), 9007199254740992.0);
  ASSERT_TRUE(json::parse("9007199254740993", V));
  EXPECT_EQ(V.asNumber(), 9007199254740992.0);
  // Double range extremes: near-max, subnormal-min, and an exponent
  // past the representable range (strtod saturates to infinity — the
  // grammar accepts it; consumers see a non-finite number).
  ASSERT_TRUE(json::parse("1.7976931348623157e308", V));
  EXPECT_DOUBLE_EQ(V.asNumber(),
                   std::numeric_limits<double>::max());
  ASSERT_TRUE(json::parse("5e-324", V));
  EXPECT_GT(V.asNumber(), 0.0);
  ASSERT_TRUE(json::parse("1e999", V));
  EXPECT_TRUE(std::isinf(V.asNumber()));
}

TEST(Json, LoneSurrogateSplitsValidatorAndTreeParser) {
  // Documented contract (telemetry/Json.h): \u escapes must form valid
  // UTF-16, so both entry points reject an unpaired surrogate; isValid()
  // is parse() with the tree discarded.
  for (const char *Doc : {"\"\\ud800\"", "\"\\udbff\"", "\"\\udc00\"",
                          "\"\\udfff\"", "\"\\ud83d \\ude00\""}) {
    EXPECT_FALSE(json::isValid(Doc)) << Doc;
    json::Value V;
    EXPECT_FALSE(json::parse(Doc, V)) << Doc;
  }
}

TEST(Remarks, CollectingSinkReceivesStructuredRemark) {
  CollectingRemarkSink Sink;
  EXPECT_FALSE(remarksEnabled());
  {
    ScopedRemarkSink Guard(&Sink);
    EXPECT_TRUE(remarksEnabled());
    Remark R;
    R.Kind = "unsigned-long-form";
    R.Figure = "Figure 4.2";
    R.CaseName = "long form (m >= 2^N)";
    R.WordBits = 32;
    R.DivisorBits = 7;
    R.Details = {{"m_minus_2N", "0x24924925"}, {"sh_post", "3"}};
    emitRemark(R);
  }
  EXPECT_FALSE(remarksEnabled());
  ASSERT_EQ(Sink.remarks().size(), 1u);
  const Remark &Got = Sink.remarks()[0];
  EXPECT_EQ(Got.Kind, "unsigned-long-form");
  EXPECT_EQ(Got.divisorString(), "7");
  EXPECT_EQ(Got.message(),
            "codegen: d=7, N=32 -> Figure 4.2 long form (m >= 2^N); "
            "m_minus_2N=0x24924925, sh_post=3");
  EXPECT_TRUE(json::isValid(Got.toJson())) << Got.toJson();
}

TEST(Remarks, DropAccountingSplitsEmittedFromDropped) {
  // The counters are process-global and monotone, so assert on deltas.
  uint64_t Emitted0 = 0, Dropped0 = 0;
  remarkCounts(Emitted0, Dropped0);

  Remark R;
  R.Kind = "drop-accounting";
  R.WordBits = 32;
  R.DivisorBits = 7;

  // No sink installed: the remark is dropped, and the drop is counted
  // (the metrics plane exposes this as gmdiv_remarks_dropped_total).
  emitRemark(R);
  uint64_t Emitted = 0, Dropped = 0;
  remarkCounts(Emitted, Dropped);
  EXPECT_EQ(Emitted, Emitted0);
  EXPECT_EQ(Dropped, Dropped0 + 1);

  // With a sink installed the same remark counts as emitted instead.
  CollectingRemarkSink Sink;
  {
    ScopedRemarkSink Guard(&Sink);
    emitRemark(R);
  }
  remarkCounts(Emitted, Dropped);
  EXPECT_EQ(Emitted, Emitted0 + 1);
  EXPECT_EQ(Dropped, Dropped0 + 1);
  ASSERT_EQ(Sink.remarks().size(), 1u);
  EXPECT_EQ(Sink.remarks()[0].Kind, "drop-accounting");
}

TEST(Remarks, DivisorStringHandlesSignAndRuntime) {
  Remark R;
  R.WordBits = 32;
  R.DivisorBits = static_cast<uint64_t>(int64_t{-5});
  R.IsSigned = true;
  EXPECT_EQ(R.divisorString(), "-5");
  R.IsSigned = false;
  R.DivisorBits = ~uint64_t{0};
  EXPECT_EQ(R.divisorString(), "18446744073709551615");
  R.HasDivisor = false;
  EXPECT_EQ(R.divisorString(), "<runtime>");
}

TEST(Remarks, JsonEscapesDetailValues) {
  CollectingRemarkSink Sink;
  ScopedRemarkSink Guard(&Sink);
  Remark R;
  R.Kind = "k\"quoted\"";
  R.CaseName = "line\nbreak";
  R.Details = {{"weird \"key\"", "tab\tvalue"}};
  emitRemark(R);
  ASSERT_EQ(Sink.remarks().size(), 1u);
  const std::string Doc = Sink.remarks()[0].toJson();
  EXPECT_TRUE(json::isValid(Doc)) << Doc;
  EXPECT_NE(Doc.find("k\\\"quoted\\\""), std::string::npos);
}

TEST(Remarks, SinksStack) {
  CollectingRemarkSink First;
  CollectingRemarkSink Second;
  ScopedRemarkSink GuardFirst(&First);
  ScopedRemarkSink GuardSecond(&Second);
  Remark R;
  R.Kind = "fanout";
  emitRemark(R);
  EXPECT_EQ(First.remarks().size(), 1u);
  EXPECT_EQ(Second.remarks().size(), 1u);
}

} // namespace
