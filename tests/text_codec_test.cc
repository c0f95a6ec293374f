// The text codec (common/text_codec.h) against the iostream behavior it
// replaces, kept here as the oracle: TextWriter must print exactly what an
// ostream at precision 17 prints, and TextReader must give the same bits
// as an istream on every token the writer produces, and reject the tokens
// the istream rejects. Then the reader's own rules: the forms it refuses
// that an istream took, blobs, and counts bounded by the bytes left.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gvex/common/text_codec.h"

namespace gvex {
namespace {

// ---- the iostream oracle ----------------------------------------------------

template <typename T>
std::string OstreamText(T value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

template <typename T>
std::string WriterText(T value) {
  TextWriter out;
  out << value;
  return out.Take();
}

// istream's verdict on one whole token: the value, or nullopt if it fails
// or leaves part of the token unread.
template <typename T>
std::optional<T> IstreamParse(const std::string& token) {
  std::istringstream in(token);
  T value{};
  if (!(in >> value) || in.peek() != std::char_traits<char>::eof()) {
    return std::nullopt;
  }
  return value;
}

template <typename T>
std::optional<T> ReaderParse(const std::string& token) {
  TextReader in(token);
  T value{};
  if (!(in >> value)) return std::nullopt;
  return value;
}

template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Checks one value: writer bytes against the ostream, then the reader's
// verdict on those bytes against the istream's. Returns false on the
// first disagreement (with a gtest failure naming it).
template <typename T>
bool MatchesOracle(T value) {
  const std::string want = OstreamText(value);
  const std::string got = WriterText(value);
  if (got != want) {
    ADD_FAILURE() << "writer printed '" << got << "', ostream '" << want
                  << "'";
    return false;
  }
  const std::optional<T> oracle = IstreamParse<T>(got);
  const std::optional<T> read = ReaderParse<T>(got);
  if (oracle.has_value() != read.has_value()) {
    ADD_FAILURE() << "token '" << got << "': istream "
                  << (oracle ? "accepts" : "rejects") << ", reader "
                  << (read ? "accepts" : "rejects");
    return false;
  }
  if (oracle && !SameBits(*oracle, *read)) {
    ADD_FAILURE() << "token '" << got << "' parsed to different bits";
    return false;
  }
  return true;
}

template <typename Float, typename Bits>
std::vector<Float> SpecialValues() {
  using L = std::numeric_limits<Float>;
  std::vector<Float> v = {Float(0),          -Float(0),
                          L::denorm_min(),   -L::denorm_min(),
                          L::min(),          -L::min(),
                          L::min() - L::denorm_min(),  // largest subnormal
                          L::max(),          -L::max(),
                          L::infinity(),     -L::infinity(),
                          L::quiet_NaN(),    -L::quiet_NaN(),
                          L::signaling_NaN(), -L::signaling_NaN(),
                          L::epsilon(),      Float(1) / 3,
                          Float(0.1),        Float(1e10)};
  // Subnormals with each bit of the mantissa set.
  for (int bit = 0; bit < L::digits - 1; ++bit) {
    Bits bits = Bits{1} << bit;
    Float f;
    std::memcpy(&f, &bits, sizeof(f));
    v.push_back(f);
    v.push_back(-f);
  }
  return v;
}

TEST(TextCodecOracleTest, FloatsMatchTheIostreamCodec) {
  std::vector<float> values = SpecialValues<float, uint32_t>();
  std::mt19937 rng(20261017);
  constexpr size_t kRandom = 1u << 20;  // uniform over all bit patterns
  for (size_t i = 0; i < kRandom; ++i) {
    uint32_t bits = static_cast<uint32_t>(rng());
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    values.push_back(f);
  }
  ASSERT_GE(values.size(), 1000000u);
  for (float f : values) {
    if (!MatchesOracle(f)) break;
  }
}

TEST(TextCodecOracleTest, DoublesMatchTheIostreamCodec) {
  std::vector<double> values = SpecialValues<double, uint64_t>();
  std::mt19937_64 rng(20261018);
  constexpr size_t kRandom = 100000;
  for (size_t i = 0; i < kRandom; ++i) {
    uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
    // Doubles near 1 (sums and ratios), the range the formats carry.
    values.push_back(static_cast<double>(rng() % 1000000) / 999983.0);
  }
  for (double d : values) {
    if (!MatchesOracle(d)) break;
  }
}

TEST(TextCodecOracleTest, IntegerExtremesMatchTheIostreamCodec) {
  for (int32_t v : {std::numeric_limits<int32_t>::min(), -1, 0, 1,
                    std::numeric_limits<int32_t>::max()}) {
    EXPECT_TRUE(MatchesOracle(v)) << v;
  }
  for (uint32_t v : {0u, 1u, std::numeric_limits<uint32_t>::max()}) {
    EXPECT_TRUE(MatchesOracle(v)) << v;
  }
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, std::numeric_limits<int64_t>::max()}) {
    EXPECT_TRUE(MatchesOracle(v)) << v;
  }
  for (uint64_t v : {uint64_t{0}, std::numeric_limits<uint64_t>::max()}) {
    EXPECT_TRUE(MatchesOracle(v)) << v;
  }
  EXPECT_TRUE(MatchesOracle(static_cast<uint16_t>(65535)));
  EXPECT_TRUE(MatchesOracle(static_cast<size_t>(1) << 40));
}

// ---- the reader's own rules -------------------------------------------------

TEST(TextReaderTest, SkipsTheIostreamWhitespaceAndReadsWords) {
  TextReader in(" \t\n\v\f\rmeta\v7\f-3\r0.5\n");
  std::string_view word;
  size_t n = 0;
  int i = 0;
  float f = 0;
  ASSERT_TRUE(in >> word >> n >> i >> f);
  EXPECT_EQ(word, "meta");
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(i, -3);
  EXPECT_EQ(f, 0.5f);
  EXPECT_TRUE(in.AtEnd());
  EXPECT_FALSE(in >> word);
}

// The forms the reader rejects that an istream read: the writer prints
// none of them (docs/WIRE_PROTOCOL.md, "Numbers").
TEST(TextReaderTest, RejectsFormsTheWriterNeverPrints) {
  EXPECT_TRUE(IstreamParse<int>("+5").has_value());
  EXPECT_FALSE(ReaderParse<int>("+5").has_value());
  EXPECT_FALSE(ReaderParse<float>("+0.5").has_value());
  EXPECT_TRUE(IstreamParse<size_t>("-1").has_value());
  EXPECT_FALSE(ReaderParse<size_t>("-1").has_value());
  EXPECT_FALSE(ReaderParse<uint32_t>("-0").has_value());
  EXPECT_TRUE(IstreamParse<float>("1e-50").has_value());  // underflow to 0
  EXPECT_FALSE(ReaderParse<float>("1e-50").has_value());
  EXPECT_FALSE(ReaderParse<double>("1e-400").has_value());
  // Both reject: partial tokens, overflow, and every non-finite spelling.
  for (const char* token : {"12abc", "1e", "0x10", "1.5", "", "-"}) {
    EXPECT_FALSE(ReaderParse<int>(token).has_value()) << token;
  }
  for (const char* token :
       {"1e39", "inf", "-inf", "nan", "-nan", "INF", "infinity", "nan(1)",
        "0x1p3", "1,5"}) {
    EXPECT_FALSE(ReaderParse<float>(token).has_value()) << token;
    EXPECT_FALSE(IstreamParse<float>(token).has_value()) << token;
  }
  EXPECT_FALSE(ReaderParse<int>("2147483648").has_value());
  EXPECT_FALSE(ReaderParse<uint64_t>("18446744073709551616").has_value());
  // Accepted spellings the writer does not produce but an istream takes.
  EXPECT_EQ(ReaderParse<float>(".5"), 0.5f);
  EXPECT_EQ(ReaderParse<float>("1."), 1.0f);
  EXPECT_EQ(ReaderParse<int>("007"), 7);
  EXPECT_EQ(ReaderParse<double>("1E3"), 1000.0);
}

TEST(TextReaderTest, FailureSticks) {
  TextReader in("abc 5 6");
  int v = 0;
  EXPECT_FALSE(in >> v);
  size_t n = 0;
  EXPECT_FALSE(in >> n);  // "5" is there, but the reader has failed
  EXPECT_EQ(n, 0u);
}

TEST(TextReaderTest, BlobsRoundTripAnyBytes) {
  const std::string payload("a\0b\nc d\n", 8);
  TextWriter out;
  out << "str text ";
  out.Blob(payload);
  out << "end\n";
  EXPECT_EQ(out.str(), std::string("str text 8\na\0b\nc d\n\nend\n", 24));
  TextReader in(out.str());
  std::string_view kw, tag, blob, end;
  ASSERT_TRUE(in >> kw >> tag);
  ASSERT_TRUE(in.Blob(&blob));
  EXPECT_EQ(blob, payload);
  ASSERT_TRUE(in >> end);
  EXPECT_EQ(end, "end");

  // A length past the end, or a missing separator, fails without
  // allocating.
  std::string_view bytes;
  TextReader too_long("99999999999\nabc\n");
  EXPECT_FALSE(too_long.Blob(&bytes));
  TextReader no_newline("3 abc\n");
  EXPECT_FALSE(no_newline.Blob(&bytes));
  TextReader no_trailer("3\nabcX");
  EXPECT_FALSE(no_trailer.Blob(&bytes));
}

TEST(TextReaderTest, CountsAreBoundedByTheBytesLeft) {
  TextReader in("12345678");  // 8 bytes left
  EXPECT_TRUE(in.CheckCount(4, 2, "item").ok());
  EXPECT_TRUE(in.CheckCount(2, 4, "item").ok());
  Status st = in.CheckCount(5, 2, "item");
  EXPECT_TRUE(st.IsIoError());
  EXPECT_NE(st.message().find("item count 5"), std::string::npos);
  EXPECT_TRUE(in.CheckCount(std::numeric_limits<uint64_t>::max(), 1, "x")
                  .IsIoError());
  // A grid is checked without overflowing rows * cols.
  EXPECT_TRUE(in.CheckGrid(2, 2, 2, "cell").ok());
  EXPECT_TRUE(in.CheckGrid(2, 3, 2, "cell").IsIoError());
  EXPECT_TRUE(in.CheckGrid(uint64_t{1} << 63, uint64_t{1} << 63, 2, "cell")
                  .IsIoError());
  EXPECT_TRUE(in.CheckGrid(uint64_t{1} << 40, 0, 2, "cell").ok());
}

}  // namespace
}  // namespace gvex
