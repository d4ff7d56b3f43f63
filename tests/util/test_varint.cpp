#include "labmon/util/varint.hpp"

#include <limits>

#include <gtest/gtest.h>

#include "labmon/util/rng.hpp"

namespace labmon::util {
namespace {

TEST(VarintTest, KnownEncodings) {
  std::string out;
  PutVarint(out, 0);
  EXPECT_EQ(out, std::string(1, '\0'));
  out.clear();
  PutVarint(out, 127);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  PutVarint(out, 128);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0x80);
  EXPECT_EQ(static_cast<unsigned char>(out[1]), 0x01);
  out.clear();
  PutVarint(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out.size(), 10u);
}

TEST(VarintTest, RoundTripUnsigned) {
  std::string out;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1 << 20,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : values) PutVarint(out, v);
  VarintReader reader(out);
  for (const auto v : values) {
    const auto read = reader.Read();
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, RoundTripSigned) {
  std::string out;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -1000000, 1000000,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const auto v : values) PutSignedVarint(out, v);
  VarintReader reader(out);
  for (const auto v : values) {
    const auto read = reader.ReadSigned();
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, v);
  }
}

TEST(VarintTest, ZigzagSmallMagnitudesAreSmall) {
  // Zigzag maps small |v| to small codes: -1 -> 1, 1 -> 2, ...
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  for (std::int64_t v = -100; v <= 100; ++v) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string out;
  PutVarint(out, 1 << 20);
  out.pop_back();  // drop the terminating byte
  VarintReader reader(out);
  EXPECT_FALSE(reader.Read().has_value());
}

TEST(VarintTest, OverlongInputFails) {
  // 11 continuation bytes cannot be a valid 64-bit varint.
  std::string out(11, static_cast<char>(0x80));
  VarintReader reader(out);
  EXPECT_FALSE(reader.Read().has_value());
}

TEST(VarintTest, ReadBytes) {
  std::string out = "XYhello";
  VarintReader reader(out);
  EXPECT_EQ(reader.ReadBytes(2).value(), "XY");
  EXPECT_EQ(reader.ReadBytes(5).value(), "hello");
  EXPECT_FALSE(reader.ReadBytes(1).has_value());
}

TEST(VarintTest, SkipAdvancesWithinBounds) {
  std::string out = "abcdef";
  VarintReader reader(out);
  EXPECT_TRUE(reader.Skip(2));
  EXPECT_EQ(reader.position(), 2u);
  EXPECT_EQ(reader.ReadBytes(1).value(), "c");
  EXPECT_FALSE(reader.Skip(10));     // beyond end: cursor unchanged
  EXPECT_EQ(reader.position(), 3u);
  EXPECT_TRUE(reader.Skip(3));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.Skip(0));
}

TEST(VarintTest, StringViewReaderMatchesStringReader) {
  std::string out;
  PutVarint(out, 1234567u);
  PutSignedVarint(out, -42);
  VarintReader reader{std::string_view(out)};
  EXPECT_EQ(reader.Read().value(), 1234567u);
  EXPECT_EQ(reader.ReadSigned().value(), -42);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, RandomisedRoundTrip) {
  Rng rng(99);
  std::string out;
  std::vector<std::int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = static_cast<std::int64_t>(rng.NextU64()) >>
                           rng.UniformInt(0, 63);
    values.push_back(v);
    PutSignedVarint(out, v);
  }
  VarintReader reader(out);
  for (const auto v : values) {
    const auto read = reader.ReadSigned();
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace labmon::util
