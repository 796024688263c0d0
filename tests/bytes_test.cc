#include <limits>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"

namespace m2m {
namespace {

TEST(BytesTest, FixedWidthRoundtrip) {
  ByteWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteF32(3.5f);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8(), 0xab);
  EXPECT_EQ(reader.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadF32(), 3.5f);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter writer;
  writer.WriteU32(0x01020304);
  EXPECT_EQ(writer.bytes(), (std::vector<uint8_t>{0x04, 0x03, 0x02, 0x01}));
}

TEST(BytesTest, VarintSmallValuesAreOneByte) {
  for (uint64_t v : {0ull, 1ull, 127ull}) {
    ByteWriter writer;
    writer.WriteVarint(v);
    EXPECT_EQ(writer.size(), 1u) << v;
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.ReadVarint(), v);
  }
}

TEST(BytesTest, VarintBoundaries) {
  for (uint64_t v :
       {uint64_t{128}, uint64_t{16383}, uint64_t{16384},
        uint64_t{1} << 32, std::numeric_limits<uint64_t>::max()}) {
    ByteWriter writer;
    writer.WriteVarint(v);
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.ReadVarint(), v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(BytesTest, VarintRandomRoundtrip) {
  Rng rng(3);
  ByteWriter writer;
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.Next() >> rng.UniformInt(64);
    values.push_back(v);
    writer.WriteVarint(v);
  }
  ByteReader reader(writer.bytes());
  for (uint64_t v : values) EXPECT_EQ(reader.ReadVarint(), v);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, FloatSpecialValues) {
  ByteWriter writer;
  writer.WriteF32(0.0f);
  writer.WriteF32(-0.0f);
  writer.WriteF32(std::numeric_limits<float>::infinity());
  writer.WriteF32(std::numeric_limits<float>::denorm_min());
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadF32(), 0.0f);
  EXPECT_EQ(reader.ReadF32(), -0.0f);
  EXPECT_EQ(reader.ReadF32(), std::numeric_limits<float>::infinity());
  EXPECT_EQ(reader.ReadF32(), std::numeric_limits<float>::denorm_min());
}

TEST(BytesTest, ReadPastEndAborts) {
  ByteWriter writer;
  writer.WriteU8(1);
  ByteReader reader(writer.bytes());
  reader.ReadU8();
  EXPECT_DEATH(reader.ReadU8(), "past end");
}

TEST(BytesTest, RemainingTracksCursor) {
  ByteWriter writer;
  writer.WriteU32(5);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 4u);
  reader.ReadU8();
  EXPECT_EQ(reader.remaining(), 3u);
}

}  // namespace
}  // namespace m2m
