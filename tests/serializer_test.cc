#include "util/serializer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace gthinker {
namespace {

TEST(Serializer, PodRoundtrip) {
  Serializer ser;
  ser.Write<uint32_t>(42);
  ser.Write<int64_t>(-7);
  ser.Write<double>(3.5);
  ser.Write<uint8_t>(255);

  Deserializer des(ser);
  uint32_t a = 0;
  int64_t b = 0;
  double c = 0;
  uint8_t d = 0;
  ASSERT_TRUE(des.Read(&a).ok());
  ASSERT_TRUE(des.Read(&b).ok());
  ASSERT_TRUE(des.Read(&c).ok());
  ASSERT_TRUE(des.Read(&d).ok());
  EXPECT_EQ(a, 42u);
  EXPECT_EQ(b, -7);
  EXPECT_EQ(c, 3.5);
  EXPECT_EQ(d, 255);
  EXPECT_TRUE(des.AtEnd());
}

TEST(Serializer, StringRoundtrip) {
  Serializer ser;
  ser.WriteString("hello");
  ser.WriteString("");
  ser.WriteString(std::string("with\0null", 9));

  Deserializer des(ser);
  std::string a, b, c;
  ASSERT_TRUE(des.ReadString(&a).ok());
  ASSERT_TRUE(des.ReadString(&b).ok());
  ASSERT_TRUE(des.ReadString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string("with\0null", 9));
}

TEST(Serializer, VectorRoundtrip) {
  Serializer ser;
  std::vector<uint32_t> v = {1, 2, 3, 0xffffffff};
  std::vector<uint32_t> empty;
  ser.WriteVector(v);
  ser.WriteVector(empty);

  Deserializer des(ser);
  std::vector<uint32_t> got, got_empty = {9};
  ASSERT_TRUE(des.ReadVector(&got).ok());
  ASSERT_TRUE(des.ReadVector(&got_empty).ok());
  EXPECT_EQ(got, v);
  EXPECT_TRUE(got_empty.empty());
}

TEST(Deserializer, ReadPastEndIsCorruption) {
  Serializer ser;
  ser.Write<uint16_t>(1);
  Deserializer des(ser);
  uint32_t too_big = 0;
  EXPECT_TRUE(des.Read(&too_big).IsCorruption());
}

TEST(Deserializer, TruncatedStringIsCorruption) {
  Serializer ser;
  ser.Write<uint64_t>(100);  // claims 100 bytes follow
  ser.WriteBytes("short", 5);
  Deserializer des(ser);
  std::string out;
  EXPECT_TRUE(des.ReadString(&out).IsCorruption());
}

TEST(Deserializer, TruncatedVectorIsCorruption) {
  Serializer ser;
  ser.Write<uint64_t>(1000);
  Deserializer des(ser);
  std::vector<uint64_t> out;
  EXPECT_TRUE(des.ReadVector(&out).IsCorruption());
}

TEST(Deserializer, EmptyBufferAtEnd) {
  Deserializer des("", 0);
  EXPECT_TRUE(des.AtEnd());
  EXPECT_EQ(des.remaining(), 0u);
}

TEST(Serializer, ReleaseMovesBuffer) {
  Serializer ser;
  ser.Write<uint32_t>(7);
  std::string blob = ser.Release();
  EXPECT_EQ(blob.size(), sizeof(uint32_t));
  EXPECT_EQ(ser.size(), 0u);
}

TEST(Serializer, ClearResets) {
  Serializer ser;
  ser.WriteString("abc");
  ser.Clear();
  EXPECT_EQ(ser.size(), 0u);
}

// Checkpoint blobs, spill files and task batches build one big Serializer
// from many small writes. Growth must stay geometric, or every write copies
// the whole prefix; each move of the buffer shows as a new data().
TEST(Serializer, LargeBufferGrowsGeometrically) {
  constexpr size_t kPiece = 8 << 10;
  constexpr size_t kTotal = 16 << 20;
  std::vector<char> piece(kPiece);
  Serializer ser;
  const char* buffer = ser.data();
  int moves = 0;
  for (size_t off = 0; off < kTotal; off += kPiece) {
    piece[0] = static_cast<char>(off / kPiece);
    ser.WriteBytes(piece.data(), piece.size());
    if (ser.data() != buffer) {
      buffer = ser.data();
      ++moves;
    }
  }
  EXPECT_LE(moves, 16);  // 8 KiB .. 16 MiB by doubling is 12
  ASSERT_EQ(ser.size(), kTotal);
  for (size_t off = 0; off < kTotal; off += kPiece) {
    ASSERT_EQ(ser.data()[off], static_cast<char>(off / kPiece));
  }
}

class SerializerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// Property: a random interleaving of writes deserializes to the same values.
TEST_P(SerializerFuzzTest, MixedRoundtrip) {
  Random rng(GetParam());
  Serializer ser;
  std::vector<int> kinds;
  std::vector<uint64_t> ints;
  std::vector<std::string> strings;
  std::vector<std::vector<uint32_t>> vecs;
  const int ops = 50;
  for (int i = 0; i < ops; ++i) {
    const int kind = static_cast<int>(rng.Uniform(3));
    kinds.push_back(kind);
    if (kind == 0) {
      ints.push_back(rng.Next64());
      ser.Write(ints.back());
    } else if (kind == 1) {
      std::string s(rng.Uniform(64), 'x');
      for (char& c : s) c = static_cast<char>(rng.Uniform(256));
      strings.push_back(s);
      ser.WriteString(s);
    } else {
      std::vector<uint32_t> v(rng.Uniform(32));
      for (auto& x : v) x = static_cast<uint32_t>(rng.Next64());
      vecs.push_back(v);
      ser.WriteVector(v);
    }
  }
  Deserializer des(ser);
  size_t ii = 0, si = 0, vi = 0;
  for (int kind : kinds) {
    if (kind == 0) {
      uint64_t x = 0;
      ASSERT_TRUE(des.Read(&x).ok());
      EXPECT_EQ(x, ints[ii++]);
    } else if (kind == 1) {
      std::string s;
      ASSERT_TRUE(des.ReadString(&s).ok());
      EXPECT_EQ(s, strings[si++]);
    } else {
      std::vector<uint32_t> v;
      ASSERT_TRUE(des.ReadVector(&v).ok());
      EXPECT_EQ(v, vecs[vi++]);
    }
  }
  EXPECT_TRUE(des.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace gthinker
