// Compact wire codec (core/wire_codec.h): varint/zigzag/delta primitives,
// WireCodec round trips and raw/varint equivalence, and an end-to-end job
// proving comm.wire_encoding=varint is result-identical to raw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/kernels.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "core/vertex.h"
#include "core/wire_codec.h"
#include "graph/generator.h"
#include "util/serializer.h"

namespace gthinker {
namespace {

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            (1ull << 63),
                            ~0ull};
  Serializer ser;
  for (uint64_t v : cases) PutVarint64(ser, v);
  Deserializer des(ser.data(), ser.size());
  for (uint64_t v : cases) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(des, &got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(des.AtEnd());
}

TEST(Varint, SmallValuesCostOneByte) {
  Serializer ser;
  PutVarint64(ser, 63);
  EXPECT_EQ(ser.size(), 1u);
  PutVarint64(ser, 128);
  EXPECT_EQ(ser.size(), 3u);  // 128 takes two bytes
}

TEST(Varint, RejectsContinuationPast64Bits) {
  const std::string overlong(10, '\x80');  // 10 continuation bytes, no end
  Deserializer des(overlong.data(), overlong.size());
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(des, &v).ok());
}

TEST(Varint, RejectsOverlongEncodings) {
  // 0 padded with a continuation group, and a 64-bit value whose tenth byte
  // carries bits past bit 63: both would decode, but PutVarint64 never
  // writes them, so accepting them would give one value two encodings.
  for (const std::string& bad :
       {std::string("\x80\x00", 2),
        std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x03", 10)}) {
    Deserializer des(bad.data(), bad.size());
    uint64_t v = 0;
    EXPECT_TRUE(GetVarint64(des, &v).IsCorruption());
  }
  Serializer ser;
  PutVarint64(ser, std::numeric_limits<uint64_t>::max());
  Deserializer des(ser.data(), ser.size());
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(des, &v).ok());
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
}

TEST(Varint, RejectsTruncation) {
  Serializer ser;
  PutVarint64(ser, 1ull << 40);
  Deserializer des(ser.data(), ser.size() - 1);
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(des, &v).ok());
}

TEST(ZigZag, IsAnInvolutionOnInterestingValues) {
  const int64_t cases[] = {0,  1,  -1, 2,  -2, 63, -64, 1 << 20,
                           -(1 << 20),
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the property that makes +1 deltas
  // one byte on the wire).
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

// ---------------------------------------------------------------------------
// Delta-encoded ID lists
// ---------------------------------------------------------------------------

TEST(IdListDelta, RoundTripsSortedAndUnsortedLists) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng() % 64;
    std::vector<VertexId> ids(n);
    for (auto& v : ids) v = rng() % 1'000'000;
    if (trial % 2 == 0) std::sort(ids.begin(), ids.end());  // AdjList shape
    Serializer ser;
    EncodeIdListDelta(ser, ids.data(), ids.size());
    Deserializer des(ser.data(), ser.size());
    std::vector<VertexId> got;
    ASSERT_TRUE(DecodeIdListDelta(des, &got).ok());
    EXPECT_EQ(got, ids);
    EXPECT_TRUE(des.AtEnd());
  }
}

TEST(IdListDelta, DenseRunsCompressWellBelowFixedWidth) {
  std::vector<VertexId> ids(1000);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<VertexId>(100'000 + 3 * i);  // small gaps
  }
  Serializer ser;
  EncodeIdListDelta(ser, ids.data(), ids.size());
  // Fixed-width: 8 (count) + 4 per ID. Deltas of 6 (zigzagged) are 1 byte.
  EXPECT_LT(ser.size(), ids.size() * 2);
}

TEST(IdListDelta, RejectsCountPastEnd) {
  Serializer ser;
  PutVarint64(ser, 1'000'000);  // promises a million IDs, provides none
  Deserializer des(ser.data(), ser.size());
  std::vector<VertexId> got;
  EXPECT_FALSE(DecodeIdListDelta(des, &got).ok());
}

TEST(IdListDelta, RejectsDeltaOutsideVertexIdRange) {
  Serializer ser;
  PutVarint64(ser, 1);
  PutVarint64(ser, ZigZagEncode(-5));  // 0 - 5: negative ID
  Deserializer des(ser.data(), ser.size());
  std::vector<VertexId> got;
  EXPECT_FALSE(DecodeIdListDelta(des, &got).ok());
}

TEST(IdListDelta, RejectsDeltaThatWouldOverflow) {
  // A hostile delta near INT64_MAX after a positive ID: the range check
  // must reject it before prev + delta overflows.
  Serializer ser;
  PutVarint64(ser, 2);
  PutVarint64(ser, ZigZagEncode(5));
  PutVarint64(ser, ZigZagEncode(std::numeric_limits<int64_t>::max()));
  Deserializer des(ser.data(), ser.size());
  std::vector<VertexId> got;
  EXPECT_TRUE(DecodeIdListDelta(des, &got).IsCorruption());
}

// ---------------------------------------------------------------------------
// WireCodec round trips and cross-encoding equality
// ---------------------------------------------------------------------------

TEST(WireCodecTest, AdjVertexRoundTripsInBothEncodings) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    Vertex<AdjList> v;
    v.id = rng() % 100'000;
    v.value.resize(rng() % 40);
    for (auto& x : v.value) x = rng() % 100'000;
    std::sort(v.value.begin(), v.value.end());
    v.value.erase(std::unique(v.value.begin(), v.value.end()), v.value.end());
    for (WireEncoding enc : {WireEncoding::kRaw, WireEncoding::kVarint}) {
      Serializer ser;
      WireCodec<Vertex<AdjList>>::Encode(enc, ser, v);
      Deserializer des(ser.data(), ser.size());
      Vertex<AdjList> got;
      ASSERT_TRUE(WireCodec<Vertex<AdjList>>::Decode(enc, des, &got).ok());
      EXPECT_EQ(got.id, v.id);
      EXPECT_EQ(got.value, v.value);
    }
  }
}

TEST(WireCodecTest, RawEncodingIsBitIdenticalToCodec) {
  Vertex<AdjList> v;
  v.id = 42;
  v.value = {1, 5, 9, 1000};
  Serializer legacy, wire;
  Codec<Vertex<AdjList>>::Encode(legacy, v);
  WireCodec<Vertex<AdjList>>::Encode(WireEncoding::kRaw, wire, v);
  ASSERT_EQ(legacy.size(), wire.size());
  EXPECT_EQ(std::memcmp(legacy.data(), wire.data(), wire.size()), 0);
}

TEST(WireCodecTest, LabeledVertexRoundTripsInBothEncodings) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    Vertex<LabeledAdj> v;
    v.id = rng() % 100'000;
    v.value.label = static_cast<Label>(rng() % 50);
    const size_t n = rng() % 30;
    v.value.adj.clear();
    VertexId prev = 0;
    for (size_t i = 0; i < n; ++i) {
      prev += 1 + rng() % 997;
      v.value.adj.push_back(
          LabeledNbr{prev, static_cast<Label>(rng() % 50)});
    }
    for (WireEncoding enc : {WireEncoding::kRaw, WireEncoding::kVarint}) {
      Serializer ser;
      WireCodec<Vertex<LabeledAdj>>::Encode(enc, ser, v);
      Deserializer des(ser.data(), ser.size());
      Vertex<LabeledAdj> got;
      ASSERT_TRUE(
          WireCodec<Vertex<LabeledAdj>>::Decode(enc, des, &got).ok());
      EXPECT_EQ(got.id, v.id);
      EXPECT_EQ(got.value.label, v.value.label);
      ASSERT_EQ(got.value.adj.size(), v.value.adj.size());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got.value.adj[i].id, v.value.adj[i].id);
        EXPECT_EQ(got.value.adj[i].label, v.value.adj[i].label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: a triangle-count job under comm.wire_encoding=varint must be
// result-identical to raw (same counts, same request totals), with fewer
// wire bytes on the pull path.
// ---------------------------------------------------------------------------

TEST(WireCodecTest, VarintEncodedJobMatchesRawResults) {
  Graph g = Generator::PowerLaw(500, 8.0, 2.5, 23);
  const uint64_t truth = CountTrianglesSerial(g);
  ASSERT_GT(truth, 0u);

  auto run = [&](WireEncoding enc) {
    Job<TriangleComper> job;
    job.config.num_workers = 3;
    job.config.compers_per_worker = 2;
    job.config.cache_capacity = 64;  // force heavy pull traffic
    job.config.comm.wire_encoding = enc;
    job.graph = &g;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    return Cluster<TriangleComper>::Run(job);
  };
  const auto raw = run(WireEncoding::kRaw);
  const auto varint = run(WireEncoding::kVarint);
  EXPECT_EQ(raw.result, truth);
  EXPECT_EQ(varint.result, truth);
  // The compact encoding must actually shrink the wire (responses dominate;
  // request counts jitter a little with eviction timing, but nowhere near
  // the ~2x response-byte reduction).
  EXPECT_LT(varint.stats.bytes_sent, raw.stats.bytes_sent);
}

}  // namespace
}  // namespace gthinker
