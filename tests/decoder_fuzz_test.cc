// Deterministic mutation fuzzing of the decoders that read bytes from another
// process or from disk: the TCP frame header, the progress report (with its
// task ledger), the task batch, the pull path's vertex request and response
// records (plain and labeled adjacency, in both wire encodings), a spilled
// root-bundle task record and the checkpoint meta. Each starts from a valid
// encoding and is fed every single-bit flip, seeded multi-bit flips, every
// truncation and inflated length fields. Every input must come back as a
// Status (or a decode that re-encodes to exactly the input bytes): never a
// crash, an over-read or an implausible allocation. The ASan and UBSan CI
// lanes run this binary like every other test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"  // CheckpointMeta
#include "core/protocol.h"
#include "core/root_bundle.h"
#include "core/task.h"
#include "core/vertex.h"
#include "core/wire_codec.h"
#include "net/frame.h"
#include "net/payload.h"

namespace gthinker {
namespace {

/// Decodes `bytes`; returns the re-encoding on success, or the Status.
using DecodeFn = std::function<Status(const std::string& bytes,
                                      std::string* reencoded)>;

void ExpectStatusOrExactDecode(const DecodeFn& decode,
                               const std::string& bytes,
                               const std::string& what) {
  std::string reencoded;
  const Status s = decode(bytes, &reencoded);
  if (s.ok()) {
    EXPECT_EQ(reencoded, bytes) << what << ": decoded a different message";
  } else {
    EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
  }
}

/// Runs every mutation class over `valid`. `length_fields` are byte offsets
/// of u64 length/count fields; inflating any of them must fail.
void FuzzDecoder(const DecodeFn& decode, const std::string& valid,
                 const std::vector<size_t>& length_fields, uint64_t seed) {
  std::string reencoded;
  ASSERT_TRUE(decode(valid, &reencoded).ok());
  ASSERT_EQ(reencoded, valid);

  // Every single-bit flip.
  for (size_t bit = 0; bit < valid.size() * 8; ++bit) {
    std::string m = valid;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    ExpectStatusOrExactDecode(decode, m, "flip bit " + std::to_string(bit));
  }
  // Seeded multi-bit flips, 2 to 16 per input.
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string m = valid;
    const int flips = 2 + static_cast<int>(rng() % 15);
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng() % (m.size() * 8);
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    }
    ExpectStatusOrExactDecode(decode, m, "trial " + std::to_string(trial));
  }
  // Every truncation: a prefix of a message is never a message.
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(decode(valid.substr(0, len), &reencoded).ok())
        << "prefix of " << len << " bytes decoded";
  }
  // Inflated length fields: each points past the end of the input.
  for (size_t offset : length_fields) {
    ASSERT_LE(offset + sizeof(uint64_t), valid.size());
    for (uint64_t inflated :
         {uint64_t{valid.size()}, uint64_t{1} << 32, uint64_t{1} << 62,
          uint64_t{1} << 63, std::numeric_limits<uint64_t>::max()}) {
      std::string m = valid;
      std::memcpy(&m[offset], &inflated, sizeof(inflated));
      EXPECT_FALSE(decode(m, &reencoded).ok())
          << "length field at " << offset << " = " << inflated;
    }
  }
}

ProgressReport MakeReport() {
  ProgressReport r;
  r.worker_id = 2;
  r.idle = 1;
  r.remaining_estimate = 17;
  r.data_sent = 1234;
  r.data_processed = 1200;
  r.task_iterations = 99;
  r.cache_requests = 500;
  r.comper_rounds = 77;
  r.ledger.spawned = 40;
  r.ledger.restored = 3;
  r.ledger.finished = 30;
  r.ledger.spilled = 8;
  r.ledger.loaded = 6;
  r.ledger.donated = 5;
  r.ledger.received = 4;
  r.ledger.checkpointed = 2;
  r.ledger.disk_donated = 2;
  r.tasks_live = 11;
  r.queue_depth = 9;
  r.agg_delta = std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8);
  return r;
}

TEST(DecoderFuzz, ProgressReport) {
  const std::string valid = MakeReport().Encode().ToString();
  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    ProgressReport r;
    GT_RETURN_IF_ERROR(r.Decode(Payload(bytes)));
    *out = r.Encode().ToString();
    return Status::Ok();
  };
  // The only length field is agg_delta's, in front of its 8 bytes.
  FuzzDecoder(decode, valid, {valid.size() - 16}, /*seed=*/1);
}

TEST(DecoderFuzz, TaskBatch) {
  const std::vector<std::string> records = {"alpha", "", "gamma-record"};
  const std::string valid =
      EncodeTaskBatch(records, /*steal_order_t_us=*/424242).ToString();
  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    std::vector<std::string> decoded;
    int64_t t_us = 0;
    GT_RETURN_IF_ERROR(DecodeTaskBatch(Payload(bytes), &decoded, &t_us));
    *out = EncodeTaskBatch(decoded, t_us).ToString();
    return Status::Ok();
  };
  // Layout: i64 t_us | u64 count | (u64 len, bytes)*.
  const size_t count_at = 8;
  const size_t first_len_at = 16;
  const size_t third_len_at = first_len_at + 8 + 5 + 8;
  FuzzDecoder(decode, valid, {count_at, first_len_at, third_len_at},
              /*seed=*/2);
}

TEST(DecoderFuzz, VertexRequest) {
  const std::string valid = EncodeVertexRequest({3, 17, 4096, 9}).ToString();
  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    std::vector<VertexId> ids;
    GT_RETURN_IF_ERROR(DecodeVertexRequest(Payload(bytes), &ids));
    *out = EncodeVertexRequest(ids).ToString();
    return Status::Ok();
  };
  // Layout: u64 count | VertexId[count].
  FuzzDecoder(decode, valid, {/*count=*/0}, /*seed=*/6);
}

/// One kVertexResponse record, decoded the way the requester's
/// VertexCache::InsertResponseSpan decodes it (WireCodec<VertexT> in the
/// job's comm.wire_encoding). Records sit back to back in a response, so an
/// exact decode consumes every byte.
template <typename VertexT>
DecodeFn ResponseRecordDecoder(WireEncoding enc) {
  return [enc](const std::string& bytes, std::string* out) {
    VertexT v;
    Deserializer des(bytes);
    GT_RETURN_IF_ERROR(WireCodec<VertexT>::Decode(enc, des, &v));
    if (!des.AtEnd()) return Status::Corruption("trailing bytes");
    Serializer ser;
    WireCodec<VertexT>::Encode(enc, ser, v);
    *out = ser.Release();
    return Status::Ok();
  };
}

template <typename VertexT>
std::string EncodeResponseRecord(WireEncoding enc, const VertexT& v) {
  Serializer ser;
  WireCodec<VertexT>::Encode(enc, ser, v);
  return ser.Release();
}

// The varint forms carry their counts as varints, so they have no u64
// length field to inflate; IdListDelta.RejectsCountPastEnd covers that.
TEST(DecoderFuzz, AdjVertexResponseRecord) {
  Vertex<AdjList> v;
  v.id = 42;
  v.value = {43, 57, 1000, 65536, 4'000'000'000u};
  // Raw layout: u32 id | u64 count | VertexId[count].
  FuzzDecoder(ResponseRecordDecoder<Vertex<AdjList>>(WireEncoding::kRaw),
              EncodeResponseRecord(WireEncoding::kRaw, v), {/*count=*/4},
              /*seed=*/7);
  FuzzDecoder(ResponseRecordDecoder<Vertex<AdjList>>(WireEncoding::kVarint),
              EncodeResponseRecord(WireEncoding::kVarint, v), {},
              /*seed=*/8);
}

TEST(DecoderFuzz, LabeledVertexResponseRecord) {
  Vertex<LabeledAdj> v;
  v.id = 11;
  v.value.label = 3;
  v.value.adj = {{12, 1}, {40, 0}, {99, 300}, {4'000'000'000u, 7}};
  // Raw layout: u32 id | u16 label | u64 count | LabeledNbr[count].
  FuzzDecoder(ResponseRecordDecoder<Vertex<LabeledAdj>>(WireEncoding::kRaw),
              EncodeResponseRecord(WireEncoding::kRaw, v), {/*count=*/6},
              /*seed=*/9);
  FuzzDecoder(
      ResponseRecordDecoder<Vertex<LabeledAdj>>(WireEncoding::kVarint),
      EncodeResponseRecord(WireEncoding::kVarint, v), {}, /*seed=*/10);
}

TEST(DecoderFuzz, CheckpointMeta) {
  CheckpointMeta<AdjList> meta;
  meta.epoch = 7;
  meta.num_workers = 3;
  meta.global = {4, 8, 15, 16, 23, 42};
  meta.hub_last = true;
  const std::string valid = meta.Encode();
  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    CheckpointMeta<AdjList> m;
    GT_RETURN_IF_ERROR(m.Decode(bytes));
    *out = m.Encode();
    return Status::Ok();
  };
  // Layout: u64 epoch | i32 workers | u64 clique size, ids | u8 flag.
  FuzzDecoder(decode, valid, {/*clique size=*/12}, /*seed=*/3);
}

using BundleTask = Task<AdjList, RootBundle>;

/// A root-bundle task record as Q_task spills it: roots 3 and 5, with
/// candidates {5, 7} and {7, 9}, deduplicated into pulls {3, 5, 7, 9}.
std::string BundleTaskRecord() {
  RootBundleBuilder builder;
  builder.Add(3, {5, 7});
  builder.Add(5, {7, 9});
  Serializer ser;
  builder.Close<BundleTask>()->Serialize(ser);
  return ser.Release();
}

Status DecodeBundleTask(const std::string& bytes, std::string* out) {
  BundleTask task;
  Deserializer des(bytes);
  GT_RETURN_IF_ERROR(task.Deserialize(des));
  if (!des.AtEnd()) return Status::Corruption("trailing bytes");
  Serializer ser;
  task.Serialize(ser);
  *out = ser.Release();
  return Status::Ok();
}

// Layout: u32 iteration | u64 n, n pull ids | u64 subgraph size | u64 n,
// n ends | u64 n, n slots.
constexpr size_t kPullsAt = 4;
constexpr size_t kSubgraphAt = 28;
constexpr size_t kEndsAt = 36;
constexpr size_t kSlotsAt = 52;

TEST(DecoderFuzz, SpilledRootBundleTask) {
  const std::string valid = BundleTaskRecord();
  ASSERT_EQ(valid.size(), kSlotsAt + 8 + 6 * sizeof(uint32_t));
  FuzzDecoder(DecodeBundleTask, valid,
              {kPullsAt, kSubgraphAt, kEndsAt, kSlotsAt}, /*seed=*/5);
}

TEST(DecoderFuzz, RootBundleRejectsBadOffsetsAndSlots) {
  const std::string valid = BundleTaskRecord();
  std::string out;
  ASSERT_TRUE(DecodeBundleTask(valid, &out).ok());
  auto with_u32 = [&valid](size_t at, uint32_t value) {
    std::string m = valid;
    std::memcpy(&m[at], &value, sizeof(value));
    return m;
  };
  const size_t ends = kEndsAt + 8;
  const size_t slots = kSlotsAt + 8;
  for (const auto& [what, bytes] :
       std::vector<std::pair<std::string, std::string>>{
           {"offsets not monotone", with_u32(ends, 6)},
           {"empty root range", with_u32(ends, 0)},
           {"offsets end short of the slots", with_u32(ends + 4, 5)},
           {"slot outside the pull list", with_u32(slots + 8, 4)},
           {"huge slot", with_u32(slots, 0xffffffffu)}}) {
    const Status s = DecodeBundleTask(bytes, &out);
    EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
  }
}

// The frame header decoder reads a fixed 24-byte window, and the receive
// loop calls it only once a whole header has arrived; a decoded header must
// be one the encoder could have written, and the payload CRC-32C must catch
// every corrupted payload bit before any message decoder runs.
TEST(DecoderFuzz, FrameHeader) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kData;
  h.msg_type = 5;
  h.src = 1;
  h.dst = 2;
  const std::string payload = MakeReport().Encode().ToString();
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.crc32 = net::Crc32C(payload.data(), payload.size());
  std::string valid(net::kFrameHeaderSize, '\0');
  net::EncodeFrameHeader(h, valid.data());

  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    net::FrameHeader d;
    if (bytes.size() < net::kFrameHeaderSize) {
      return Status::Corruption("short frame header");  // receive loop waits
    }
    if (!net::DecodeFrameHeader(bytes.data(), &d)) {
      return Status::Corruption("frame header");
    }
    out->assign(net::kFrameHeaderSize, '\0');
    net::EncodeFrameHeader(d, out->data());
    return Status::Ok();
  };
  // The header has no u64 length field; its u32 payload length follows.
  FuzzDecoder(decode, valid, /*length_fields=*/{}, /*seed=*/4);
  std::string reencoded;
  // Inflated payload length (u32 at offset 16): past the frame cap.
  for (uint32_t inflated :
       {net::kMaxFramePayload + 1, std::numeric_limits<uint32_t>::max()}) {
    std::string m = valid;
    std::memcpy(&m[16], &inflated, sizeof(inflated));
    EXPECT_FALSE(decode(m, &reencoded).ok()) << "payload_len " << inflated;
  }
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::string m = payload;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(net::Crc32C(m.data(), m.size()), h.crc32) << "bit " << bit;
  }
}

}  // namespace
}  // namespace gthinker
