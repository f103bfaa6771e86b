// Deterministic mutation fuzzing of the decoders that read bytes from another
// process or from disk: the TCP frame header, the progress report (with its
// task ledger), the task batch, a spill batch, the pull path's vertex
// request and response records (plain and labeled adjacency), a spilled
// root-bundle task record, a spilled multi-hop GM task (a labeled subgraph
// with an empty bundle), a spilled split k-clique task (member pulls and a
// candidate range, no subgraph), the checkpoint meta, a worker's checkpoint
// blob, the status server's HTTP request line and a DFS adjacency line.
// Each starts from a valid encoding and is fed every single-bit flip, seeded
// multi-bit flips, every truncation and inflated length fields. Every input
// must come back as a Status (or a decode that re-encodes to exactly the
// input bytes): never a crash, an over-read or an implausible allocation.
// The two text lines instead check each parse against what a valid line may
// hold. The ASan and UBSan CI lanes run this binary like every other test.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
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
#include "apps/kclique_app.h"
#include "apps/triangle_app.h"
#include "graph/loader.h"
#include "net/frame.h"
#include "net/http_server.h"
#include "net/payload.h"
#include "storage/spill_file.h"

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
  r.checkpoint_epoch = 5;
  r.quiesced = 1;
  r.remaining_estimate = 17;
  r.data_sent = 1234;
  r.data_processed = 1200;
  r.requests_unanswered = 3;
  r.steal_orders_handled = 7;
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

// Spill files and job output share one batch format, read back by
// SpillFile::DecodeBatch.
TEST(DecoderFuzz, SpillBatch) {
  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    std::vector<std::string> records;
    GT_RETURN_IF_ERROR(SpillFile::DecodeBatch(bytes, &records));
    Serializer ser;
    ser.Write<uint64_t>(records.size());
    for (const std::string& r : records) ser.WriteString(r);
    *out = ser.Release();
    return Status::Ok();
  };
  Serializer ser;
  ser.Write<uint64_t>(3);
  for (const char* r : {"alpha", "", "gamma-record"}) ser.WriteString(r);
  const std::string valid = ser.Release();
  // Layout: u64 count | (u64 len, bytes)*.
  FuzzDecoder(decode, valid, {/*count=*/0, /*first len=*/8, /*third len=*/29},
              /*seed=*/15);
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

/// One kVertexResponse record through Codec<VertexT>, as
/// DecodeVertexResponse reads each record. Here the record is the whole
/// input, so an exact decode consumes every byte.
template <typename VertexT>
Status DecodeResponseRecord(const std::string& bytes, std::string* out) {
  VertexT v;
  Deserializer des(bytes);
  GT_RETURN_IF_ERROR(Codec<VertexT>::Decode(des, &v));
  if (!des.AtEnd()) return Status::Corruption("trailing bytes");
  Serializer ser;
  Codec<VertexT>::Encode(ser, v);
  *out = ser.Release();
  return Status::Ok();
}

template <typename VertexT>
std::string EncodeResponseRecord(const VertexT& v) {
  Serializer ser;
  Codec<VertexT>::Encode(ser, v);
  return ser.Release();
}

TEST(DecoderFuzz, AdjVertexResponseRecord) {
  Vertex<AdjList> v;
  v.id = 42;
  v.value = {43, 57, 1000, 65536, 4'000'000'000u};
  // Layout: u32 id | u64 count | VertexId[count].
  FuzzDecoder(DecodeResponseRecord<Vertex<AdjList>>, EncodeResponseRecord(v),
              {/*count=*/4}, /*seed=*/7);
}

TEST(DecoderFuzz, LabeledVertexResponseRecord) {
  Vertex<LabeledAdj> v;
  v.id = 11;
  v.value.label = 3;
  v.value.adj = {{12, 1}, {40, 0}, {99, 300}, {4'000'000'000u, 7}};
  // Layout: u32 id | u16 label | u64 count | LabeledNbr[count].
  FuzzDecoder(DecodeResponseRecord<Vertex<LabeledAdj>>,
              EncodeResponseRecord(v), {/*count=*/6}, /*seed=*/9);
}

/// A whole kVertexResponse, decoded by DecodeVertexResponse.
template <typename VertexT>
Status DecodeResponse(const std::string& bytes, std::string* out) {
  std::vector<VertexT> vs;
  GT_RETURN_IF_ERROR(DecodeVertexResponse(Payload(bytes), &vs));
  std::vector<const VertexT*> ptrs;
  for (const VertexT& v : vs) ptrs.push_back(&v);
  *out = EncodeVertexResponse(ptrs).ToString();
  return Status::Ok();
}

template <typename VertexT>
void FuzzResponse(const std::vector<VertexT>& vs, size_t first_record_count,
                  uint64_t seed) {
  std::vector<const VertexT*> ptrs;
  for (const VertexT& v : vs) ptrs.push_back(&v);
  // Layout: u64 count | record[count]; the first record carries its u64
  // neighbor count at `first_record_count`.
  FuzzDecoder(DecodeResponse<VertexT>, EncodeVertexResponse(ptrs).ToString(),
              {/*count=*/0, first_record_count}, seed);
}

TEST(DecoderFuzz, VertexResponse) {
  std::vector<Vertex<AdjList>> adj(2);
  adj[0].id = 42;
  adj[0].value = {43, 57, 1000, 4'000'000'000u};
  adj[1].id = 7;
  adj[1].value = {3, 8};
  // 8 (count) + 4 (first record's id).
  FuzzResponse(adj, /*first_record_count=*/12, /*seed=*/11);

  std::vector<Vertex<LabeledAdj>> labeled(2);
  labeled[0].id = 11;
  labeled[0].value.label = 3;
  labeled[0].value.adj = {{12, 1}, {40, 0}, {4'000'000'000u, 7}};
  labeled[1].id = 12;
  labeled[1].value.label = 1;
  labeled[1].value.adj = {{11, 3}};
  // 8 (count) + 4 (first record's id) + 2 (its label).
  FuzzResponse(labeled, /*first_record_count=*/14, /*seed=*/13);
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

/// Decodes a spilled TaskT record; returns its re-encoding.
template <typename TaskT>
Status DecodeTaskRecord(const std::string& bytes, std::string* out) {
  TaskT task;
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
  FuzzDecoder(DecodeTaskRecord<BundleTask>, valid,
              {kPullsAt, kSubgraphAt, kEndsAt, kSlotsAt}, /*seed=*/5);
}

TEST(DecoderFuzz, RootBundleRejectsBadOffsetsAndSlots) {
  const std::string valid = BundleTaskRecord();
  std::string out;
  ASSERT_TRUE(DecodeTaskRecord<BundleTask>(valid, &out).ok());
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
    const Status s = DecodeTaskRecord<BundleTask>(bytes, &out);
    EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
  }
}

using MatchBundleTask = Task<LabeledAdj, RootBundle>;

/// A multi-hop GM task as Q_task spills it: one root in its subgraph, its
/// next hop's pulls, and an empty bundle.
std::string MultiHopMatchTaskRecord() {
  MatchBundleTask task;
  Vertex<LabeledAdj> root;
  root.id = 3;
  root.value.label = 0;
  root.value.adj = {{5, 1}, {9, 1}};
  task.subgraph().AddVertex(root);
  task.Pull(5);
  task.Pull(9);
  Serializer ser;
  task.Serialize(ser);
  return ser.Release();
}

// Layout: u32 iteration | u64 n, n pull ids | u64 subgraph size | the root:
// u32 id, u16 label, u64 count, LabeledNbr[count] | u64 0 ends | u64 0
// slots.
constexpr size_t kMatchSubgraphAt = 20;
constexpr size_t kMatchRowAt = kMatchSubgraphAt + 8 + 4 + 2;
constexpr size_t kMatchEndsAt = kMatchRowAt + 8 + 2 * sizeof(LabeledNbr);
constexpr size_t kMatchSlotsAt = kMatchEndsAt + 8;

TEST(DecoderFuzz, SpilledMultiHopMatchTask) {
  const std::string valid = MultiHopMatchTaskRecord();
  ASSERT_EQ(valid.size(), kMatchSlotsAt + 8);
  FuzzDecoder(DecodeTaskRecord<MatchBundleTask>, valid,
              {kPullsAt, kMatchSubgraphAt, kMatchRowAt, kMatchEndsAt,
               kMatchSlotsAt},
              /*seed=*/17);
  // A cut record, even one cut at a field boundary, is corrupt.
  std::string out;
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_TRUE(DecodeTaskRecord<MatchBundleTask>(valid.substr(0, len), &out)
                    .IsCorruption())
        << "prefix of " << len << " bytes";
  }
}

/// A narrowed k-clique task as Q_task spills it after a budget overrun: no
/// subgraph, its members' pulls (root first) and the candidate range it
/// still owns.
std::string SplitTaskRecord() {
  KCliqueTask task;
  task.BumpIteration();
  task.SetPulls({3, 5, 8, 13});
  task.context() = {.root = 3, .begin = 1, .end = 3};
  Serializer ser;
  task.Serialize(ser);
  return ser.Release();
}

// Layout: u32 iteration | u64 n, n pull ids | u64 subgraph size | u32 root |
// u64 begin | u64 end.
constexpr size_t kSplitSubgraphAt = kPullsAt + 8 + 4 * sizeof(VertexId);
constexpr size_t kSplitBeginAt = kSplitSubgraphAt + 8 + sizeof(VertexId);
constexpr size_t kSplitEndAt = kSplitBeginAt + 8;

TEST(DecoderFuzz, SpilledSplitTask) {
  const std::string valid = SplitTaskRecord();
  ASSERT_EQ(valid.size(), kSplitEndAt + 8);
  FuzzDecoder(DecodeTaskRecord<KCliqueTask>, valid,
              {kPullsAt, kSplitSubgraphAt}, /*seed=*/19);
  // A range that begins past its end would run no candidate: the task's
  // share of the answer would go missing, so the decoder refuses it.
  std::string out;
  for (const auto& [begin, end] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {3, 1}, {4, 3}, {SplitCtx::kUnbounded, 0}}) {
    std::string m = valid;
    std::memcpy(&m[kSplitBeginAt], &begin, sizeof(begin));
    std::memcpy(&m[kSplitEndAt], &end, sizeof(end));
    EXPECT_TRUE(DecodeTaskRecord<KCliqueTask>(m, &out).IsCorruption())
        << "[" << begin << ", " << end << ")";
  }
  // An empty range and the unpinned range still decode.
  for (const auto& [begin, end] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {2, 2}, {0, SplitCtx::kUnbounded}}) {
    std::string m = valid;
    std::memcpy(&m[kSplitBeginAt], &begin, sizeof(begin));
    std::memcpy(&m[kSplitEndAt], &end, sizeof(end));
    EXPECT_TRUE(DecodeTaskRecord<KCliqueTask>(m, &out).ok())
        << "[" << begin << ", " << end << ")";
  }
}

// The frame header decoder reads a fixed 24-byte window, and the receive
// loop calls it only once a whole header has arrived; a decoded header must
// be one the encoder could have written, and the payload CRC-32C must catch
// every corrupted payload bit before any message decoder runs.
TEST(DecoderFuzz, FrameHeader) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kData;
  // The highest message type (kReportRequest, protocol v7).
  h.msg_type = static_cast<uint8_t>(MsgType::kReportRequest);
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
  // Exactly three frame kinds decode: HELLO, DATA and BYE (u8 at offset 6).
  for (int kind = 0; kind < 256; ++kind) {
    std::string m = valid;
    m[6] = static_cast<char>(kind);
    const bool known = kind >= static_cast<int>(net::FrameKind::kHello) &&
                       kind <= static_cast<int>(net::FrameKind::kBye);
    EXPECT_EQ(decode(m, &reencoded).ok(), known) << "kind " << kind;
    if (known) {
      EXPECT_EQ(reencoded, m) << "kind " << kind;
    }
  }
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::string m = payload;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(net::Crc32C(m.data(), m.size()), h.crc32) << "bit " << bit;
  }
}

WorkerCheckpoint MakeWorkerCheckpoint() {
  WorkerCheckpoint ckpt;
  ckpt.spawn_next = 5;
  ckpt.records = {"task-a", "", "task-c-record"};
  return ckpt;
}

TEST(DecoderFuzz, WorkerCheckpointBlob) {
  const std::string valid = MakeWorkerCheckpoint().Encode();
  const DecodeFn decode = [](const std::string& bytes, std::string* out) {
    WorkerCheckpoint ckpt;
    GT_RETURN_IF_ERROR(ckpt.Decode(bytes));
    *out = ckpt.Encode();
    return Status::Ok();
  };
  // Layout: u64 spawn cursor | u64 count | count (u64 length, bytes).
  FuzzDecoder(decode, valid, {/*count=*/8, /*first record=*/16},
              /*seed=*/6);
}

// Worker::RestoreFromCheckpoint decodes the whole blob before it banks a
// task, and rejects a spawn cursor past the worker's slot table.
TEST(DecoderFuzz, RestoreFromCheckpointRejectsBadBlobs) {
  JobConfig config;
  config.num_workers = 1;
  CommHub hub(2);
  const std::string dir = TempDirPath("ckpt_fuzz");
  {
    Worker<TriangleComper> worker(
        0, config, &hub, [] { return std::make_unique<TriangleComper>(); },
        nullptr, dir);
    worker.SizeLocalTable(5);
    worker.FinalizeLoad();

    const std::string valid = MakeWorkerCheckpoint().Encode();
    EXPECT_TRUE(
        worker.RestoreFromCheckpoint(valid.substr(0, valid.size() - 1))
            .IsCorruption());
    WorkerCheckpoint past = MakeWorkerCheckpoint();
    past.spawn_next = 6;
    EXPECT_TRUE(worker.RestoreFromCheckpoint(past.Encode()).IsCorruption());
    EXPECT_TRUE(worker.RestoreFromCheckpoint(valid).ok());
  }  // the worker's spill writer finishes before the directory goes
  RemoveTree(dir);
}

/// Checks what a parsed request line may hold, and that printing it back
/// as a request parses to the same line.
void ExpectSaneRequestLine(const net::HttpRequestLine& line,
                           const std::string& what) {
  EXPECT_FALSE(line.method.empty()) << what;
  for (const std::string* part : {&line.method, &line.path}) {
    EXPECT_EQ(part->find_first_of(" \n"), std::string::npos) << what;
  }
  EXPECT_EQ(line.path.find('?'), std::string::npos) << what;
  net::HttpRequestLine again;
  ASSERT_TRUE(net::ParseRequestLine(
                  line.method + " " + line.path + " HTTP/1.0\r\n", &again)
                  .ok())
      << what;
  EXPECT_EQ(again.method, line.method) << what;
  EXPECT_EQ(again.path, line.path) << what;
}

// The status server reads the request line from any local client. Every
// mutation must parse to a sane line or fail with Corruption (answered 400).
TEST(DecoderFuzz, HttpRequestLine) {
  const std::string valid =
      "GET /metrics?name=x HTTP/1.0\r\nHost: localhost\r\n\r\n";
  net::HttpRequestLine line;
  ASSERT_TRUE(net::ParseRequestLine(valid, &line).ok());
  EXPECT_EQ(line.method, "GET");
  EXPECT_EQ(line.path, "/metrics");

  auto check = [](const std::string& bytes, const std::string& what) {
    net::HttpRequestLine parsed;
    const Status s = net::ParseRequestLine(bytes, &parsed);
    if (s.ok()) {
      ExpectSaneRequestLine(parsed, what);
    } else {
      EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
    }
  };
  for (size_t bit = 0; bit < valid.size() * 8; ++bit) {
    std::string m = valid;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    check(m, "flip bit " + std::to_string(bit));
  }
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string m = valid;
    const int flips = 2 + static_cast<int>(rng() % 15);
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng() % (m.size() * 8);
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    }
    check(m, "trial " + std::to_string(trial));
  }
  // A prefix that ends before the first line feed is no request line yet.
  const size_t line_end = valid.find('\n');
  for (size_t len = 0; len <= valid.size(); ++len) {
    const std::string prefix = valid.substr(0, len);
    if (len <= line_end) {
      EXPECT_TRUE(net::ParseRequestLine(prefix, &line).IsCorruption())
          << "prefix of " << len << " bytes parsed";
    } else {
      check(prefix, "prefix of " + std::to_string(len) + " bytes");
    }
  }
  for (const std::string bad : {"\n", " /x HTTP/1.0\r\n", "GET\r\n"}) {
    EXPECT_TRUE(net::ParseRequestLine(bad, &line).IsCorruption()) << bad;
  }
}

/// The adjacency line a reference reading of `bytes` gives: split at
/// whitespace, every token all digits with a value below kInvalidVertex, at
/// least one token. False when any of that fails.
bool ReferenceAdjacencyLine(const std::string& bytes, VertexId* id,
                            AdjList* adj) {
  std::vector<VertexId> ids;
  size_t i = 0;
  while (i < bytes.size()) {
    if (std::isspace(static_cast<unsigned char>(bytes[i]))) {
      ++i;
      continue;
    }
    uint64_t v = 0;
    size_t digits = 0;
    for (; i < bytes.size() &&
           !std::isspace(static_cast<unsigned char>(bytes[i]));
         ++i) {
      if (bytes[i] < '0' || bytes[i] > '9') return false;
      v = v * 10 + static_cast<uint64_t>(bytes[i] - '0');
      if (v >= kInvalidVertex) return false;
      ++digits;
    }
    if (digits == 0) return false;
    ids.push_back(static_cast<VertexId>(v));
  }
  if (ids.empty()) return false;
  *id = ids[0];
  adj->assign(ids.begin() + 1, ids.end());
  return true;
}

// DFS part files and .adj inputs reach GraphIo::ParseAdjacencyLine line by
// line. Every mutation must parse exactly as the reference reading does,
// or fail with Corruption where the reference rejects the line.
TEST(DecoderFuzz, AdjacencyLine) {
  const std::string valid = "4000000000\t0 17 4096 4294967294";
  auto check = [](const std::string& bytes, const std::string& what) {
    VertexId id = 0, want_id = 0;
    AdjList adj, want_adj;
    const Status s = GraphIo::ParseAdjacencyLine(bytes, &id, &adj);
    if (ReferenceAdjacencyLine(bytes, &want_id, &want_adj)) {
      ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
      EXPECT_EQ(id, want_id) << what;
      EXPECT_EQ(adj, want_adj) << what;
    } else {
      EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
    }
  };
  for (size_t bit = 0; bit < valid.size() * 8; ++bit) {
    std::string m = valid;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    check(m, "flip bit " + std::to_string(bit));
  }
  // Seeded splices of hostile tokens at random offsets, 1 to 4 per input.
  const char* const tokens[] = {
      "-1", "+3", "4294967295", "4294967296", "99999999999999999999",
      "3.5", "x", "0x10", " ", "\t", "\r", "00042"};
  std::mt19937_64 rng(16);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string m = valid;
    const int splices = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < splices; ++k) {
      m.insert(rng() % (m.size() + 1), tokens[rng() % std::size(tokens)]);
    }
    check(m, "trial " + std::to_string(trial) + ": '" + m + "'");
  }
  for (size_t len = 0; len <= valid.size(); ++len) {
    check(valid.substr(0, len), "prefix of " + std::to_string(len));
  }
}

}  // namespace
}  // namespace gthinker
