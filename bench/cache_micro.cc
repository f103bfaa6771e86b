// Cache & spill hot-path microbenchmark backing the batched-bucket-ops work
// (BENCH_cache.json). Three experiments:
//
//   [1] OP1/OP3 hammer: several threads resolve hit-only pull sets against
//       one T_cache through three generations of the hot path:
//         legacy    — a faithful reconstruction of the pre-overhaul per-pull
//                     path (modulo bucket routing, one blocking lock per op,
//                     unordered_set Z-table touched on every lock/unlock
//                     transition: the "one mutex + 2-3 hash lookups per
//                     pull" this PR removes);
//         unbatched — the current per-vertex Request/Release (intrusive
//                     Z-list, masked routing) called once per pull;
//         batched   — RequestBatch/ReleaseBatch: pulls counting-grouped by
//                     bucket, one lock per bucket run.
//       The headline speedup row compares batched against legacy (the
//       checked-in before/after number); batched vs unbatched isolates the
//       lock-amortization gain alone.
//   [2] Eviction duel: GC throughput with the intrusive Z-list vs the
//       full-Γ-scan ablation (cache_use_z_table=false), on the same
//       90%-locked population bench/ablation_ztable uses.
//   [3] Spill round-trip: a spill stream written and read back through a
//       bounded L_file window, synchronously (SpillFile::WriteBatch +
//       ReadBatchAndDelete inline over a local deque of paths, the
//       pre-writer-thread spill path) vs through SpillList (writer thread +
//       write cancellation), the worker's L_file.
//
// `--rounds N` scales experiment [1]; `--json PATH` writes the machine-
// readable rows (baseline checked in as BENCH_cache.json).

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/vertex_cache.h"
#include "storage/mini_dfs.h"
#include "storage/spill_file.h"
#include "storage/spill_list.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker::bench {
namespace {

using VertexT = Vertex<AdjList>;
using Cache = VertexCache<VertexT>;

VertexT MakeVertex(VertexId id) {
  VertexT v;
  v.id = id;
  v.value = {id + 1, id + 2, id + 3, id + 4};
  return v;
}

/// Fills the cache with `vertices` entries, all unlocked (request → respond →
/// release), so the hammer below sees a 100% hit rate.
void Prepopulate(Cache* cache, int vertices) {
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < static_cast<VertexId>(vertices); ++v) {
    GT_CHECK(cache->Request(v, 0, &ctr, &out) ==
             Cache::RequestResult::kNewRequest);
    cache->InsertResponse(MakeVertex(v));
    cache->Release(v);
  }
  cache->FlushCounter(&ctr);
}

// ---------------------------------------------------------------------------
// [1] OP1/OP3 hammer: legacy vs per-vertex vs batched pull resolution.
// ---------------------------------------------------------------------------

struct HammerResult {
  double elapsed_s = 0.0;
  int64_t pulls = 0;
  int64_t lock_contention = 0;
};

/// The seed's per-pull hot path, reconstructed verbatim for the before/after
/// row: `Mix64(v) % n` bucket routing (an integer divide per op), a blocking
/// lock_guard per op, an unordered_set Z-table paying a second hash
/// erase/insert on every lock/unlock transition, and the same three stats
/// increments the old Request performed. Only the Γ-hit OP1 and the OP3
/// paths exist — exactly what the hit-only hammer exercises.
class LegacyCache {
 public:
  explicit LegacyCache(int num_buckets) : buckets_(num_buckets) {}

  void Prepopulate(VertexId v) {
    Bucket& bucket = BucketFor(v);
    Entry entry;
    entry.vertex = MakeVertex(v);
    bucket.gamma.emplace(v, std::move(entry));
    bucket.zero.insert(v);
  }

  const VertexT* Request(VertexId v) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    const size_t bucket_index = BucketIndexFor(v);
    std::atomic<int64_t>& group = group_hits_[GroupOf(bucket_index)];
    Bucket& bucket = buckets_[bucket_index];
    std::lock_guard<std::mutex> lock(bucket.mutex);
    auto git = bucket.gamma.find(v);
    GT_CHECK(git != bucket.gamma.end());
    if (git->second.lock_count == 0) bucket.zero.erase(v);
    ++git->second.lock_count;
    hits_.fetch_add(1, std::memory_order_relaxed);
    group.fetch_add(1, std::memory_order_relaxed);
    return &git->second.vertex;
  }

  void Release(VertexId v) {
    Bucket& bucket = BucketFor(v);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    auto git = bucket.gamma.find(v);
    GT_CHECK_GT(git->second.lock_count, 0);
    if (--git->second.lock_count == 0) bucket.zero.insert(v);
  }

 private:
  struct Entry {
    VertexT vertex;
    int32_t lock_count = 0;
  };
  struct Bucket {
    std::mutex mutex;
    std::unordered_map<VertexId, Entry> gamma;
    std::unordered_set<VertexId> zero;
  };

  Bucket& BucketFor(VertexId v) { return buckets_[BucketIndexFor(v)]; }
  size_t BucketIndexFor(VertexId v) const {
    return Mix64(v) % buckets_.size();
  }
  int GroupOf(size_t bucket_index) const {
    return static_cast<int>(bucket_index * 8 / buckets_.size());
  }

  std::vector<Bucket> buckets_;
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> group_hits_[8] = {};
};

/// The legacy hammer: same thread count, pull stream, and hit-only workload
/// as RunHammer below, through LegacyCache's per-pull ops.
HammerResult RunLegacyHammer(int threads, int rounds, int width, int buckets,
                             int vertices) {
  LegacyCache cache(buckets);
  for (VertexId v = 0; v < static_cast<VertexId>(vertices); ++v) {
    cache.Prepopulate(v);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<VertexId> pulls(width);
      uint64_t lcg = 0x9E3779B97F4A7C15ULL * (t + 1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < width; ++k) {
          lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
          pulls[k] = static_cast<VertexId>((lcg >> 33) % vertices);
        }
        for (VertexId v : pulls) cache.Request(v);
        for (VertexId v : pulls) cache.Release(v);
      }
    });
  }
  Timer wall;
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  HammerResult out;
  out.elapsed_s = wall.ElapsedSeconds();
  out.pulls = int64_t{1} * threads * rounds * width;
  return out;
}

/// `threads` workers each resolve `rounds` pull sets of `width` vertices
/// (every pull a Γ hit) and release them. The bucket count is kept small
/// relative to the pull width so batching has runs to amortize: one task's
/// frontier re-locks the same buckets many times on the per-vertex path.
HammerResult RunHammer(bool batched, int threads, int rounds, int width,
                       int buckets, int vertices) {
  Cache cache(buckets, /*capacity=*/4 * vertices, /*alpha=*/0.2,
              /*counter_delta=*/16);
  Prepopulate(&cache, vertices);

  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SCacheCounter ctr;
      std::vector<VertexId> pulls(width);
      std::vector<VertexId> fresh;
      uint64_t lcg = 0x9E3779B97F4A7C15ULL * (t + 1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < width; ++k) {
          lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
          pulls[k] = static_cast<VertexId>((lcg >> 33) % vertices);
        }
        const uint64_t tid = (static_cast<uint64_t>(t) << 32) | r;
        if (batched) {
          fresh.clear();
          const int hits =
              cache.RequestBatch(pulls.data(), pulls.size(), tid, &ctr,
                                 &fresh);
          GT_CHECK_EQ(hits, width);  // prepopulated: every pull is a hit
          cache.ReleaseBatch(pulls.data(), pulls.size());
        } else {
          const VertexT* out = nullptr;
          for (VertexId v : pulls) {
            GT_CHECK(cache.Request(v, tid, &ctr, &out) ==
                     Cache::RequestResult::kHit);
          }
          for (VertexId v : pulls) cache.Release(v);
        }
      }
      cache.FlushCounter(&ctr);
    });
  }
  Timer wall;
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  HammerResult out;
  out.elapsed_s = wall.ElapsedSeconds();
  out.pulls = int64_t{1} * threads * rounds * width;
  out.lock_contention = cache.stats().lock_contention.load();
  return out;
}

// ---------------------------------------------------------------------------
// [2] Eviction duel: intrusive Z-list vs full-Γ-scan GC.
// ---------------------------------------------------------------------------

struct EvictResult {
  double elapsed_s = 0.0;
  int64_t evicted = 0;
  int64_t scan_under_lock_us = 0;
};

/// ablation_ztable's microcosm, timed end to end: 50k cached vertices, 90%
/// locked, GC drains the evictable 10% in chunks. The full-scan ablation
/// walks every locked entry under the bucket lock on each pass; the Z-list
/// chases exactly the evictable ones.
EvictResult RunEvictDuel(bool use_z_table) {
  Cache cache(/*num_buckets=*/64, /*capacity=*/50'000, 0.2, 10, nullptr,
              use_z_table);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < 50'000; ++v) {
    cache.Request(v, v, &ctr, &out);
    cache.InsertResponse(MakeVertex(v));
    if (v % 10 == 0) cache.Release(v);  // only these become evictable
  }
  EvictResult result;
  Timer t;
  for (int round = 0; round < 50; ++round) {
    result.evicted += cache.EvictUpTo(100);
  }
  result.elapsed_s = t.ElapsedSeconds();
  result.scan_under_lock_us = cache.stats().evict_scan_us.load();
  return result;
}

// ---------------------------------------------------------------------------
// [3] Spill round-trip: synchronous ablation vs SpillList.
// ---------------------------------------------------------------------------

struct SpillResult {
  double elapsed_s = 0.0;
  int64_t batches = 0;
  int64_t mem_hits = 0;
};

/// Streams `batches` spill batches through a `lag`-deep L_file window: write
/// the newest, then (once the window is full) read back the oldest — the
/// PushOrSpill → Refill cadence of a spill-bound comper. The sync path pays
/// both disk transfers inline; the async path overlaps writes with the
/// producer and serves reads from memory when the write hasn't landed yet.
SpillResult RunSpillRoundTrip(bool async, int batches, int records_per_batch,
                              int record_bytes, size_t lag) {
  const std::string dir = MakeTempDir(async ? "cache_micro_async"
                                            : "cache_micro_sync");
  SpillList l_file(dir);
  std::deque<std::string> sync_paths;  // the sync row's own L_file

  SpillResult result;
  result.batches = batches;
  size_t listed = 0;
  std::vector<std::string> records;
  std::vector<std::string> back;
  auto pop_oldest = [&] {
    back.clear();
    if (async) {
      GT_CHECK(l_file.PopFront(&back));
    } else {
      GT_CHECK_OK(SpillFile::ReadBatchAndDelete(sync_paths.front(), &back));
      sync_paths.pop_front();
    }
    GT_CHECK_EQ(static_cast<int64_t>(back.size()), records_per_batch);
    --listed;
  };

  Timer wall;
  for (int b = 0; b < batches; ++b) {
    records.clear();
    for (int r = 0; r < records_per_batch; ++r) {
      records.push_back(std::string(record_bytes, static_cast<char>(
                                                      'a' + (b + r) % 26)));
    }
    if (async) {
      l_file.PushBack(std::move(records));
    } else {
      std::string path;
      GT_CHECK_OK(SpillFile::WriteBatch(dir, records, &path));
      sync_paths.push_back(std::move(path));
    }
    if (++listed > lag) pop_oldest();
  }
  while (listed > 0) pop_oldest();
  result.elapsed_s = wall.ElapsedSeconds();
  l_file.Stop();
  result.mem_hits = l_file.stats().mem_hits.load();
  RemoveTree(dir);
  return result;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  int rounds = 10'000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0) rounds = std::atoi(argv[i + 1]);
  }
  constexpr int kThreads = 4;
  constexpr int kWidth = 64;    // pulls per task frontier
  constexpr int kBuckets = 16;  // small enough that frontiers share buckets
  constexpr int kVertices = 4'096;
  constexpr int kReps = 3;

  BenchJson json;
  json.bench = "cache_micro";

  std::printf("cache_micro [1]: OP1/OP3 hammer, %d threads x %d rounds x "
              "%d pulls (buckets=%d, hit-only)\n",
              kThreads, rounds, kWidth, kBuckets);
  std::printf("%-18s %10s %14s %12s\n", "mode", "time", "pulls/s",
              "contention");
  struct Mode {
    const char* label;
    bool legacy;
    bool batched;
  };
  double legacy_ps = 0.0, unbatched_ps = 0.0, batched_ps = 0.0;
  for (const Mode mode : {Mode{"legacy", true, false},
                          Mode{"unbatched", false, false},
                          Mode{"batched", false, true}}) {
    // Best-of-N: one scheduler hiccup can swamp a run this short.
    HammerResult r;
    for (int rep = 0; rep < kReps; ++rep) {
      HammerResult again =
          mode.legacy
              ? RunLegacyHammer(kThreads, rounds, kWidth, kBuckets, kVertices)
              : RunHammer(mode.batched, kThreads, rounds, kWidth, kBuckets,
                          kVertices);
      if (rep == 0 || again.elapsed_s < r.elapsed_s) r = again;
    }
    const double pulls_per_s = r.pulls / r.elapsed_s;
    if (std::strcmp(mode.label, "legacy") == 0) legacy_ps = pulls_per_s;
    if (std::strcmp(mode.label, "unbatched") == 0) unbatched_ps = pulls_per_s;
    if (std::strcmp(mode.label, "batched") == 0) batched_ps = pulls_per_s;
    std::printf("%-18s %8.3f s %14.0f %12" PRId64 "\n", mode.label,
                r.elapsed_s, pulls_per_s, r.lock_contention);
    auto* row = json.AddRow(std::string("op13/") + mode.label);
    row->numbers["elapsed_s"] = r.elapsed_s;
    row->numbers["pulls_per_s"] = pulls_per_s;
    row->numbers["lock_contention"] = static_cast<double>(r.lock_contention);
  }
  // Headline before/after: the new batched path vs the seed's per-pull path.
  const double op13_speedup = batched_ps / legacy_ps;
  const double batch_only_speedup = batched_ps / unbatched_ps;
  std::printf("batched/legacy speedup: %.2fx "
              "(vs current per-op path: %.2fx — lock amortization alone)\n\n",
              op13_speedup, batch_only_speedup);
  auto* speedup_row = json.AddRow("op13/speedup");
  speedup_row->numbers["speedup"] = op13_speedup;
  speedup_row->numbers["speedup_vs_per_op"] = batch_only_speedup;

  std::printf("cache_micro [2]: GC eviction, 50k cached / 90%% locked\n");
  std::printf("%-18s %10s %14s %16s\n", "policy", "time", "evictions/s",
              "scan-locked us");
  double zlist_es = 0.0, fullscan_es = 0.0;
  for (const bool use_z : {true, false}) {
    EvictResult r = RunEvictDuel(use_z);
    for (int rep = 1; rep < kReps; ++rep) {
      EvictResult again = RunEvictDuel(use_z);
      if (again.elapsed_s < r.elapsed_s) r = again;
    }
    const double evictions_per_s = r.evicted / r.elapsed_s;
    (use_z ? zlist_es : fullscan_es) = r.elapsed_s;
    const char* label = use_z ? "zlist" : "fullscan";
    std::printf("%-18s %8.3f s %14.0f %16" PRId64 "\n", label, r.elapsed_s,
                evictions_per_s, r.scan_under_lock_us);
    auto* row = json.AddRow(std::string("evict/") + label);
    row->numbers["elapsed_s"] = r.elapsed_s;
    row->numbers["evicted"] = static_cast<double>(r.evicted);
    row->numbers["evictions_per_s"] = evictions_per_s;
    row->numbers["scan_under_lock_us"] =
        static_cast<double>(r.scan_under_lock_us);
  }
  const double evict_speedup = fullscan_es / zlist_es;
  std::printf("zlist/fullscan speedup: %.2fx\n\n", evict_speedup);
  json.AddRow("evict/speedup")->numbers["speedup"] = evict_speedup;

  constexpr int kSpillBatches = 400;
  constexpr int kRecordsPerBatch = 64;
  constexpr int kRecordBytes = 256;
  constexpr size_t kLag = 4;
  std::printf("cache_micro [3]: spill round-trip, %d batches x %d x %d B "
              "(window %zu)\n",
              kSpillBatches, kRecordsPerBatch, kRecordBytes, kLag);
  std::printf("%-18s %10s %14s %10s\n", "mode", "time", "batches/s",
              "mem hits");
  double sync_s = 0.0, async_s = 0.0;
  for (const bool async : {false, true}) {
    SpillResult r = RunSpillRoundTrip(async, kSpillBatches, kRecordsPerBatch,
                                      kRecordBytes, kLag);
    for (int rep = 1; rep < kReps; ++rep) {
      SpillResult again = RunSpillRoundTrip(async, kSpillBatches,
                                            kRecordsPerBatch, kRecordBytes,
                                            kLag);
      if (again.elapsed_s < r.elapsed_s) r = again;
    }
    const double batches_per_s = r.batches / r.elapsed_s;
    (async ? async_s : sync_s) = r.elapsed_s;
    const char* label = async ? "async" : "sync";
    std::printf("%-18s %8.3f s %14.0f %10" PRId64 "\n", label, r.elapsed_s,
                batches_per_s, r.mem_hits);
    auto* row = json.AddRow(std::string("spill/") + label);
    row->numbers["elapsed_s"] = r.elapsed_s;
    row->numbers["batches_per_s"] = batches_per_s;
    row->numbers["mem_hits"] = static_cast<double>(r.mem_hits);
  }
  const double spill_speedup = sync_s / async_s;
  std::printf("async/sync speedup: %.2fx\n", spill_speedup);
  json.AddRow("spill/speedup")->numbers["speedup"] = spill_speedup;

  const Status s = json.WriteTo(JsonPathArg(argc, argv));
  if (!s.ok()) {
    std::fprintf(stderr, "json write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gthinker::bench

int main(int argc, char** argv) { return gthinker::bench::Main(argc, argv); }
