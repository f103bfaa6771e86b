// RootBundleBuilder::Close against the packed-word sort it replaced: each
// (id << 32 | occurrence) word sorted with std::sort, then one walk that
// dedups the pull list and writes every slot. The radix close must produce
// the same pulls, slots and ends, and so the same spilled task bytes, for
// IDs in every pass regime (1, 2 and 3 radix passes), duplicate IDs within
// and across roots, roots without candidates and single-root bundles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/root_bundle.h"
#include "core/task.h"
#include "core/vertex.h"
#include "util/random.h"
#include "util/serializer.h"

namespace gthinker {
namespace {

using BundleTask = Task<AdjList, RootBundle>;

struct Root {
  VertexId id;
  std::vector<VertexId> candidates;
};

/// The comparison-sort close, kept here as the reference encoding.
std::unique_ptr<BundleTask> SortReference(const std::vector<Root>& roots) {
  std::vector<VertexId> ids;
  auto task = std::make_unique<BundleTask>();
  RootBundle& bundle = task->context();
  for (const Root& r : roots) {
    ids.push_back(r.id);
    ids.insert(ids.end(), r.candidates.begin(), r.candidates.end());
    bundle.ends.push_back(static_cast<uint32_t>(ids.size()));
  }
  std::vector<uint64_t> keyed(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    keyed[i] = (static_cast<uint64_t>(ids[i]) << 32) | i;
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<VertexId> pulls;
  bundle.slots.resize(keyed.size());
  for (uint64_t key : keyed) {
    const auto id = static_cast<VertexId>(key >> 32);
    if (pulls.empty() || pulls.back() != id) pulls.push_back(id);
    bundle.slots[key & 0xffffffffu] = static_cast<uint32_t>(pulls.size() - 1);
  }
  task->SetPulls(std::move(pulls));
  return task;
}

std::string Bytes(const BundleTask& task) {
  Serializer ser;
  task.Serialize(ser);
  return ser.Release();
}

/// Closes `roots` through `builder` and checks it against the reference.
void ExpectMatchesReference(RootBundleBuilder* builder,
                            const std::vector<Root>& roots) {
  for (const Root& r : roots) builder->Add(r.id, r.candidates);
  const std::unique_ptr<BundleTask> got = builder->Close<BundleTask>();
  EXPECT_TRUE(builder->empty());
  const std::unique_ptr<BundleTask> want = SortReference(roots);
  ASSERT_EQ(got->pulls(), want->pulls());
  ASSERT_EQ(got->context().slots, want->context().slots);
  ASSERT_EQ(got->context().ends, want->context().ends);
  ASSERT_EQ(Bytes(*got), Bytes(*want));
}

/// A random bundle whose IDs lie in [0, max_id]. Half the bundles draw from
/// a small pool, so IDs repeat within and across roots; some roots get no
/// candidates, and max_id itself shows up often enough to reach the top
/// radix digit.
std::vector<Root> RandomBundle(Random* rng, uint64_t max_id) {
  std::vector<VertexId> pool;
  const bool pooled = rng->Bernoulli(0.5);
  const uint64_t pool_size = rng->UniformRange(1, 40);
  for (uint64_t i = 0; i < pool_size; ++i) {
    pool.push_back(static_cast<VertexId>(rng->Uniform(max_id + 1)));
  }
  const auto draw = [&] {
    if (rng->Bernoulli(0.05)) return static_cast<VertexId>(max_id);
    if (pooled) return pool[rng->Uniform(pool.size())];
    return static_cast<VertexId>(rng->Uniform(max_id + 1));
  };
  std::vector<Root> roots(rng->UniformRange(1, 40));
  for (Root& r : roots) {
    r.id = draw();
    const uint64_t candidates = rng->Bernoulli(0.1) ? 0 : rng->Uniform(120);
    for (uint64_t c = 0; c < candidates; ++c) r.candidates.push_back(draw());
  }
  return roots;
}

TEST(RootBundle, RandomBundlesMatchSortInEveryPassRegime) {
  Random rng(17);
  RootBundleBuilder builder;  // reused: Close() leaves it empty
  for (uint64_t max_id : {uint64_t{(1u << 11) - 1}, uint64_t{(1u << 22) - 1},
                          uint64_t{0xFFFFFFFEu}}) {
    SCOPED_TRACE(max_id);
    for (int b = 0; b < 1000; ++b) {
      ExpectMatchesReference(&builder, RandomBundle(&rng, max_id));
    }
  }
}

TEST(RootBundle, DuplicateIdsWithinAndAcrossRoots) {
  RootBundleBuilder builder;
  const std::vector<Root> roots = {{9, {5, 5, 9, 4096}}, {5, {9, 5, 4096}}};
  ExpectMatchesReference(&builder, roots);
  for (const Root& r : roots) builder.Add(r.id, r.candidates);
  const std::unique_ptr<BundleTask> task = builder.Close<BundleTask>();
  EXPECT_EQ(task->pulls(), (std::vector<VertexId>{5, 9, 4096}));
  EXPECT_EQ(task->context().slots,
            (std::vector<uint32_t>{1, 0, 0, 1, 2, 0, 1, 0, 2}));
  EXPECT_EQ(task->context().ends, (std::vector<uint32_t>{5, 9}));
}

TEST(RootBundle, RootsWithNoCandidates) {
  RootBundleBuilder builder;
  ExpectMatchesReference(&builder, {{7, {}}, {3, {}}, {7, {}}});
  ExpectMatchesReference(&builder, {{0, {}}, {0, {0, 0}}, {0, {}}});
  ExpectMatchesReference(&builder, {{0xFFFFFFFEu, {}}, {1u << 22, {}}});
}

TEST(RootBundle, SingleRoot) {
  RootBundleBuilder builder;
  ExpectMatchesReference(&builder, {{42, {}}});
  builder.Add(42, {100, 1, 42});
  const std::unique_ptr<BundleTask> task = builder.Close<BundleTask>();
  EXPECT_EQ(task->pulls(), (std::vector<VertexId>{1, 42, 100}));
  EXPECT_EQ(task->context().slots, (std::vector<uint32_t>{1, 2, 0, 1}));
  EXPECT_EQ(task->context().ends, (std::vector<uint32_t>{4}));
}

}  // namespace
}  // namespace gthinker
