#include "util/concurrent_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <vector>

namespace gthinker {
namespace {

TEST(ConcurrentQueue, FifoOrder) {
  ConcurrentQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(i);
  for (int i = 0; i < 10; ++i) {
    auto got = q.TryPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(ConcurrentQueue, TryPopEmptyReturnsNullopt) {
  ConcurrentQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(ConcurrentQueue, PopForTimesOutOnEmpty) {
  ConcurrentQueue<int> q;
  auto got = q.PopFor(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.has_value());
}

TEST(ConcurrentQueue, PopForWakesOnPush) {
  ConcurrentQueue<int> q;
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.Push(42);
  });
  auto got = q.PopFor(std::chrono::seconds(5));
  producer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

// Wake() ends a blocked PopFor empty-handed long before its deadline; a Wake
// with no waiter is kept for the next PopFor, and consumed by it.
TEST(ConcurrentQueue, WakeEndsAPopForWait) {
  ConcurrentQueue<int> q;
  std::thread waker([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.Wake();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.PopFor(std::chrono::seconds(30)).has_value());
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));

  q.Wake();
  EXPECT_FALSE(q.PopFor(std::chrono::seconds(30)).has_value());
  // Consumed: the next wait runs to its deadline, or to an item.
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(10)).has_value());
  q.Push(7);
  q.Wake();
  ASSERT_EQ(q.PopFor(std::chrono::seconds(30)), std::optional<int>(7));
}

TEST(ConcurrentQueue, MoveOnlyPayload) {
  ConcurrentQueue<std::unique_ptr<int>> q;
  q.Push(std::make_unique<int>(9));
  auto got = q.TryPop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(**got, 9);
}

TEST(ConcurrentQueue, MpmcNoLossNoDuplication) {
  ConcurrentQueue<int> q;
  constexpr int kProducers = 4, kPerProducer = 500, kConsumers = 4;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::mutex seen_mutex;
  std::set<int> seen;
  std::atomic<int> consumed{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        auto got = q.PopFor(std::chrono::milliseconds(50));
        if (!got.has_value()) continue;
        std::lock_guard<std::mutex> lock(seen_mutex);
        EXPECT_TRUE(seen.insert(*got).second) << "duplicate " << *got;
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

}  // namespace
}  // namespace gthinker
