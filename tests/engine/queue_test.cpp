// BoundedQueue: bounded blocking semantics, close/drain behavior, and
// MPMC safety (everything pushed is popped exactly once).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "engine/queue.hpp"

namespace fetcam::engine {
namespace {

TEST(BoundedQueue, FifoAndWatermark) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_watermark(), 3u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.high_watermark(), 3u);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3)) << "full";
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3)) << "push after close fails";
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop(), 1) << "pops drain remaining items";
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt) << "then report closed";
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);  // must block until the consumer pops
    pushed.store(true);
  });
  // Give the producer a chance to block (not load-bearing for correctness;
  // the assertion below is what matters).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<int> outcomes{0};
  std::thread producer([&] {
    if (!q.push(2)) outcomes.fetch_add(1);  // blocked-full, then closed
  });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] {
    if (!empty.pop().has_value()) outcomes.fetch_add(1);  // blocked-empty
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  empty.close();
  producer.join();
  consumer.join();
  EXPECT_EQ(outcomes.load(), 2);
}

TEST(BoundedQueue, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> q(8);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::multiset<int> seen;
  std::mutex seen_mu;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        const std::lock_guard<std::mutex> lock(seen_mu);
        seen.insert(*item);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  for (int v = 0; v < kProducers * kPerProducer; ++v) {
    EXPECT_EQ(seen.count(v), 1u) << v;
  }
}

}  // namespace
}  // namespace fetcam::engine
