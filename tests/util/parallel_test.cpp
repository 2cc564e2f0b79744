// Behavioural tests for the chunked parallel_for pool (util/parallel.hpp):
// chunking edge cases, exception propagation, nested-call safety,
// schedule-independent chunk boundaries, and thread-count resolution.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace fetcam::util {
namespace {

/// Scoped thread-count override so one test can't leak its pool size
/// into the next.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { set_thread_count(n); }
  ~ThreadGuard() { set_thread_count(0); }
};

TEST(ParallelFor, ZeroItemsIsANoop) {
  ThreadGuard guard(4);
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; });
  parallel_for_chunks(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleItem) {
  ThreadGuard guard(4);
  std::atomic<int> calls{0};
  std::size_t seen = 99;
  parallel_for(1, [&](std::size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ParallelFor, FewerItemsThanThreads) {
  ThreadGuard guard(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EveryIndexExactlyOnce) {
  ThreadGuard guard(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForChunks, BoundariesDependOnlyOnNAndChunk) {
  // The chunk decomposition must be a pure function of (n, chunk) — this
  // is what lets consumers reduce per-chunk partials deterministically.
  const auto boundaries = [](int threads) {
    ThreadGuard guard(threads);
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::mutex mu;
    parallel_for_chunks(103, 10, [&](std::size_t b, std::size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(b, e);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto serial = boundaries(1);
  ASSERT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.front(), (std::pair<std::size_t, std::size_t>{0, 10}));
  EXPECT_EQ(serial.back(), (std::pair<std::size_t, std::size_t>{100, 103}));
  EXPECT_EQ(boundaries(2), serial);
  EXPECT_EQ(boundaries(8), serial);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionAbortsUnclaimedWork) {
  // After a throw, chunks nobody claimed yet must be skipped.  Every chunk
  // but chunk 0 first waits for chunk 0's throw and then throws as well,
  // so each of the two pool threads runs at most one body before its own
  // throw aborts the region, however the threads are scheduled.  (Letting
  // the waiting chunks return instead would leave a window: a thrower
  // descheduled between its throw and the pool's catch lets the other
  // thread run all 9,999 empty bodies.)
  ThreadGuard guard(2);
  std::atomic<int> executed{0};
  std::atomic<bool> thrown{false};
  try {
    parallel_for_chunks(10000, 1, [&](std::size_t b, std::size_t) {
      ++executed;
      if (b != 0) thrown.wait(false);
      thrown.store(true);
      thrown.notify_all();
      throw std::runtime_error("chunk fails");
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk fails");
  }
  EXPECT_LE(executed.load(), 2);
}

TEST(ParallelFor, ExceptionInSerialModeAlsoPropagates) {
  ThreadGuard guard(1);
  EXPECT_THROW(parallel_for(
                   5, [](std::size_t i) { if (i == 2) throw 42; }),
               int);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_region_flag{false};
  parallel_for(8, [&](std::size_t) {
    if (inside_parallel_region()) saw_region_flag = true;
    // A nested region must not deadlock and must still visit every index.
    parallel_for(16, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_FALSE(inside_parallel_region());
}

TEST(ParallelFor, PoolSurvivesManyRegionsAndResizes) {
  for (const int threads : {1, 3, 2, 5, 2}) {
    ThreadGuard guard(threads);
    std::atomic<long> sum{0};
    parallel_for(200, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
    EXPECT_EQ(sum.load(), 199L * 200 / 2) << threads << " threads";
  }
}

TEST(ParallelMap, ResultsLandInOrder) {
  ThreadGuard guard(4);
  const auto out =
      parallel_map<int>(257, [](std::size_t i) { return static_cast<int>(i * 3); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i * 3));
  }
}

TEST(ParallelForChunks, SingleChunkRunsInlineOnCaller) {
  ThreadGuard guard(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for_chunks(5, 8, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadCount, OverrideAndRestore) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1);
}

TEST(ThreadCount, ParseAcceptsOnlyWholeCountsInRange) {
  EXPECT_EQ(parse_thread_count("1"), 1);
  EXPECT_EQ(parse_thread_count("4"), 4);
  EXPECT_EQ(parse_thread_count("08"), 8);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreads)), kMaxThreads);
  for (const char* bad :
       {"", "0", "-1", "+4", " 4", "4 ", "4x", "x4", "2.5", "0x10", "abc",
        "100000", "99999999999999999999"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreads + 1)),
            std::nullopt);
}

/// Scoped FETCAM_THREADS value; restores the variable as it was.
class EnvGuard {
 public:
  EnvGuard() {
    if (const char* v = std::getenv("FETCAM_THREADS")) saved_ = v;
  }
  ~EnvGuard() {
    if (saved_) {
      setenv("FETCAM_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("FETCAM_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(ThreadCount, EnvironmentUsesTheStrictParser) {
  // Resolution only: no parallel region runs, so no worker is spawned
  // for any of these counts.
  const EnvGuard env;
  set_thread_count(0);
  unsetenv("FETCAM_THREADS");
  const int fallback = thread_count();
  EXPECT_GE(fallback, 1);
  EXPECT_LE(fallback, kMaxThreads);
  setenv("FETCAM_THREADS", "3", 1);
  EXPECT_EQ(thread_count(), 3);
  setenv("FETCAM_THREADS", std::to_string(kMaxThreads).c_str(), 1);
  EXPECT_EQ(thread_count(), kMaxThreads);
  for (const char* bad : {"4x", "0", "-2", " 3", "", "100000"}) {
    setenv("FETCAM_THREADS", bad, 1);
    EXPECT_EQ(thread_count(), fallback) << "FETCAM_THREADS='" << bad << "'";
  }
  // The explicit override still wins over the environment.
  setenv("FETCAM_THREADS", "3", 1);
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2);
  set_thread_count(0);
}

TEST(ThreadCount, OverrideIsCapped) {
  // Resolution only: no parallel region runs at the capped count.
  set_thread_count(100000);
  EXPECT_EQ(thread_count(), kMaxThreads);
  set_thread_count(0);
  EXPECT_LE(thread_count(), kMaxThreads);
}

}  // namespace
}  // namespace fetcam::util
