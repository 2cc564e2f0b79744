// Distribution / WindowedSnapshot tests: the bucket layout is an exact
// pure function of the value, merged counts are bit-identical no matter
// which thread recorded what, percentiles walk the merged buckets
// conservatively, and the windowed exporter emits deterministic JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fetcam::obs {
namespace {

TEST(LatencyBuckets, LayoutIsMonotoneAndSelfConsistent) {
  // Every bucket's [lower, upper] range maps back to that bucket, and the
  // ranges tile the uint64 axis in order with no gaps.
  std::uint64_t expect_lower = 0;
  for (std::size_t i = 0; i < Distribution::kBucketCount; ++i) {
    const std::uint64_t lo = Distribution::bucket_lower(i);
    const std::uint64_t hi = Distribution::bucket_upper(i);
    ASSERT_EQ(lo, expect_lower) << "gap before bucket " << i;
    ASSERT_GE(hi, lo) << "inverted bucket " << i;
    ASSERT_EQ(Distribution::bucket_index(lo), i) << "lower of " << i;
    ASSERT_EQ(Distribution::bucket_index(hi), i) << "upper of " << i;
    if (hi == ~0ull) {
      ASSERT_EQ(i + 1, Distribution::kBucketCount);
      break;
    }
    expect_lower = hi + 1;
  }
}

TEST(LatencyBuckets, RelativeErrorIsBoundedBySubBucketWidth) {
  // Above the unit range a bucket spans < 2^-kSubBits of its own lower
  // bound — the quantization guarantee the header documents.
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t v = rng() >> (rng() % 60);
    const std::size_t i = Distribution::bucket_index(v);
    const std::uint64_t lo = Distribution::bucket_lower(i);
    const std::uint64_t hi = Distribution::bucket_upper(i);
    ASSERT_LE(lo, v);
    ASSERT_GE(hi, v);
    if (v >= Distribution::kSubCount && hi != ~0ull) {
      ASSERT_LE(hi - lo + 1, (lo >> Distribution::kSubBits) + 1)
          << "bucket " << i << " too wide at value " << v;
    }
  }
}

TEST(LatencyRecorder, ConcurrentRecordingMergesBitExactly) {
  // N threads record disjoint deterministic streams; the merged bucket
  // counts must equal a serial single-thread reference exactly — no lost
  // updates, no double counts.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Distribution concurrent;
  Distribution serial;
  auto value_at = [](int t, int k) {
    std::uint64_t v = static_cast<std::uint64_t>(t) * 2654435761u +
                      static_cast<std::uint64_t>(k) * 40503u;
    v ^= v >> 13;
    return v % 5000000;  // 0..5ms in ns
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        concurrent.record(value_at(t, k));
      }
    });
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPerThread; ++k) serial.record(value_at(t, k));
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(concurrent.bucket_counts(), serial.bucket_counts());
  const DistributionSnapshot a = concurrent.snapshot();
  const DistributionSnapshot b = serial.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
  EXPECT_EQ(a.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyRecorder, PercentilesOfKnownDistributionAreConservative) {
  // 100 samples 1..100 us: pX must cover the true pX value without
  // under-reporting it, and stay within one sub-bucket above.
  Distribution rec;
  for (std::uint64_t us = 1; us <= 100; ++us) rec.record(us * 1000);
  const DistributionSnapshot s = rec.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max, 100000u);
  EXPECT_GE(s.p50, 50000u);
  EXPECT_LE(s.p50, 50000u + (50000u >> Distribution::kSubBits));
  EXPECT_GE(s.p95, 95000u);
  EXPECT_LE(s.p95, 95000u + (95000u >> Distribution::kSubBits));
  EXPECT_GE(s.p99, 99000u);
  // The tail percentiles clamp to the observed max, never beyond.
  EXPECT_LE(s.p99, s.max);
  EXPECT_EQ(s.p999, s.max);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_GE(s.p95, s.p50);
}

TEST(LatencyRecorder, EmptyAndResetSnapshotsAreZero) {
  Distribution rec;
  DistributionSnapshot s = rec.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p999, 0u);
  rec.record(1234);
  EXPECT_EQ(rec.snapshot().count, 1u);
  rec.reset();
  s = rec.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  for (const std::uint64_t c : rec.bucket_counts()) EXPECT_EQ(c, 0u);
}

TEST(WindowedSnapshot, EmitsDeltaWindowsWithStableShape) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  auto& counter = reg.counter("test.window.counter");
  auto& lat = reg.latency("test.window.latency");

  WindowedSnapshot win;
  counter.add(5);
  lat.record(1000);
  lat.record(2000);
  const std::string first = win.capture_json(1.0);
  EXPECT_NE(first.find("\"schema\": \"fetcam.window.v2\""),
            std::string::npos);
  EXPECT_NE(first.find("\"window\": 1"), std::string::npos);
  EXPECT_NE(first.find("\"distributions\": {"), std::string::npos);
  EXPECT_EQ(first.find("\"latencies\""), std::string::npos);
  EXPECT_NE(first.find("\"test.window.counter\": {\"total\": 5, "
                       "\"delta\": 5"),
            std::string::npos);
  EXPECT_NE(first.find("\"count\": 2, \"delta\": 2"), std::string::npos);

  // Second window: only the increments since the first capture.
  counter.add(3);
  lat.record(3000);
  const std::string second = win.capture_json(2.0);
  EXPECT_NE(second.find("\"window\": 2"), std::string::npos);
  EXPECT_NE(second.find("\"test.window.counter\": {\"total\": 8, "
                        "\"delta\": 3, \"rate_per_s\": 3"),
            std::string::npos);
  EXPECT_NE(second.find("\"count\": 3, \"delta\": 1"), std::string::npos);

  // Identical registry state + forced clocks => byte-identical documents
  // (the first capture pins the window start, the second is compared).
  WindowedSnapshot repeat_a;
  WindowedSnapshot repeat_b;
  repeat_a.capture_json(1.0);
  repeat_b.capture_json(1.0);
  EXPECT_EQ(repeat_a.capture_json(5.0), repeat_b.capture_json(5.0));
  reg.reset();
}

}  // namespace
}  // namespace fetcam::obs
