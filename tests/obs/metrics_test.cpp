// MetricsRegistry: concurrent increments, deterministic export order,
// count and latency distributions.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace fetcam::obs {
namespace {

TEST(MetricsCounter, ConcurrentIncrementsAreExact) {
  Counter& c = MetricsRegistry::instance().counter("test.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#ifndef FETCAM_OBS_DISABLED
TEST(MetricsCounter, IncIsGatedOnLevel) {
  Counter& c = MetricsRegistry::instance().counter("test.gated");
  c.reset();
  set_level(Level::kOff);
  c.inc();
  EXPECT_EQ(c.value(), 0u);
  set_level(Level::kMetrics);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  set_level(Level::kOff);
}
#endif

TEST(MetricsGauge, SetAndRead) {
  Gauge& g = MetricsRegistry::instance().gauge("test.gauge");
  g.set(3.25);
  EXPECT_EQ(g.value(), 3.25);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstance) {
  Counter& a = MetricsRegistry::instance().counter("test.same");
  Counter& b = MetricsRegistry::instance().counter("test.same");
  EXPECT_EQ(&a, &b);
  Distribution& d1 = MetricsRegistry::instance().distribution("test.same_d");
  Distribution& d2 = MetricsRegistry::instance().distribution("test.same_d");
  EXPECT_EQ(&d1, &d2);
  // One name space: the first registration's unit wins.
  EXPECT_EQ(&MetricsRegistry::instance().latency("test.same_d"), &d1);
}

TEST(MetricsRegistryTest, ExportOrderIsSortedAndStable) {
  auto& reg = MetricsRegistry::instance();
  // Register deliberately out of order.
  reg.counter("test.order.zz").add(1);
  reg.counter("test.order.aa").add(2);
  reg.counter("test.order.mm").add(3);
  reg.distribution("test.order.dist_zz").record(1);
  reg.latency("test.order.dist_aa").record(1000);
  const std::string json = reg.to_json();
  const auto pos_a = json.find("test.order.aa");
  const auto pos_m = json.find("test.order.mm");
  const auto pos_z = json.find("test.order.zz");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_m, std::string::npos);
  ASSERT_NE(pos_z, std::string::npos);
  EXPECT_LT(pos_a, pos_m);
  EXPECT_LT(pos_m, pos_z);
  // One "distributions" section, in name order, with unit-carrying keys.
  const auto pos_dists = json.find("\"distributions\": {");
  ASSERT_NE(pos_dists, std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json.find("\"latencies\""), std::string::npos);
  const auto pos_da = json.find("\"test.order.dist_aa\": {\"count\": 1, "
                                "\"p50_us\": 1,");
  const auto pos_dz = json.find("\"test.order.dist_zz\": {\"count\": 1, "
                                "\"p50\": 1,");
  ASSERT_NE(pos_da, std::string::npos);
  ASSERT_NE(pos_dz, std::string::npos);
  EXPECT_LT(pos_dists, pos_da);
  EXPECT_LT(pos_da, pos_dz);
  // Byte-stable across calls.
  EXPECT_EQ(json, reg.to_json());
  // The table renderer sees the same values.
  EXPECT_NE(reg.to_table().find("test.order.aa"), std::string::npos);
}

TEST(MetricsDistribution, SmallCountsAreExact) {
  // Values below 2^kSubBits land in exact unit buckets, so percentiles of
  // small iteration counts are the recorded integers, not bucket edges.
  Distribution& d = MetricsRegistry::instance().distribution("test.counts");
  d.reset();
  for (std::uint64_t v = 1; v <= 7; ++v) d.record(v);
  const DistributionSnapshot s = d.snapshot();
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, 28u);
  EXPECT_EQ(s.p50, 4u);
  EXPECT_EQ(s.max, 7u);
  EXPECT_EQ(s.p99, 7u);
}

TEST(MetricsDistribution, ZeroLandsInFirstBucket) {
  Distribution d;
  d.record(0);
  d.record(0);
  EXPECT_EQ(d.bucket_counts()[0], 2u);
  const DistributionSnapshot s = d.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(MetricsDistribution, OneSecondLatencyIsNotClipped) {
  // No top bound: a 1 s observation is reported as itself, not clipped
  // into an overflow bucket.
  auto& reg = MetricsRegistry::instance();
  Distribution& d = reg.latency("test.one_second");
  d.reset();
  d.record(1'000'000'000);
  const DistributionSnapshot s = d.snapshot();
  EXPECT_EQ(s.max, 1'000'000'000u);
  EXPECT_EQ(s.p99, 1'000'000'000u);
  EXPECT_NE(reg.to_json().find("\"test.one_second\": {\"count\": 1, "
                               "\"p50_us\": 1000000, "),
            std::string::npos);
}

TEST(MetricsDistribution, RegistryResetZeroesDistributions) {
  auto& reg = MetricsRegistry::instance();
  Distribution& d = reg.distribution("test.reset");
  d.record(3);
  d.record(300);
  reg.reset();
  const DistributionSnapshot s = d.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  for (const std::uint64_t c : d.bucket_counts()) EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace fetcam::obs
