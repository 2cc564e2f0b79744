#include "arch/hv_driver.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fetcam::arch {
namespace {

TEST(DriverBank, SharingHalvesEverything) {
  const MatGeometry g{.rows = 64, .cols = 64, .subarrays = 4};
  const auto r = driver_bank_report(g, {});
  EXPECT_EQ(r.drivers_dedicated, 4 * (64 + 128));
  EXPECT_EQ(r.drivers_shared, r.drivers_dedicated / 2);
  EXPECT_NEAR(r.area_saving(), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(r.leakage_shared_nw, 0.5 * r.leakage_dedicated_nw);
}

TEST(DriverBank, NoSharingWithoutVoltageCoOptimization) {
  const MatGeometry g{.rows = 32, .cols = 32, .subarrays = 4};
  HvDriverParams p;
  p.voltages_match = false;
  const auto r = driver_bank_report(g, p);
  EXPECT_EQ(r.drivers_shared, r.drivers_dedicated);
  EXPECT_DOUBLE_EQ(r.area_saving(), 0.0);
}

TEST(Scheduler, ConcurrentSearchesBothGranted) {
  SharedDriverScheduler s({.rows = 16, .cols = 16, .subarrays = 4}, {});
  const auto g = s.submit({MatOp::kSearch, MatOp::kSearch, MatOp::kSearch,
                           MatOp::kSearch});
  EXPECT_EQ(g, 0b1111u);
  EXPECT_EQ(s.stalls(), 0);
  EXPECT_EQ(s.grants(), 4);
}

TEST(Scheduler, WriteStallsPairedSearch) {
  SharedDriverScheduler s({.rows = 16, .cols = 16, .subarrays = 2}, {});
  const auto g = s.submit({MatOp::kWrite, MatOp::kSearch});
  EXPECT_EQ(g, 0b01u) << "write granted, paired search denied";
  EXPECT_EQ(s.stalls(), 1);
}

TEST(Scheduler, IdlePairDoesNotConflict) {
  SharedDriverScheduler s({.rows = 16, .cols = 16, .subarrays = 2}, {});
  const auto g = s.submit({MatOp::kWrite, MatOp::kIdle});
  EXPECT_EQ(g, 0b01u);
  EXPECT_EQ(s.stalls(), 0);
}

TEST(Scheduler, UtilizationTracksBusyBanks) {
  SharedDriverScheduler s({.rows = 16, .cols = 16, .subarrays = 4}, {});
  s.submit({MatOp::kSearch, MatOp::kIdle, MatOp::kIdle, MatOp::kIdle});
  s.submit({MatOp::kIdle, MatOp::kIdle, MatOp::kIdle, MatOp::kIdle});
  // 1 busy bank cycle out of 4 (2 banks x 2 cycles).
  EXPECT_NEAR(s.utilization(), 0.25, 1e-12);
}

TEST(Scheduler, RejectsBadConfigs) {
  EXPECT_THROW(
      SharedDriverScheduler({.rows = 8, .cols = 8, .subarrays = 3}, {}),
      std::invalid_argument);
  HvDriverParams p;
  p.voltages_match = false;
  EXPECT_THROW(
      SharedDriverScheduler({.rows = 8, .cols = 8, .subarrays = 4}, p),
      std::invalid_argument);
  EXPECT_THROW(
      SharedDriverScheduler({.rows = 8, .cols = 8, .subarrays = 66}, {}),
      std::invalid_argument)
      << "grants are one bit per subarray";
  SharedDriverScheduler s({.rows = 8, .cols = 8, .subarrays = 4}, {});
  EXPECT_THROW(s.submit({MatOp::kIdle}), std::invalid_argument);
  EXPECT_THROW(s.broadcast(-1), std::invalid_argument);
}

TEST(Scheduler, BroadcastEqualsPerCycleSubmits) {
  // broadcast(n) is the closed form of n all-kSearch submit() cycles:
  // interleaved with write cycles (which do stall the paired search), the
  // two schedulers must agree on every counter after every step.
  for (const int subarrays : {2, 4, 8}) {
    SharedDriverScheduler closed({.rows = 8, .cols = 8,
                                  .subarrays = subarrays}, {});
    SharedDriverScheduler cycled({.rows = 8, .cols = 8,
                                  .subarrays = subarrays}, {});
    const std::vector<MatOp> all_search(static_cast<std::size_t>(subarrays),
                                        MatOp::kSearch);
    std::vector<MatOp> write_cycle(static_cast<std::size_t>(subarrays),
                                   MatOp::kIdle);
    write_cycle[1] = MatOp::kWrite;
    write_cycle[0] = MatOp::kSearch;  // stalled by the write on its pair
    for (const long long n : {0LL, 1LL, 7LL, 1000LL}) {
      EXPECT_EQ(closed.submit(write_cycle), cycled.submit(write_cycle));
      closed.broadcast(n);
      for (long long c = 0; c < n; ++c) {
        ASSERT_EQ(cycled.submit(all_search), (1ULL << subarrays) - 1);
      }
      EXPECT_EQ(closed.cycles(), cycled.cycles()) << "n=" << n;
      EXPECT_EQ(closed.grants(), cycled.grants()) << "n=" << n;
      EXPECT_EQ(closed.stalls(), cycled.stalls()) << "n=" << n;
      EXPECT_EQ(closed.utilization(), cycled.utilization()) << "n=" << n;
    }
    EXPECT_GT(closed.stalls(), 0) << "the write cycles must have stalled";
  }
}

}  // namespace
}  // namespace fetcam::arch
