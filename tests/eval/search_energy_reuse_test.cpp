// measure_search_energy reuses the step-2 search that measure_worst_latency
// already ran for the two-step designs.  The reused measurement must give
// exactly the numbers a fresh simulation of the same config gives.
#include <gtest/gtest.h>

#include "eval/fom.hpp"

namespace fetcam::eval {
namespace {

using arch::TcamDesign;

FomOptions small_opts() {
  FomOptions o;
  o.n_bits = 8;
  return o;
}

void expect_same_energy(const SearchEnergyResult& a,
                        const SearchEnergyResult& b) {
  EXPECT_EQ(a.e1, b.e1);
  EXPECT_EQ(a.e2, b.e2);
  EXPECT_EQ(a.avg, b.avg);
  EXPECT_EQ(a.breakdown.precharge, b.breakdown.precharge);
  EXPECT_EQ(a.breakdown.sense_amp, b.breakdown.sense_amp);
  EXPECT_EQ(a.breakdown.signals, b.breakdown.signals);
}

TEST(SearchEnergyReuse, TwoStepReuseEqualsFreshStep2Simulation) {
  const auto opts = small_opts();
  for (const auto d : {TcamDesign::k1p5SgFe, TcamDesign::k1p5DgFe}) {
    SCOPED_TRACE(arch::design_name(d));
    const auto lat = measure_worst_latency(d, opts);
    ASSERT_TRUE(lat.ok) << lat.error;
    ASSERT_TRUE(lat.step2.has_value());
    EXPECT_EQ(*lat.step2->latency, lat.latency_full);

    const auto reused = measure_search_energy(d, opts, lat);
    ASSERT_TRUE(reused.ok) << reused.error;

    LatencyResult fresh_lat = lat;
    fresh_lat.step2.reset();
    const auto fresh = measure_search_energy(d, opts, fresh_lat);
    ASSERT_TRUE(fresh.ok) << fresh.error;

    expect_same_energy(reused, fresh);
    EXPECT_EQ(reused.e2, lat.step2->energy_per_cell);
  }
}

TEST(SearchEnergyReuse, SingleStepDesignsCarryNoStep2) {
  const auto opts = small_opts();
  for (const auto d : {TcamDesign::k2SgFefet, TcamDesign::k2DgFefet}) {
    SCOPED_TRACE(arch::design_name(d));
    const auto lat = measure_worst_latency(d, opts);
    ASSERT_TRUE(lat.ok) << lat.error;
    EXPECT_FALSE(lat.step2.has_value());

    const auto e = measure_search_energy(d, opts, lat);
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_EQ(e.e1, e.e2);
    EXPECT_EQ(e.e1, e.avg);

    // A single-step design ignores any step-2 measurement it is handed.
    LatencyResult with_step2 = lat;
    with_step2.step2.emplace();
    expect_same_energy(measure_search_energy(d, opts, with_step2), e);
  }
}

}  // namespace
}  // namespace fetcam::eval
