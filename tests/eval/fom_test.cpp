// Table IV shape tests: the headline relationships the reproduction must
// preserve.  These run full circuit characterizations and take a few
// seconds in total (n_bits = 16 keeps them fast; the ratios are stable
// across word lengths).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "eval/fom.hpp"

namespace fetcam::eval {
namespace {

using arch::TcamDesign;

FomOptions fast_opts() {
  FomOptions o;
  // 32 bits: past the small-N crossover where the 2FeFET designs still beat
  // 1.5T1Fe on latency (visible in the Fig. 7 sweep), yet fast to simulate.
  o.n_bits = 32;
  return o;
}

TEST(Fom, WriteEnergyRatiosMatchPaper) {
  const auto opts = fast_opts();
  const auto sg2 = measure_write_energy(TcamDesign::k2SgFefet, opts);
  const auto dg2 = measure_write_energy(TcamDesign::k2DgFefet, opts);
  const auto sg15 = measure_write_energy(TcamDesign::k1p5SgFe, opts);
  const auto dg15 = measure_write_energy(TcamDesign::k1p5DgFe, opts);
  ASSERT_TRUE(sg2 && dg2 && sg15 && dg15);
  // Paper Table IV: 1x / 2x / 2x / 4x improvements over 2SG-FeFET.
  EXPECT_NEAR(*sg2 / *dg2, 2.0, 0.6);
  EXPECT_NEAR(*sg2 / *sg15, 2.0, 0.6);
  EXPECT_NEAR(*sg2 / *dg15, 4.0, 1.2);
  EXPECT_FALSE(
      measure_write_energy(TcamDesign::kCmos16T, opts).has_value());
}

TEST(Fom, LatencyOrderingMatchesPaper) {
  const auto opts = fast_opts();
  const auto l16t = measure_worst_latency(TcamDesign::kCmos16T, opts);
  const auto l2sg = measure_worst_latency(TcamDesign::k2SgFefet, opts);
  const auto l2dg = measure_worst_latency(TcamDesign::k2DgFefet, opts);
  const auto l15sg = measure_worst_latency(TcamDesign::k1p5SgFe, opts);
  const auto l15dg = measure_worst_latency(TcamDesign::k1p5DgFe, opts);
  ASSERT_TRUE(l16t.ok && l2sg.ok && l2dg.ok && l15sg.ok && l15dg.ok);
  // 16T fastest; 2DG slowest (reduced SS + heavy ML); DG flavours slower
  // than their SG counterparts; 1.5T1DG beats 2DG.
  EXPECT_LT(l16t.latency_full, l15sg.latency_full);
  EXPECT_LT(l2sg.latency_full, l2dg.latency_full);
  EXPECT_LT(l15sg.latency_full, l15dg.latency_full);
  EXPECT_LT(l15dg.latency_full, l2dg.latency_full);
  // Two-step designs: step-1 latency below the full-operation latency.
  EXPECT_GT(l15sg.latency_1step, 0.0);
  EXPECT_LT(l15sg.latency_1step, l15sg.latency_full);
}

TEST(Fom, EarlyTerminationSavesEnergy) {
  const auto opts = fast_opts();
  for (const auto d : {TcamDesign::k1p5SgFe, TcamDesign::k1p5DgFe}) {
    const auto lat = measure_worst_latency(d, opts);
    ASSERT_TRUE(lat.ok);
    const auto e = measure_search_energy(d, opts, lat);
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_LT(e.e1, e.e2) << arch::design_name(d);
    // Average with 90% step-1 misses sits near the 1-step energy.
    EXPECT_LT(e.avg, 0.5 * (e.e1 + e.e2));
    EXPECT_NEAR(e.avg, 0.9 * e.e1 + 0.1 * e.e2, 1e-20);
  }
}

TEST(Fom, EvaluateFomFillsEveryField) {
  FomOptions opts = fast_opts();
  const auto fom = evaluate_fom(TcamDesign::k1p5DgFe, opts);
  ASSERT_TRUE(fom.ok) << fom.error;
  EXPECT_EQ(fom.name, "1.5T1DG-Fe");
  EXPECT_NEAR(fom.write_voltage, 2.0, 1e-9);
  EXPECT_NEAR(fom.t_fe_nm, 5.0, 1e-9);
  EXPECT_NEAR(fom.v_mvt, 1.66, 0.1);
  EXPECT_NEAR(fom.cell_area_um2, 0.156, 1e-3);
  EXPECT_GT(fom.write_energy_fj, 0.0);
  EXPECT_GT(fom.latency_1step_ps, 0.0);
  EXPECT_GT(fom.latency_ps, fom.latency_1step_ps);
  EXPECT_GT(fom.energy_1step_fj, 0.0);
  EXPECT_GT(fom.energy_2step_fj, fom.energy_1step_fj);
  EXPECT_GT(fom.energy_avg_fj, 0.0);
}

TEST(Fom, SizedWindowCoversMeasuredLatency) {
  const auto opts = fast_opts();
  const auto lat = measure_worst_latency(TcamDesign::k1p5SgFe, opts);
  ASSERT_TRUE(lat.ok);
  EXPECT_GT(lat.sized_timing.t_step, lat.latency_1step);
  EXPECT_NEAR(lat.sized_timing.t_step,
              lat.latency_1step * (1.0 + opts.window_slack),
              1e-15 + 0.01 * lat.latency_1step);
}

TEST(Fom, RejectsWordsShorterThanTheDesignMinimum) {
  // The worst-case patterns write cell 0, and the 1.5T1Fe step-2 pattern
  // cell 1 too; shorter words are refused before any harness is built, by
  // every entry point.  (A 1-bit 2FeFET word is valid: EvalEdge tests.)
  for (const int n : {0, -4}) {
    FomOptions opts;
    opts.n_bits = n;
    EXPECT_THROW(evaluate_fom(TcamDesign::k2DgFefet, opts),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(measure_worst_latency(TcamDesign::kCmos16T, opts),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(measure_write_energy(TcamDesign::k2SgFefet, opts),
                 std::invalid_argument)
        << n;
  }
  for (const int n : {1, 0, -4}) {
    FomOptions opts;
    opts.n_bits = n;
    EXPECT_THROW(evaluate_fom(TcamDesign::k1p5DgFe, opts),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(measure_worst_latency(TcamDesign::k1p5SgFe, opts),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(measure_write_energy(TcamDesign::k1p5SgFe, opts),
                 std::invalid_argument)
        << n;
  }
  try {
    FomOptions opts;
    opts.n_bits = 1;
    evaluate_fom(TcamDesign::k1p5SgFe, opts);
    FAIL() << "a 1-bit 1.5T1Fe word was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 2 for 1.5T1SG-Fe, got 1"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace fetcam::eval
