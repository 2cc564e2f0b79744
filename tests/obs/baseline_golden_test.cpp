// Golden guard: with observability off, the instrumented simulator must
// reproduce the pre-instrumentation variability results BIT-IDENTICALLY at
// any thread count.  The hexfloat constants below were captured from the
// seed build (commit aaed851, before src/obs/ existed) with
// VariabilityParams{samples=40, seed=7} on the DG flavour.
//
// A second test runs the same analysis at kTrace and asserts the numbers
// are STILL identical — instrumentation observes, it never perturbs — and
// that the solver-health counters and spans actually accumulated.
#include <gtest/gtest.h>

#include <array>

#include "eval/variability.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace fetcam::eval {
namespace {

VariabilityParams golden_params() {
  VariabilityParams vp;
  vp.samples = 40;
  vp.seed = 7;
  return vp;
}

struct GoldenCorner {
  int failures;
  double worst;
  double mean;
};

// Captured from the pre-instrumentation seed build (see file comment).
constexpr std::array<GoldenCorner, 6> kGolden = {{
    {0, 0x1.1ed1d17db7e66p-2, 0x1.43ab2be448182p-2},    // stored 0, query 0
    {0, 0x1.94a5eeeebbf66p-2, 0x1.b1feee82eead5p-2},    // stored 0, query 1
    {10, -0x1.05dd77d13ee2p-4, 0x1.551b343b694cap-6},   // stored 1, query 0
    {0, 0x1.14a44fd849535p-2, 0x1.38d654d09f7bfp-2},    // stored 1, query 1
    {3, -0x1.f6e65e5455838p-5, 0x1.b670863f87d1bp-4},   // stored X, query 0
    {21, -0x1.03e5ba599f258p-1, -0x1.31f59ea2ad04ap-4}, // stored X, query 1
}};
constexpr double kGoldenYield = 0x1.4cccccccccccdp-2;

void expect_matches_golden(const VariabilityReport& rep) {
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.cell_yield, kGoldenYield);
  ASSERT_EQ(rep.corners.size(), kGolden.size());
  for (std::size_t c = 0; c < kGolden.size(); ++c) {
    EXPECT_EQ(rep.corners[c].failures, kGolden[c].failures) << "corner " << c;
    EXPECT_EQ(rep.corners[c].solver_failures, 0) << "corner " << c;
    EXPECT_EQ(rep.corners[c].samples, 40) << "corner " << c;
    // Bit-exact: the goldens are hexfloats, so EXPECT_EQ on doubles.
    EXPECT_EQ(rep.corners[c].worst_margin, kGolden[c].worst) << "corner " << c;
    EXPECT_EQ(rep.corners[c].mean_margin, kGolden[c].mean) << "corner " << c;
  }
}

// Restores the default pool size and obs level regardless of outcome.
struct EnvGuard {
  ~EnvGuard() {
    util::set_thread_count(0);
    obs::set_level(obs::Level::kOff);
  }
};

TEST(BaselineGolden, ObsOffMatchesPreInstrumentationAtAnyThreadCount) {
  EnvGuard guard;
  obs::set_level(obs::Level::kOff);
  for (int threads : {1, 8}) {
    util::set_thread_count(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_matches_golden(analyze_variability(tcam::Flavor::kDg,
                                              golden_params()));
  }
}

#ifndef FETCAM_OBS_DISABLED
TEST(BaselineGolden, InstrumentationDoesNotPerturbResults) {
  EnvGuard guard;
  obs::set_level(obs::Level::kTrace);
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& newton = reg.counter("newton.dense.solves");
  obs::Counter& trials = reg.counter("eval.variability.trials");
  obs::Distribution& iters = reg.distribution("op.newton_iterations");
  const auto newton0 = newton.value();
  const auto trials0 = trials.value();
  const auto iters0 = iters.snapshot().count;
  const auto spans0 = obs::TraceCollector::instance().size();

  util::set_thread_count(4);
  expect_matches_golden(analyze_variability(tcam::Flavor::kDg,
                                            golden_params()));

  // Full metrics + trace collection ran alongside the solve.
  EXPECT_GT(newton.value(), newton0);
  EXPECT_EQ(trials.value(), trials0 + 40);
  EXPECT_GT(iters.snapshot().count, iters0);
  EXPECT_GT(obs::TraceCollector::instance().size(), spans0);
}
#endif

}  // namespace
}  // namespace fetcam::eval
