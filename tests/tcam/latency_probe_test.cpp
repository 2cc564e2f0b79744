// The latency-only search probe (tcam::measure_search_latency): its
// transient stops at the SA decision, yet it reports the full run's latency
// bit for bit, and a search whose SA never falls runs the whole window.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "eval/fom.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::tcam {
namespace {

using arch::TcamDesign;

struct ProbeCase {
  TcamDesign design;
  int n_bits;
};

std::string case_name(const testing::TestParamInfo<ProbeCase>& info) {
  std::string name = arch::design_name(info.param.design);
  for (char& c : name) {
    if (c == '.' || c == '-' || c == ' ') c = '_';
  }
  return name + "_" + std::to_string(info.param.n_bits) + "bit";
}

/// The worst-case latency probe's search: an alternating stored word with
/// a matching query and, when `mismatch`, stored '1' vs query '0' in cell
/// 0, searched for one step in the generous probe window.
SearchConfig probe_search(int n_bits, bool mismatch) {
  const eval::FomOptions fom;
  SearchConfig cfg;
  for (int i = 0; i < n_bits; ++i) {
    const bool one = (i % 2) != 0;
    cfg.stored.push_back(one ? arch::Ternary::kOne : arch::Ternary::kZero);
    cfg.query.push_back(one ? 1 : 0);
  }
  if (mismatch) {
    cfg.stored[0] = arch::Ternary::kOne;
    cfg.query[0] = 0;
  }
  cfg.timing = fom.timing;
  cfg.timing.t_step = fom.probe_t_step;
  cfg.steps = 1;
  return cfg;
}

WordOptions word(int n_bits) {
  WordOptions w;
  w.n_bits = n_bits;
  return w;
}

class LatencyProbeTest : public testing::TestWithParam<ProbeCase> {};

TEST_P(LatencyProbeTest, StopsAtTheSenseDecisionWithTheFullRunsLatency) {
  const auto [design, n_bits] = GetParam();
  const SearchConfig cfg = probe_search(n_bits, true);
  const SearchMeasurement full = measure_search(design, word(n_bits), cfg);
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_TRUE(full.latency.has_value());

  obs::set_level(obs::Level::kMetrics);
  obs::Counter& stopped = obs::MetricsRegistry::instance().counter(
      "transient.stopped_early");
  const std::uint64_t before = stopped.value();
  const LatencyProbe probe = measure_search_latency(design, word(n_bits), cfg);
  const std::uint64_t stops = stopped.value() - before;
  obs::set_level(obs::Level::kOff);
  ASSERT_TRUE(probe.ok) << probe.error;
  ASSERT_TRUE(probe.latency.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*probe.latency),
            std::bit_cast<std::uint64_t>(*full.latency))
      << *probe.latency << " vs " << *full.latency;
  EXPECT_LT(probe.accepted_steps, full.accepted_steps);
  EXPECT_EQ(stops, 1u);
}

TEST_P(LatencyProbeTest, NoCrossingRunsTheWholeWindow) {
  const auto [design, n_bits] = GetParam();
  const SearchConfig cfg = probe_search(n_bits, false);
  const SearchMeasurement full = measure_search(design, word(n_bits), cfg);
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_FALSE(full.latency.has_value());
  const LatencyProbe probe = measure_search_latency(design, word(n_bits), cfg);
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_FALSE(probe.latency.has_value());
  EXPECT_EQ(probe.accepted_steps, full.accepted_steps);
}

INSTANTIATE_TEST_SUITE_P(
    FefetWords, LatencyProbeTest,
    testing::Values(ProbeCase{TcamDesign::k2SgFefet, 8},
                    ProbeCase{TcamDesign::k2SgFefet, 32},
                    ProbeCase{TcamDesign::k2DgFefet, 8},
                    ProbeCase{TcamDesign::k2DgFefet, 32},
                    ProbeCase{TcamDesign::k1p5SgFe, 8},
                    ProbeCase{TcamDesign::k1p5SgFe, 32},
                    ProbeCase{TcamDesign::k1p5DgFe, 8},
                    ProbeCase{TcamDesign::k1p5DgFe, 32}),
    case_name);

}  // namespace
}  // namespace fetcam::tcam
