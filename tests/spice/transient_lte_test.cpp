// Step-growth rules of the transient engine: grown steps stay on the
// nominal-dt lattice and land on every breakpoint, the error estimate keeps
// an RC response accurate on far fewer samples, grown steps respect the
// FeFET polarization bound, and bad step options fail closed.
#include "spice/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "devices/fefet.hpp"
#include "devices/preisach.hpp"
#include "spice/elements.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::spice {
namespace {

// Every step is k*dt (k a power of two <= 16), lands on a breakpoint or
// t_stop from at most dt before it, or doubles the previous step up to dt
// (the post-edge ramp); every breakpoint is a sample time.
void expect_lattice_steps(const Circuit& ckt, const TransientResult& res,
                          double dt, double t_stop) {
  const auto& times = res.trace.times();
  std::vector<double> bps = ckt.breakpoints(t_stop);
  bps.push_back(t_stop);
  const double tol = 1e-6 * dt;
  auto near_any = [tol](const std::vector<double>& ts, double t) {
    return std::any_of(ts.begin(), ts.end(),
                       [&](double s) { return std::abs(s - t) <= tol; });
  };
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double h = times[i] - times[i - 1];
    bool lattice = false;
    for (int k = 1; k <= 16; k *= 2) {
      lattice = lattice || std::abs(h - k * dt) <= tol;
    }
    const bool ramp =
        i >= 2 && std::abs(h - std::min(dt, 2.0 * (times[i - 1] -
                                                   times[i - 2]))) <= tol;
    const bool landing = h <= dt + tol && near_any(bps, times[i]);
    EXPECT_TRUE(lattice || ramp || landing)
        << "step " << i << " at t=" << times[i] << " h/dt=" << h / dt;
  }
  for (const double b : bps) {
    EXPECT_TRUE(near_any(times, b)) << "breakpoint " << b << " not sampled";
  }
}

class SearchLatticeTest : public ::testing::TestWithParam<arch::TcamDesign> {};

TEST_P(SearchLatticeTest, GrownStepsStayOnTheNominalLattice) {
  tcam::WordOptions opts;
  opts.n_bits = 8;
  auto harness = tcam::make_word_harness(GetParam(), opts);
  tcam::SearchConfig cfg;
  cfg.stored = arch::word_from_string("01X10X01");
  cfg.query = arch::bits_from_string("01110001");
  harness->build_search(cfg);
  TransientOptions topts;
  topts.t_stop = harness->t_stop();
  topts.dt = harness->suggested_dt();
  const auto res = run_transient(harness->circuit(), topts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.grown_steps, 0);
  EXPECT_EQ(res.rejected_steps, 0);
  expect_lattice_steps(harness->circuit(), res, topts.dt, topts.t_stop);
}

INSTANTIATE_TEST_SUITE_P(
    WordHarness, SearchLatticeTest,
    ::testing::Values(arch::TcamDesign::k2SgFefet, arch::TcamDesign::k1p5DgFe),
    [](const auto& info) {
      return info.param == arch::TcamDesign::k2SgFefet ? std::string("2SG")
                                                       : std::string("1_5T1DG");
    });

// V1 - R - out - C - gnd, tau = 1 ns; a 1 V step with a 1 ps rise after a
// 1 ns quiet lead-in, run to 10 ns.
struct RcRun {
  TransientResult res;
  double worst_error = 0.0;  ///< max |v - exact| over the samples, volts
};

RcRun run_rc_step(double dt) {
  const double r = 1e3, c = 1e-12, tau = r * c;
  const double delay = 1e-9, rise = 1e-12;
  Circuit ckt;
  const NodeId vin = ckt.node("vin");
  const NodeId out = ckt.node("out");
  ckt.emplace<VoltageSource>("V1", vin, kGround,
                             Waveform::pulse(0.0, 1.0, delay, rise, rise, 1.0));
  ckt.emplace<Resistor>("R1", vin, out, r);
  ckt.emplace<Capacitor>("C1", out, kGround, c);

  // Exact response to the ramped step.
  auto exact = [&](double t) {
    const double s = t - delay;
    if (s <= 0.0) return 0.0;
    if (s <= rise) return (s - tau * (1.0 - std::exp(-s / tau))) / rise;
    return 1.0 - (tau / rise) * std::expm1(rise / tau) * std::exp(-s / tau);
  };

  TransientOptions opts;
  opts.t_stop = 10e-9;
  opts.dt = dt;
  RcRun run{run_transient(ckt, opts)};
  const auto& times = run.res.trace.times();
  const auto v = run.res.trace.voltage("out");
  for (std::size_t i = 0; i < v.size(); ++i) {
    run.worst_error = std::max(run.worst_error, std::abs(v[i] - exact(times[i])));
  }
  return run;
}

TEST(TransientLte, RcStepResponseStaysAccurateOnFewerSamples) {
  // Backward Euler's global error on this response is ~0.18 * h / tau, so
  // the largest grown step (16 * dt = 4 ps) keeps it under 1e-3 of the 1 V
  // step.
  const double dt = 0.25e-12;
  const RcRun run = run_rc_step(dt);
  ASSERT_TRUE(run.res.ok) << run.res.error;
  EXPECT_LT(run.worst_error, 1e-3);
  const double fixed_samples = 10e-9 / dt + 1.0;
  EXPECT_LT(static_cast<double>(run.res.trace.size()), 0.25 * fixed_samples);
  EXPECT_EQ(run.res.rejected_steps, 0);
}

TEST(TransientLte, ErrorEstimateHoldsGrowthOnACoarseGrid) {
  // dt = tau / 20: fixed-step BE is ~1% off, and an unbounded 16 * dt step
  // (0.8 tau) would be several times worse.  The LTE bound keeps the steps
  // short while the response moves.
  const RcRun run = run_rc_step(50e-12);
  ASSERT_TRUE(run.res.ok) << run.res.error;
  EXPECT_GT(run.res.grown_steps, 0);
  EXPECT_LT(run.worst_error, 1e-2);
}

TEST(TransientLte, GrownWriteStepsRespectThePolarizationBound) {
  tcam::WordOptions opts;
  opts.n_bits = 4;
  auto harness = tcam::make_word_harness(arch::TcamDesign::k1p5DgFe, opts);
  tcam::WriteConfig cfg;
  cfg.data = arch::word_from_string("0X10");
  cfg.initial = arch::word_from_string("1011");
  harness->build_write(cfg);

  Circuit& ckt = harness->circuit();
  struct Probe {
    const dev::FeFet* fe;
    double p;
  };
  std::vector<Probe> probes;
  for (const auto& d : ckt.devices()) {
    if (const auto* fe = dynamic_cast<const dev::FeFet*>(d.get())) {
      probes.push_back({fe, fe->polarization()});
    }
  }
  ASSERT_FALSE(probes.empty());

  TransientOptions topts;
  topts.t_stop = harness->t_stop();
  topts.dt = harness->suggested_dt();
  const auto res = run_transient(ckt, topts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(harness->read_stored(), cfg.data);
  EXPECT_GT(res.grown_steps, 0);

  // Replay each FeFET's polarization over the recorded steps (the same
  // update commit_step applies) and bound every grown step's change.
  const auto& times = res.trace.times();
  auto node_v = [&](NodeId n) {
    return n == kGround ? std::vector<double>(times.size(), 0.0)
                        : res.trace.voltage(ckt.node_name(n));
  };
  for (auto& pr : probes) {
    const auto terms = pr.fe->terminals();  // d, fg, s, bg
    const auto vd = node_v(terms[0]);
    const auto vfg = node_v(terms[1]);
    const auto vs = node_v(terms[2]);
    const dev::FerroParams& fe = pr.fe->params().fe;
    for (std::size_t i = 1; i < times.size(); ++i) {
      const double h = times[i] - times[i - 1];
      const double v_fe = vfg[i] - 0.5 * (vd[i] + vs[i]);
      const double p_end = dev::advance_polarization(fe, pr.p, v_fe, h).p_end;
      if (h > topts.dt * (1.0 + 1e-6)) {
        EXPECT_LE(std::abs(p_end - pr.p) / fe.ps, 0.01)
            << pr.fe->name() << " step " << i << " h/dt=" << h / topts.dt;
      }
      pr.p = p_end;
    }
    EXPECT_NEAR(pr.p, pr.fe->polarization(), 1e-9 * fe.ps) << pr.fe->name();
  }
}

TEST(TransientLte, NonFiniteOrNonPositiveStepOptionsFailClosed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double t_stop, dt, dt_min;
  };
  for (const Case& bad : {Case{1e-9, nan, 1e-16}, Case{1e-9, 1e-12, nan},
                          Case{nan, 1e-12, 1e-16}, Case{inf, 1e-12, 1e-16},
                          Case{1e-9, inf, 1e-16}, Case{1e-9, 0.0, 1e-16},
                          Case{1e-9, -1e-12, 1e-16}, Case{1e-9, 1e-12, 0.0}}) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.emplace<VoltageSource>("V1", a, kGround,
                               Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-11, 1e-11,
                                               1.0));
    ckt.emplace<Resistor>("R1", a, kGround, 1e3);
    TransientOptions opts;
    opts.t_stop = bad.t_stop;
    opts.dt = bad.dt;
    opts.dt_min = bad.dt_min;
    const auto res = run_transient(ckt, opts);
    EXPECT_FALSE(res.ok) << "t_stop=" << bad.t_stop << " dt=" << bad.dt
                         << " dt_min=" << bad.dt_min;
    EXPECT_FALSE(res.error.empty());
  }
}

}  // namespace
}  // namespace fetcam::spice
