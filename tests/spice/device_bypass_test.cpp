// Device bypass (devices/bypass.hpp) is scoped to one transient run: a run
// repeated on the same circuit reproduces itself bit for bit, a run never
// reuses an evaluation cached by an earlier one, and the exact analyses —
// operating point and DC sweep — return what they return on a circuit that
// never ran a transient.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "devices/fefet.hpp"
#include "devices/mosfet.hpp"
#include "devices/tech14.hpp"
#include "spice/dcsweep.hpp"
#include "spice/elements.hpp"
#include "spice/transient.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::spice {
namespace {

std::unique_ptr<tcam::WordHarness> search_harness() {
  tcam::WordOptions opts;
  opts.n_bits = 8;
  tcam::SearchConfig cfg;
  cfg.stored = arch::word_from_string("01X10X01");
  cfg.query = arch::bits_from_string("01110001");
  auto h = tcam::make_word_harness(arch::TcamDesign::k1p5DgFe, opts);
  h->build_search(cfg);
  return h;
}

TransientOptions search_options(const tcam::WordHarness& h) {
  TransientOptions topts;
  topts.t_stop = h.t_stop();
  topts.dt = h.suggested_dt();
  return topts;
}

/// Polarization of every FeFET, to undo a run's (physical) read disturb.
std::vector<double> polarizations(const Circuit& ckt) {
  std::vector<double> p;
  for (const auto& dev : ckt.devices()) {
    if (const auto* fe = dynamic_cast<const dev::FeFet*>(dev.get())) {
      p.push_back(fe->polarization());
    }
  }
  return p;
}

void restore_polarizations(Circuit& ckt, const std::vector<double>& p) {
  std::size_t i = 0;
  for (const auto& dev : ckt.devices()) {
    if (auto* fe = dynamic_cast<dev::FeFet*>(dev.get())) {
      fe->set_polarization(p[i++]);
    }
  }
}

bool same_bits(const num::Vector& a, const num::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

bool same_trace(const Trace& a, const Trace& b, const Circuit& ckt) {
  if (a.times() != b.times()) return false;
  for (NodeId n = 1; n < ckt.node_count(); ++n) {
    const auto va = a.voltage(ckt.node_name(n));
    const auto vb = b.voltage(ckt.node_name(n));
    if (va.size() != vb.size() ||
        std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(DeviceBypass, RepeatedTransientOnOneCircuitIsBitIdentical) {
  auto h = search_harness();
  const std::vector<double> p0 = polarizations(h->circuit());
  const TransientResult first = run_transient(h->circuit(), search_options(*h));
  ASSERT_TRUE(first.ok) << first.error;
  // The run did bypass: otherwise this test shows nothing.
  EXPECT_GT(first.device_bypasses, 0u);
  EXPECT_GT(first.device_evaluations, 0u);

  restore_polarizations(h->circuit(), p0);
  const TransientResult second =
      run_transient(h->circuit(), search_options(*h));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(same_trace(first.trace, second.trace, h->circuit()));
  EXPECT_EQ(first.total_newton_iterations, second.total_newton_iterations);
  EXPECT_EQ(first.device_bypasses, second.device_bypasses);
}

/// A resistor-loaded NMOS whose gate pulses up from `v_low` and back.
struct PulsedInverter {
  Circuit ckt;
  VoltageSource* gate = nullptr;

  explicit PulsedInverter(double v_low) {
    const NodeId vdd = ckt.node("vdd");
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.emplace<VoltageSource>("VDD", vdd, kGround, Waveform::dc(0.8));
    gate = &ckt.emplace<VoltageSource>("VIN", in, kGround, pulse(v_low));
    ckt.emplace<Resistor>("RL", vdd, out, 20e3);
    ckt.emplace<Capacitor>("CL", out, kGround, 1e-15);
    ckt.emplace<dev::Mosfet>("M1", out, in, kGround, kGround,
                             dev::tech14::nfet());
  }
  static Waveform pulse(double v_low) {
    return Waveform::pulse(v_low, 0.8, 20e-12, 5e-12, 5e-12, 50e-12);
  }
  TransientResult run() {
    TransientOptions topts;
    topts.t_stop = 300e-12;
    topts.dt = 2e-12;
    return run_transient(ckt, topts);
  }
};

TEST(DeviceBypass, TransientForgetsTheLastRunsEvaluations) {
  PulsedInverter fresh(0.3);
  const TransientResult expected = fresh.run();
  ASSERT_TRUE(expected.ok) << expected.error;
  EXPECT_GT(expected.device_bypasses, 0u);

  // The earlier run ends back at its own operating point, within the
  // bypass tolerance of the next run's but not equal to it: a cached
  // evaluation carried over would be used, and would move the result.
  PulsedInverter used(0.3002);
  ASSERT_TRUE(used.run().ok);
  used.gate->set_waveform(PulsedInverter::pulse(0.3));
  const TransientResult after = used.run();
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_TRUE(same_trace(expected.trace, after.trace, used.ckt));
  EXPECT_EQ(expected.device_bypasses, after.device_bypasses);
}

TEST(DeviceBypass, OperatingPointIgnoresAnEarlierTransient) {
  auto fresh = search_harness();
  const OpResult expected = solve_op(fresh->circuit());
  ASSERT_TRUE(expected.converged);

  auto used = search_harness();
  const std::vector<double> p0 = polarizations(used->circuit());
  ASSERT_TRUE(run_transient(used->circuit(), search_options(*used)).ok);
  restore_polarizations(used->circuit(), p0);
  const OpResult after = solve_op(used->circuit());
  ASSERT_TRUE(after.converged);
  EXPECT_TRUE(same_bits(expected.x, after.x));
  EXPECT_EQ(expected.newton_iterations, after.newton_iterations);
}

TEST(DeviceBypass, DcSweepIgnoresAnEarlierTransient) {
  const auto sweep = [](tcam::WordHarness& h) {
    VoltageSource* src = nullptr;
    for (const auto& dev : h.circuit().devices()) {
      src = dynamic_cast<VoltageSource*>(dev.get());
      if (src != nullptr) break;
    }
    EXPECT_NE(src, nullptr);
    return dc_sweep(h.circuit(), *src, 0.0, 0.8, 8);
  };
  auto fresh = search_harness();
  const DcSweepResult expected = sweep(*fresh);
  ASSERT_TRUE(expected.ok);

  auto used = search_harness();
  const std::vector<double> p0 = polarizations(used->circuit());
  ASSERT_TRUE(run_transient(used->circuit(), search_options(*used)).ok);
  restore_polarizations(used->circuit(), p0);
  const DcSweepResult after = sweep(*used);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(expected.points.size(), after.points.size());
  for (std::size_t i = 0; i < after.points.size(); ++i) {
    EXPECT_TRUE(same_bits(expected.points[i].x, after.points[i].x))
        << "sweep point " << i;
  }
}

}  // namespace
}  // namespace fetcam::spice
