#include "devices/fefet.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "spice/dcsweep.hpp"
#include "spice/elements.hpp"
#include "spice/measure.hpp"
#include "spice/op.hpp"
#include "spice/transient.hpp"

namespace fetcam::dev {
namespace {

using spice::Circuit;
using spice::kGround;
using spice::NodeId;
using spice::Solution;
using spice::VoltageSource;
using spice::Waveform;

// FeFET testbench: drain at a read supply, FG and BG independently driven.
struct FeFetTb {
  Circuit ckt;
  NodeId d, fg, bg;
  VoltageSource* vfg = nullptr;
  VoltageSource* vbg = nullptr;
  VoltageSource* vd = nullptr;
  FeFet* dev = nullptr;

  explicit FeFetTb(const FeFetParams& p, double v_read_drain = 0.1) {
    d = ckt.node("d");
    fg = ckt.node("fg");
    bg = ckt.node("bg");
    vd = &ckt.emplace<VoltageSource>("VD", d, kGround,
                                     Waveform::dc(v_read_drain));
    vfg = &ckt.emplace<VoltageSource>("VFG", fg, kGround, Waveform::dc(0.0));
    vbg = &ckt.emplace<VoltageSource>("VBG", bg, kGround, Waveform::dc(0.0));
    dev = &ckt.emplace<FeFet>("F1", d, fg, kGround, bg, p);
  }

  // Constant-current threshold extraction sweeping one gate.
  double extract_vth(VoltageSource& gate, double v_lo, double v_hi,
                     double i_crit = 1e-7) {
    const auto sweep = spice::dc_sweep(ckt, gate, v_lo, v_hi, 120);
    EXPECT_TRUE(sweep.ok);
    const auto iv = sweep.branch_current(ckt, "VD");
    const auto vs = sweep.sweep_values();
    for (std::size_t k = 1; k < iv.size(); ++k) {
      const double i0 = -iv[k - 1];
      const double i1 = -iv[k];
      if (i0 < i_crit && i1 >= i_crit) {
        const double f = (i_crit - i0) / (i1 - i0);
        return vs[k - 1] + f * (vs[k] - vs[k - 1]);
      }
    }
    ADD_FAILURE() << "threshold not found in sweep";
    return std::nan("");
  }
};

TEST(FeFetCards, ReportedConstantsMatchPaper) {
  const auto sg = sg_fefet_params();
  EXPECT_FALSE(sg.double_gate);
  EXPECT_NEAR(sg.vw(), 4.0, 1e-9);
  EXPECT_NEAR(sg.mw_fg, 1.8, 1e-9);
  EXPECT_NEAR(sg.fe.t_fe, 10e-9, 1e-15);

  const auto dg = dg_fefet_params();
  EXPECT_TRUE(dg.double_gate);
  EXPECT_NEAR(dg.vw(), 2.0, 1e-9);
  EXPECT_NEAR(dg.mw_fg, 0.9, 1e-9);
  EXPECT_NEAR(dg.mw_bg(), 2.7, 1e-9);
  EXPECT_NEAR(dg.fe.t_fe, 5e-9, 1e-15);
}

TEST(FeFet, SgFrontGateMemoryWindow) {
  // Paper Fig. 1(c): FG-read I-V after +/-4 V write, MW = 1.8 V.
  const auto p = sg_fefet_params();
  FeFetTb tb(p);
  tb.dev->set_state(FeState::kLvt, 0.0);
  const double vth_lvt = tb.extract_vth(*tb.vfg, -1.0, 3.0);
  tb.dev->set_state(FeState::kHvt, 0.0);
  const double vth_hvt = tb.extract_vth(*tb.vfg, -1.0, 3.0);
  EXPECT_NEAR(vth_hvt - vth_lvt, 1.8, 0.1);
}

TEST(FeFet, DgBackGateMemoryWindowAmplified) {
  // Paper Fig. 1(d): BG-read I-V after +/-2 V write, MW = 2.7 V.
  const auto p = dg_fefet_params();
  FeFetTb tb(p);
  tb.dev->set_state(FeState::kLvt, 0.0);
  const double vth_lvt = tb.extract_vth(*tb.vbg, -1.0, 4.5);
  tb.dev->set_state(FeState::kHvt, 0.0);
  const double vth_hvt = tb.extract_vth(*tb.vbg, -1.0, 4.5);
  EXPECT_NEAR(vth_hvt - vth_lvt, 2.7, 0.2);
}

TEST(FeFet, BgReadDegradesSubthresholdSlope) {
  // The BG is a 3x weaker gate: SS(BG) ~ 3 * SS(FG).
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.8);
  tb.dev->set_state(FeState::kHvt, 0.0);

  auto slope = [&](VoltageSource& gate, double v0, double v1) {
    gate.set_waveform(Waveform::dc(v0));
    auto op = solve_op(tb.ckt);
    EXPECT_TRUE(op.converged);
    const double i0 = tb.dev->drain_current(Solution(tb.ckt, op.x));
    gate.set_waveform(Waveform::dc(v1));
    op = solve_op(tb.ckt);
    EXPECT_TRUE(op.converged);
    const double i1 = tb.dev->drain_current(Solution(tb.ckt, op.x));
    gate.set_waveform(Waveform::dc(0.0));
    return (v1 - v0) / std::log10(i1 / i0);
  };
  const double ss_fg = slope(*tb.vfg, 0.9, 1.0);
  const double ss_bg = slope(*tb.vbg, 2.7, 3.0);
  EXPECT_NEAR(ss_bg / ss_fg, 3.0, 0.3);
}

TEST(FeFet, DgBgReadOnOffRatioAboutTenThousand) {
  // At the select voltage V_SeL = 2 V the paper quotes ~1e4 on/off.
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.8);
  tb.vbg->set_waveform(Waveform::dc(2.0));
  tb.dev->set_state(FeState::kLvt, 0.0);
  auto op = solve_op(tb.ckt);
  ASSERT_TRUE(op.converged);
  const double i_on = tb.dev->drain_current(Solution(tb.ckt, op.x));
  tb.dev->set_state(FeState::kHvt, 0.0);
  op = solve_op(tb.ckt);
  ASSERT_TRUE(op.converged);
  const double i_off = tb.dev->drain_current(Solution(tb.ckt, op.x));
  EXPECT_GT(i_on / i_off, 1e3);
  EXPECT_LT(i_on / i_off, 1e7);
}

TEST(FeFet, WriteTransientProgramsPolarization) {
  // A +2 V / 50 ns pulse on the FG programs LVT from the erased state.
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.0);
  tb.dev->set_state(FeState::kHvt, 0.0);
  tb.vfg->set_waveform(
      Waveform::pulse(0.0, p.vw(), 5e-9, 1e-9, 1e-9, 50e-9));
  spice::TransientOptions opts;
  opts.t_stop = 80e-9;
  opts.dt = 0.5e-9;
  const auto res = run_transient(tb.ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(tb.dev->normalized_polarization(), 0.95);
  EXPECT_NEAR(tb.dev->threshold_voltage(),
              p.mos.vth0 - p.mw_fg / 2.0, 0.05);
}

TEST(FeFet, EraseTransientResetsPolarization) {
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.0);
  tb.dev->set_state(FeState::kLvt, 0.0);
  tb.vfg->set_waveform(
      Waveform::pulse(0.0, -p.vw(), 5e-9, 1e-9, 1e-9, 50e-9));
  spice::TransientOptions opts;
  opts.t_stop = 80e-9;
  opts.dt = 0.5e-9;
  const auto res = run_transient(tb.ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(tb.dev->normalized_polarization(), -0.95);
}

TEST(FeFet, PartialWriteProducesMvt) {
  // Paper Tab. II: the X state is written with V_m < V_w after erase.
  const auto p = dg_fefet_params();
  const double vth_target = 0.85;
  const double vm = p.write_voltage_for_vth(vth_target);
  EXPECT_GT(vm, 1.4);
  EXPECT_LT(vm, 1.9);

  FeFetTb tb(p, 0.0);
  tb.dev->set_state(FeState::kHvt, 0.0);
  tb.vfg->set_waveform(Waveform::pulse(0.0, vm, 5e-9, 1e-9, 1e-9, 80e-9));
  spice::TransientOptions opts;
  opts.t_stop = 100e-9;
  opts.dt = 0.5e-9;
  const auto res = run_transient(tb.ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(tb.dev->threshold_voltage(), vth_target, 0.08);
}

TEST(FeFet, BgReadCyclesDoNotDisturbState) {
  // 100 select pulses at V_SeL = 2 V on the BG leave polarization intact —
  // the disturb-free read the DG structure exists for.
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.8);
  tb.dev->set_state(FeState::kLvt, 0.0);
  const double p_before = tb.dev->polarization();
  tb.vbg->set_waveform(
      Waveform::pulse(0.0, 2.0, 0.2e-9, 0.05e-9, 0.05e-9, 0.5e-9, 1e-9));
  spice::TransientOptions opts;
  opts.t_stop = 100e-9;  // 100 read cycles
  opts.dt = 20e-12;
  const auto res = run_transient(tb.ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(tb.dev->polarization(), p_before, 1e-4 * p.fe.ps);
}

TEST(FeFet, WriteChargeMatchesTwoPsA) {
  // Switched charge through the FG during a full write ~ 2 Ps A plus the
  // dielectric charge — the physics behind the paper's write-energy rows.
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.0);
  tb.dev->set_state(FeState::kHvt, 0.0);
  tb.vfg->set_waveform(
      Waveform::pulse(0.0, p.vw(), 5e-9, 1e-9, 1e-9, 50e-9));
  spice::TransientOptions opts;
  opts.t_stop = 60e-9;
  opts.dt = 0.25e-9;
  const auto res = run_transient(tb.ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  // Charge delivered while the pulse is high (before it returns).
  const double q = spice::source_charge(res.trace, "VFG", 0.0, 56e-9);
  const double q_pol = 2.0 * p.fe.ps * p.fe.area;  // 0.4 fC
  EXPECT_GT(q, 0.8 * q_pol);
  EXPECT_LT(q, 3.0 * q_pol);
}

TEST(FeFet, WriteVoltageForVthRoundTrips) {
  const auto p = dg_fefet_params();
  for (const double vth : {0.6, 0.8, 0.9, 1.0, 1.2}) {
    const double vm = p.write_voltage_for_vth(vth);
    // Quasi-static settle from erased at vm reproduces the polarization.
    const double pol =
        settle_polarization(p.fe, -p.fe.ps, vm);
    const double vth_back = p.vth_for(pol / p.fe.ps);
    EXPECT_NEAR(vth_back, vth, 1e-6);
  }
}

TEST(FeFet, SetStateMvtRejectsOutOfWindowTargets) {
  const auto p = dg_fefet_params();
  FeFetTb tb(p);
  EXPECT_THROW(tb.dev->set_state(FeState::kMvt, 2.5), std::invalid_argument);
  EXPECT_THROW(tb.dev->set_state(FeState::kMvt, -0.5), std::invalid_argument);
}

TEST(FeFet, CommitReusesTheCheckedPolarizationOnlyForTheSameStep) {
  // Two identical devices: `cached` runs the transient's order (the step
  // check's state_change, then commit_step), `fresh` commits directly.
  const auto p = dg_fefet_params();
  FeFetTb tb(p, 0.0);
  FeFet& fresh = tb.ckt.emplace<FeFet>("F2", tb.d, tb.fg, kGround, tb.bg, p);
  FeFet& cached = *tb.dev;
  tb.ckt.finalize();
  const auto at_fg = [&](double v) {
    num::Vector x(tb.ckt.system_size(), 0.0);
    x[tb.ckt.node_sys_index(tb.fg)] = v;
    return x;
  };
  const auto same_p = [&] {
    return std::bit_cast<std::uint64_t>(cached.polarization()) ==
           std::bit_cast<std::uint64_t>(fresh.polarization());
  };
  spice::EvalContext step;
  step.mode = spice::AnalysisMode::kTransient;
  step.dt = 0.25e-9;
  spice::EvalContext grown = step;
  grown.dt = 4.0 * step.dt;
  cached.set_state(FeState::kHvt, 0.0);
  fresh.set_state(FeState::kHvt, 0.0);

  // Accepted steps: the checked value is committed, bit for bit.
  for (const double v : {1.7, 1.8, 1.9}) {
    const num::Vector x = at_fg(v);
    EXPECT_GT(cached.state_change(step, Solution(tb.ckt, x)), 0.0);
    cached.commit_step(step, Solution(tb.ckt, x));
    fresh.commit_step(step, Solution(tb.ckt, x));
    EXPECT_TRUE(same_p()) << v;
  }
  // A grown step rejected by the bound is retried at dt: the retry commits
  // its own polarization, not the rejected trial's.
  const num::Vector trial = at_fg(2.0);
  const double p_before = cached.polarization();
  const double change = cached.state_change(grown, Solution(tb.ckt, trial));
  const num::Vector retry = at_fg(1.95);
  cached.state_change(step, Solution(tb.ckt, retry));
  cached.commit_step(step, Solution(tb.ckt, retry));
  fresh.commit_step(step, Solution(tb.ckt, retry));
  EXPECT_TRUE(same_p());
  EXPECT_NE(std::abs(cached.polarization() - p_before) / p.fe.ps, change);
  // Same solution, other dt; and a checked value left behind by a step
  // whose commit never came.
  cached.state_change(grown, Solution(tb.ckt, retry));
  cached.commit_step(step, Solution(tb.ckt, retry));
  fresh.commit_step(step, Solution(tb.ckt, retry));
  EXPECT_TRUE(same_p());
  cached.state_change(step, Solution(tb.ckt, trial));
  cached.commit_step(step, Solution(tb.ckt, retry));
  fresh.commit_step(step, Solution(tb.ckt, retry));
  EXPECT_TRUE(same_p());
}

}  // namespace
}  // namespace fetcam::dev
