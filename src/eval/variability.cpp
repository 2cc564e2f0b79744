#include "eval/variability.hpp"

#include "eval/variability_detail.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "devices/tech14.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/op.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fetcam::eval {

using arch::Ternary;
using spice::Circuit;
using spice::Solution;

namespace detail {

SampledCell sample_cell(tcam::Flavor flavor,
                        const tcam::OnePointFiveParams& p,
                        const VariabilityParams& vp, std::mt19937& rng) {
  return sample_cell(flavor, p,
                     flavor == tcam::Flavor::kSg ? dev::sg_fefet_params()
                                                 : dev::dg_fefet_params(),
                     vp, rng);
}

SampledCell sample_cell(tcam::Flavor flavor,
                        const tcam::OnePointFiveParams& p,
                        const dev::FeFetParams& base_fe,
                        const VariabilityParams& vp, std::mt19937& rng) {
  std::normal_distribution<double> n01(0.0, 1.0);
  SampledCell s;
  s.fe = base_fe;
  s.fe.mos.vth0 += vp.sigma_fefet_vth * n01(rng);
  // Polarization spread scales the achievable memory window.
  s.fe.mw_fg *= 1.0 + vp.sigma_ps_rel * n01(rng);
  // Write-path variation: coercive-voltage spread.
  s.fe.fe.vc *= 1.0 + vp.sigma_vc_rel * n01(rng);
  s.tn = dev::tech14::nfet(p.tn_w, p.tn_l);
  s.tn.vth0 += vp.sigma_mos_vth * n01(rng);
  s.tp = dev::tech14::pfet(p.tp_w, p.tp_l);
  s.tp.vth0 += vp.sigma_mos_vth * n01(rng);
  s.tml = dev::tech14::nfet(p.tml_w, p.tml_l);
  s.tml.vth0 =
      (flavor == tcam::Flavor::kSg ? p.tml_vth_sg : p.tml_vth_dg) +
      vp.sigma_mos_vth * n01(rng);
  return s;
}

DividerSolve divider_slb_at_polarization(tcam::Flavor flavor,
                                         const tcam::OnePointFiveParams& p,
                                         const SampledCell& cell,
                                         double polarization, bool query_one,
                                         double vdd) {
  Circuit ckt;
  const tcam::StaticDivider d = tcam::place_static_divider(
      ckt, flavor, p, cell.fe, cell.tn, cell.tp, query_one, vdd);
  d.fe->set_polarization(polarization);
  const auto op = solve_op(ckt);
  if (!op.converged) return {std::nan(""), spice::OpStrategy::kFailed};
  return {Solution(ckt, op.x).v(d.slb), op.strategy};
}

const std::array<Corner, kNumCorners>& corner_table() {
  static const std::array<Corner, kNumCorners> corners = {{
      {Ternary::kZero, 0, true},
      {Ternary::kZero, 1, false},
      {Ternary::kOne, 0, false},
      {Ternary::kOne, 1, true},
      {Ternary::kX, 0, true},
      {Ternary::kX, 1, true},
  }};
  return corners;
}

double corner_margin(const Corner& corner, double v_slb, double tml_vth,
                     double decision_margin) {
  return corner.expect_match ? (tml_vth - decision_margin) - v_slb
                             : v_slb - (tml_vth + decision_margin);
}

VariabilityReport reduce_margins(const VariabilityParams& vp,
                                 const std::vector<TrialMargins>& trials) {
  VariabilityReport rep;
  const auto& corners = corner_table();
  rep.corners.resize(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    rep.corners[c].stored = corners[c].stored;
    rep.corners[c].query = corners[c].query;
    rep.corners[c].worst_margin = 1e9;
  }

  int good_samples = 0;
  for (const TrialMargins& trial : trials) {
    bool sample_ok = true;
    for (std::size_t c = 0; c < corners.size(); ++c) {
      auto& cy = rep.corners[c];
      ++cy.samples;
      const double margin = trial.margin[c];
      if (std::isnan(margin)) {
        ++cy.failures;
        ++cy.solver_failures;
        sample_ok = false;
        continue;
      }
      // Solver attribution: which continuation path rescued this corner.
      if (trial.strategy[c] == spice::OpStrategy::kGmin) ++cy.gmin_rescues;
      if (trial.strategy[c] == spice::OpStrategy::kSource) {
        ++cy.source_rescues;
      }
      cy.mean_margin += margin;
      cy.worst_margin = std::min(cy.worst_margin, margin);
      if (margin < 0.0) {
        ++cy.failures;
        sample_ok = false;
      }
    }
    if (sample_ok) ++good_samples;
  }
  if (obs::metrics_on()) {
    auto& reg = obs::MetricsRegistry::instance();
    static obs::Counter& trials_ctr = reg.counter("eval.variability.trials");
    static obs::Counter& fail_ctr =
        reg.counter("eval.variability.solver_failures");
    static obs::Counter& gmin_ctr =
        reg.counter("eval.variability.gmin_rescues");
    static obs::Counter& source_ctr =
        reg.counter("eval.variability.source_rescues");
    trials_ctr.add(trials.size());
    for (const auto& cy : rep.corners) {
      fail_ctr.add(static_cast<std::uint64_t>(cy.solver_failures));
      gmin_ctr.add(static_cast<std::uint64_t>(cy.gmin_rescues));
      source_ctr.add(static_cast<std::uint64_t>(cy.source_rescues));
    }
  }
  for (auto& cy : rep.corners) {
    if (cy.samples > 0) cy.mean_margin /= cy.samples;
  }
  rep.cell_yield = static_cast<double>(good_samples) / vp.samples;
  rep.ok = true;
  return rep;
}

}  // namespace detail

namespace {

using detail::SampledCell;

/// Open-loop polarization for a stored state: what the NOMINAL write
/// waveform actually leaves on the sampled device.  Full writes saturate
/// regardless of variation; the X state settles on the device's ascending
/// Preisach branch at the nominal V_m, so the achieved V_TH inherits the
/// device's threshold shift and window scaling — the placement error that
/// program-and-verify trimming (eval/trim.*) removes.
double open_loop_polarization(const tcam::OnePointFiveParams& p,
                              tcam::Flavor flavor,
                              const dev::FeFetParams& base_fe,
                              const SampledCell& cell, Ternary stored) {
  switch (stored) {
    case Ternary::kZero:
      return -cell.fe.fe.ps;
    case Ternary::kOne:
      return cell.fe.fe.ps;
    case Ternary::kX:
      break;
  }
  const double mvt =
      flavor == tcam::Flavor::kSg ? p.mvt_vth_sg : p.mvt_vth_dg;
  const double vm_nominal = base_fe.write_voltage_for_vth(mvt);
  return dev::settle_polarization(cell.fe.fe, -cell.fe.fe.ps, vm_nominal);
}

/// Per-corner margins of the UNPERTURBED design — the deterministic part
/// that margin_scale derates (the noise part is left untouched: packing
/// multi-level levels closer shrinks the nominal spacing, not sigma).
std::array<double, detail::kNumCorners> nominal_margins(
    tcam::Flavor flavor, const DividerDesign& design,
    const VariabilityParams& vp) {
  SampledCell cell;
  const tcam::OnePointFiveParams& p = design.cell;
  cell.fe = design.fe;
  cell.tn = dev::tech14::nfet(p.tn_w, p.tn_l);
  cell.tp = dev::tech14::pfet(p.tp_w, p.tp_l);
  cell.tml = dev::tech14::nfet(p.tml_w, p.tml_l);
  cell.tml.vth0 = flavor == tcam::Flavor::kSg ? p.tml_vth_sg : p.tml_vth_dg;
  const auto& corners = detail::corner_table();
  std::array<double, detail::kNumCorners> m{};
  for (std::size_t c = 0; c < corners.size(); ++c) {
    const double pol =
        open_loop_polarization(p, flavor, design.fe, cell, corners[c].stored);
    const auto solve = detail::divider_slb_at_polarization(
        flavor, p, cell, pol, corners[c].query != 0, design.vdd);
    m[c] = std::isnan(solve.v_slb)
               ? 0.0
               : detail::corner_margin(corners[c], solve.v_slb, cell.tml.vth0,
                                       vp.decision_margin);
  }
  return m;
}

}  // namespace

DividerDesign nominal_divider_design(tcam::Flavor flavor) {
  DividerDesign d;
  d.fe = flavor == tcam::Flavor::kSg ? dev::sg_fefet_params()
                                     : dev::dg_fefet_params();
  return d;
}

VariabilityReport analyze_variability(tcam::Flavor flavor,
                                      const VariabilityParams& vp) {
  return analyze_variability(flavor, nominal_divider_design(flavor), vp);
}

VariabilityReport analyze_variability(tcam::Flavor flavor,
                                      const DividerDesign& design,
                                      const VariabilityParams& vp) {
  const tcam::OnePointFiveParams& p = design.cell;
  const double vdd = design.vdd;
  const auto& corners = detail::corner_table();

  // Multi-level derating: subtract the shrunk fraction of each corner's
  // positive nominal margin.  margin_scale == 1 skips the extra solves and
  // leaves every trial margin untouched (legacy bit-identical path).
  std::array<double, detail::kNumCorners> derate{};
  if (design.margin_scale != 1.0) {
    const auto nominal = nominal_margins(flavor, design, vp);
    for (std::size_t c = 0; c < derate.size(); ++c) {
      derate[c] = (1.0 - design.margin_scale) * std::max(nominal[c], 0.0);
    }
  }

  // Parallel map over trials: trial s derives its own RNG stream from
  // (seed, s), so the sampled devices — and therefore the whole report —
  // are independent of thread count and schedule.  The ordered reduce
  // keeps the floating-point tallies bit-identical too.
  const auto trials = util::parallel_map<detail::TrialMargins>(
      static_cast<std::size_t>(std::max(vp.samples, 0)),
      [&](std::size_t s) {
        const obs::ScopedSpan span("eval.variability_trial", "eval");
        std::mt19937 rng = util::trial_rng(vp.seed, s);
        const SampledCell cell =
            detail::sample_cell(flavor, p, design.fe, vp, rng);
        detail::TrialMargins margins;
        for (std::size_t c = 0; c < corners.size(); ++c) {
          const double pol = open_loop_polarization(p, flavor, design.fe,
                                                    cell, corners[c].stored);
          const auto solve = detail::divider_slb_at_polarization(
              flavor, p, cell, pol, corners[c].query != 0, vdd);
          margins.strategy[c] = solve.strategy;
          margins.margin[c] =
              std::isnan(solve.v_slb)
                  ? solve.v_slb
                  : detail::corner_margin(corners[c], solve.v_slb,
                                          cell.tml.vth0, vp.decision_margin) -
                        derate[c];
        }
        return margins;
      });
  return detail::reduce_margins(vp, trials);
}

}  // namespace fetcam::eval
