#include "dse/evaluate.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "arch/hv_driver.hpp"
#include "devices/fefet.hpp"
#include "devices/preisach.hpp"
#include "eval/fom.hpp"
#include "util/rng.hpp"

namespace fetcam::dse {

namespace {

bool is_1p5(arch::TcamDesign d) {
  return d == arch::TcamDesign::k1p5SgFe || d == arch::TcamDesign::k1p5DgFe;
}

tcam::Flavor flavor_of(arch::TcamDesign d) {
  return (d == arch::TcamDesign::k2SgFefet ||
          d == arch::TcamDesign::k1p5SgFe)
             ? tcam::Flavor::kSg
             : tcam::Flavor::kDg;
}

dev::FeFetParams tuned_card(const DesignPoint& p) {
  return dev::scale_fe_thickness(flavor_of(p.design) == tcam::Flavor::kSg
                                     ? dev::sg_fefet_params()
                                     : dev::dg_fefet_params(),
                                 p.t_fe_scale);
}

/// Analytic 2FeFET cell yield: per-trial V_TH / memory-window samples for
/// the two devices, classified against the search drive.  The FG-referred
/// read level is the search voltage for SG cells and back_coupling times
/// the BG drive for DG cells (the window amplification of Fig. 1d).  Each
/// device must both conduct when stored LVT (on margin) and block when
/// stored HVT (off margin); both nominal margins are derated by
/// `margin_scale` for multi-level digits, the variation part is not.
double two_fefet_yield(const DesignPoint& p, const EvalOptions& opts,
                       double margin_scale, std::uint64_t point_seed) {
  const dev::FeFetParams card = tuned_card(p);
  const bool sg = flavor_of(p.design) == tcam::Flavor::kSg;
  const double v_search = (sg ? 0.45 : 2.0) + p.sense_trim_v;
  const double v_eff = sg ? v_search : card.back_coupling * v_search;
  const double on_nom = v_eff - (card.mos.vth0 - card.mw_fg / 2.0);
  const double off_nom = (card.mos.vth0 + card.mw_fg / 2.0) - v_eff;
  const auto& vp = opts.variability;

  int good = 0;
  const int n = std::max(opts.mc_samples, 0);
  for (int t = 0; t < n; ++t) {
    std::mt19937 rng = util::trial_rng(point_seed, static_cast<std::uint64_t>(t));
    std::normal_distribution<double> n01(0.0, 1.0);
    bool ok = true;
    for (int device = 0; device < 2; ++device) {
      const double dvth = vp.sigma_fefet_vth * n01(rng);
      const double dmw = card.mw_fg * vp.sigma_ps_rel * n01(rng) / 2.0;
      const double on = on_nom * margin_scale + (-dvth + dmw);
      const double off = off_nom * margin_scale + (dvth + dmw);
      if (on <= vp.decision_margin || off <= vp.decision_margin) ok = false;
    }
    if (ok) ++good;
  }
  return n > 0 ? static_cast<double>(good) / n : 1.0;
}

}  // namespace

double margin_scale_for(const DesignPoint& p) {
  if (p.digit_bits <= 1) return 1.0;
  const dev::FerroParams fe = tuned_card(p).fe;
  const auto prog_d = dev::multi_level_program(fe, p.digit_bits);
  const auto prog_1 = dev::multi_level_program(fe, 1);
  return dev::multi_level_margin(prog_d) / dev::multi_level_margin(prog_1);
}

eval::DividerDesign divider_design_for(const DesignPoint& p) {
  eval::DividerDesign d;
  d.fe = tuned_card(p);
  d.cell = tcam::apply_tuning(flavor_of(p.design), tcam::OnePointFiveParams{},
                              p.tuning(), d.fe);
  d.vdd = p.vdd;
  d.margin_scale = margin_scale_for(p);
  return d;
}

PointMetrics evaluate_point(const DesignPoint& p, const EvalOptions& opts,
                            std::uint64_t point_seed) {
  PointMetrics m;
  m.point = p;
  try {
    eval::FomOptions fopts;
    fopts.n_bits = p.word_bits;
    fopts.rows = p.rows;
    fopts.vdd = p.vdd;
    fopts.tuning = p.tuning();

    const auto lat = eval::measure_worst_latency(p.design, fopts);
    if (!lat.ok) {
      m.error = "latency: " + lat.error;
      return m;
    }
    const auto se = eval::measure_search_energy(p.design, fopts, lat);
    if (!se.ok) {
      m.error = "search energy: " + se.error;
      return m;
    }
    const auto we = eval::measure_write_energy(p.design, fopts);

    const int d = p.digit_bits;
    const int bits_per_mat = p.rows * p.word_bits * d;
    // Match-OR tree across mats: one gate stage per doubling.
    m.latency_ps =
        lat.latency_full * 1e12 +
        kMatTreePs * std::ceil(std::log2(static_cast<double>(p.mats)));
    m.search_energy_fj_per_bit = se.avg * 1e15 / d;
    m.write_energy_fj_per_bit = we.value_or(0.0) * 1e15 / d;

    const bool shared = is_1p5(p.design);  // Fig. 6 driver multiplexing
    const arch::ArrayArea area =
        arch::array_area(p.design, p.rows, p.word_bits,
                         arch::HvDriverParams{}.area_um2, shared);
    m.area_um2_per_bit = area.total_um2 / bits_per_mat +
                         kGlobalPeriphUm2 / (p.mats * bits_per_mat);

    const double ms = margin_scale_for(p);
    if (is_1p5(p.design)) {
      eval::VariabilityParams vp = opts.variability;
      vp.samples = opts.mc_samples;
      vp.seed = static_cast<unsigned>(point_seed);
      const auto rep = eval::analyze_variability(
          flavor_of(p.design), divider_design_for(p), vp);
      m.yield = rep.ok ? rep.cell_yield : 0.0;
    } else {
      m.yield = two_fefet_yield(p, opts, ms, point_seed);
    }
    m.ok = true;
  } catch (const std::exception& e) {
    m.ok = false;
    m.error = e.what();
  }
  return m;
}

}  // namespace fetcam::dse
