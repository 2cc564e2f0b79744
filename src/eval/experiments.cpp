#include "eval/experiments.hpp"

#include <cmath>
#include <sstream>

#include "eval/report.hpp"
#include "spice/dcsweep.hpp"
#include "spice/measure.hpp"
#include "util/parallel.hpp"

namespace fetcam::eval {

using arch::BitWord;
using arch::TcamDesign;
using arch::Ternary;
using arch::TernaryWord;

// --------------------------------------------------------------------------
// Fig. 1
// --------------------------------------------------------------------------

namespace {

IvCurve device_iv(const dev::FeFetParams& params, bool sweep_bg,
                  double v_lo, double v_hi, double v_read,
                  const std::string& label) {
  IvCurve out;
  out.label = label;

  spice::Circuit ckt;
  const auto d = ckt.node("d");
  const auto fg = ckt.node("fg");
  const auto bg = ckt.node("bg");
  ckt.emplace<spice::VoltageSource>("VD", d, spice::kGround,
                                    spice::Waveform::dc(0.1));
  auto& vfg = ckt.emplace<spice::VoltageSource>("VFG", fg, spice::kGround,
                                                spice::Waveform::dc(0.0));
  auto& vbg = ckt.emplace<spice::VoltageSource>("VBG", bg, spice::kGround,
                                                spice::Waveform::dc(0.0));
  auto& fe = ckt.emplace<dev::FeFet>("F1", d, fg, spice::kGround, bg, params);

  auto& gate = sweep_bg ? vbg : vfg;
  const int steps = 140;
  for (const dev::FeState st : {dev::FeState::kLvt, dev::FeState::kHvt}) {
    fe.set_state(st, 0.0);
    const auto sweep = spice::dc_sweep(ckt, gate, v_lo, v_hi, steps);
    if (!sweep.ok) return out;
    const auto iv = sweep.branch_current(ckt, "VD");
    if (st == dev::FeState::kLvt) {
      out.vg = sweep.sweep_values();
      out.id_lvt.reserve(iv.size());
      for (const double i : iv) out.id_lvt.push_back(-i);
    } else {
      out.id_hvt.reserve(iv.size());
      for (const double i : iv) out.id_hvt.push_back(-i);
    }
  }

  // Constant-current memory window at 100 nA.
  const auto vth_at = [&](const std::vector<double>& id) {
    for (std::size_t k = 1; k < id.size(); ++k) {
      if (id[k - 1] < 1e-7 && id[k] >= 1e-7) {
        const double f = (1e-7 - id[k - 1]) / (id[k] - id[k - 1]);
        return out.vg[k - 1] + f * (out.vg[k] - out.vg[k - 1]);
      }
    }
    return std::nan("");
  };
  const double vth_l = vth_at(out.id_lvt);
  const double vth_h = vth_at(out.id_hvt);
  out.memory_window = vth_h - vth_l;

  // On/off ratio at the nominal read voltage.
  const auto at_v = [&](const std::vector<double>& id, double v) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < out.vg.size(); ++k) {
      if (std::abs(out.vg[k] - v) < std::abs(out.vg[best] - v)) best = k;
    }
    return id[best];
  };
  out.on_off_ratio = at_v(out.id_lvt, v_read) / at_v(out.id_hvt, v_read);
  out.ok = std::isfinite(out.memory_window) && out.on_off_ratio > 0.0;
  return out;
}

}  // namespace

IvCurve fig1_sg_fg_read() {
  return device_iv(dev::sg_fefet_params(), /*sweep_bg=*/false, -1.0, 3.0,
                   0.45, "SG-FeFET FG read (Vw=+/-4V)");
}

IvCurve fig1_dg_bg_read() {
  return device_iv(dev::dg_fefet_params(), /*sweep_bg=*/true, -1.0, 4.5, 2.0,
                   "DG-FeFET BG read (Vw=+/-2V)");
}

// --------------------------------------------------------------------------
// Fig. 4
// --------------------------------------------------------------------------

std::vector<Fig4Case> fig4_waveforms(tcam::Flavor flavor) {
  const int n = 8;
  std::vector<Fig4Case> out;
  struct Scenario {
    std::string label;
    int mismatch_pos;  // -1: none
    int steps;
  };
  for (const Scenario& sc : {Scenario{"step-1 miss", 0, 1},
                            Scenario{"step-2 miss", 1, 2},
                            Scenario{"match", -1, 2}}) {
    TernaryWord stored;
    BitWord query;
    for (int i = 0; i < n; ++i) {
      const bool one = (i % 2) != 0;
      stored.push_back(one ? Ternary::kOne : Ternary::kZero);
      query.push_back(one ? 1 : 0);
    }
    if (sc.mismatch_pos >= 0) {
      stored[static_cast<std::size_t>(sc.mismatch_pos)] = Ternary::kOne;
      query[static_cast<std::size_t>(sc.mismatch_pos)] = 0;
    }
    tcam::WordOptions opts;
    opts.n_bits = n;
    tcam::SearchConfig cfg{stored, query, {}, sc.steps};

    const auto design = flavor == tcam::Flavor::kSg
                            ? TcamDesign::k1p5SgFe
                            : TcamDesign::k1p5DgFe;
    Fig4Case c;
    c.label = sc.label;
    spice::Trace trace;
    const auto m = tcam::measure_search(design, opts, cfg, &trace);
    if (!m.ok) {
      out.push_back(std::move(c));
      continue;
    }
    c.t = trace.times();
    const std::string sela_name =
        flavor == tcam::Flavor::kSg ? "blsel.a" : "sela";
    const std::string selb_name =
        flavor == tcam::Flavor::kSg ? "blsel.b" : "selb";
    c.sel_a = trace.voltage(sela_name);
    c.sel_b = trace.voltage(selb_name);
    // The sensed end of the ML and the SA output.
    c.ml = trace.voltage("ml" + std::to_string(n / 2 - 1));
    c.sa_out = trace.voltage("ml.saout");
    c.matched = m.measured_match;
    c.ok = true;
    out.push_back(std::move(c));
  }
  return out;
}

// --------------------------------------------------------------------------
// Tables I / II / III
// --------------------------------------------------------------------------

std::vector<OpCheck> verify_operation_table(TcamDesign design) {
  std::vector<OpCheck> out;
  tcam::WordOptions opts;
  opts.n_bits = 2;

  // Write checks: write each state (over a non-trivial previous word) and
  // read it back.  Skipped for designs without a modeled write path.
  if (design != TcamDesign::kCmos16T) {
    for (const Ternary d : {Ternary::kZero, Ternary::kOne, Ternary::kX}) {
      if (d == Ternary::kX && (design == TcamDesign::k2SgFefet ||
                               design == TcamDesign::k2DgFefet)) {
        // X is a valid 2FeFET state too (HVT/HVT) — still checked.
      }
      OpCheck chk;
      chk.operation = std::string("write ") + arch::to_char(d);
      tcam::WriteConfig cfg;
      cfg.data = {d, d};
      cfg.initial = {Ternary::kOne, Ternary::kZero};
      const auto m = tcam::measure_write(design, opts, cfg);
      std::ostringstream det;
      det << "energy/cell=" << m.energy_per_cell * 1e15 << " fJ";
      chk.detail = det.str();
      chk.passed = m.ok && m.data_ok;
      out.push_back(chk);
    }
  }

  // Search checks: all stored x query combinations.
  for (const Ternary s : {Ternary::kZero, Ternary::kOne, Ternary::kX}) {
    for (const int q : {0, 1}) {
      OpCheck chk;
      chk.operation = std::string("search ") + std::to_string(q) +
                      " vs stored " + arch::to_char(s);
      tcam::SearchConfig cfg;
      cfg.stored = {s, s};
      cfg.query = {static_cast<std::uint8_t>(q),
                   static_cast<std::uint8_t>(q)};
      const auto m = tcam::measure_search(design, opts, cfg);
      std::ostringstream det;
      det << "expect " << (m.expected_match ? "match" : "miss") << ", got "
          << (m.measured_match ? "match" : "miss");
      chk.detail = det.str();
      chk.passed = m.ok && m.measured_match == m.expected_match;
      out.push_back(chk);
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Fig. 7
// --------------------------------------------------------------------------

std::vector<SweepPoint> fig7_sweep(TcamDesign design,
                                   const std::vector<int>& word_lengths,
                                   const FomOptions& base) {
  // Each word length is an independent transient study; run the sweep as
  // a parallel map (slot k = word_lengths[k], so output order is fixed).
  return util::parallel_map<SweepPoint>(
      word_lengths.size(), [&](std::size_t k) {
        FomOptions opts = base;
        opts.n_bits = word_lengths[k];
        SweepPoint pt;
        pt.n_bits = word_lengths[k];
        const auto lat = measure_worst_latency(design, opts);
        if (!lat.ok) return pt;
        const auto e = measure_search_energy(design, opts, lat);
        if (!e.ok) return pt;
        pt.ok = true;
        pt.latency_full_ps = lat.latency_full * 1e12;
        pt.latency_1step_ps = lat.latency_1step * 1e12;
        pt.energy_avg_fj = e.avg * 1e15;
        pt.energy_1step_fj = e.e1 * 1e15;
        pt.energy_2step_fj = e.e2 * 1e15;
        return pt;
      });
}

// --------------------------------------------------------------------------
// Table IV
// --------------------------------------------------------------------------

std::vector<DesignFom> table4(const FomOptions& opts) {
  std::vector<DesignFom> out;
  for (const auto d :
       {TcamDesign::kCmos16T, TcamDesign::k2SgFefet, TcamDesign::k2DgFefet,
        TcamDesign::k1p5SgFe, TcamDesign::k1p5DgFe}) {
    out.push_back(evaluate_fom(d, opts));
  }
  return out;
}

std::string render_table4(const std::vector<DesignFom>& foms) {
  const DesignFom* base = nullptr;
  for (const auto& f : foms) {
    if (f.design == TcamDesign::kCmos16T) base = &f;
  }
  TextTable t({"FoM", "16T CMOS", "2SG-FeFET", "2DG-FeFET", "1.5T1SG-Fe",
               "1.5T1DG-Fe"});
  const auto col = [&](const TcamDesign d) -> const DesignFom* {
    for (const auto& f : foms) {
      if (f.design == d) return &f;
    }
    return nullptr;
  };
  const std::vector<TcamDesign> order = {
      TcamDesign::kCmos16T, TcamDesign::k2SgFefet, TcamDesign::k2DgFefet,
      TcamDesign::k1p5SgFe, TcamDesign::k1p5DgFe};
  const auto row = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells{name};
    for (const auto d : order) {
      const DesignFom* f = col(d);
      cells.push_back(f != nullptr && f->ok ? getter(*f) : std::string("-"));
    }
    t.add_row(cells);
  };

  row("Write voltage", [](const DesignFom& f) {
    std::ostringstream os;
    if (f.t_fe_nm > 0.0) {
      os << "+/-" << f.write_voltage << " V";
      if (f.v_mvt > 0.0) os << ", " << format_eng(f.v_mvt, "V", 3);
    } else {
      os << f.write_voltage << " V";
    }
    return os.str();
  });
  row("FE thickness", [](const DesignFom& f) {
    return f.t_fe_nm > 0.0 ? format_eng(f.t_fe_nm, "nm") : std::string("N.A.");
  });
  row("Cell area (um^2)", [&](const DesignFom& f) {
    return format_eng(f.cell_area_um2, "", 3) + " (" +
           format_ratio(base != nullptr ? base->cell_area_um2 : 0.0,
                        f.cell_area_um2) +
           ")";
  });
  row("Write energy/cell (fJ)", [](const DesignFom& f) {
    return f.write_energy_fj > 0.0 ? format_eng(f.write_energy_fj, "")
                                   : std::string("N.A.");
  });
  row("Search latency (ps)", [&](const DesignFom& f) {
    std::ostringstream os;
    if (f.latency_1step_ps > 0.0) {
      os << "1 step: " << format_eng(f.latency_1step_ps, "") << " / 2 steps: ";
    }
    os << format_eng(f.latency_ps, "") << " ("
       << format_ratio(base != nullptr ? base->latency_ps : 0.0, f.latency_ps)
       << ")";
    return os.str();
  });
  row("Search energy/cell (fJ)", [&](const DesignFom& f) {
    std::ostringstream os;
    if (f.latency_1step_ps > 0.0) {
      os << "1 step: " << format_eng(f.energy_1step_fj, "") << " / 2 steps: "
         << format_eng(f.energy_2step_fj, "") << " / avg: ";
    }
    os << format_eng(f.energy_avg_fj, "") << " ("
       << format_ratio(base != nullptr ? base->energy_avg_fj : 0.0,
                       f.energy_avg_fj)
       << ")";
    return os.str();
  });
  return t.str();
}

}  // namespace fetcam::eval
