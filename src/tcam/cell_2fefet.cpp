#include "tcam/cell_2fefet.hpp"

#include <stdexcept>

#include "devices/tech14.hpp"

namespace fetcam::tcam {

using arch::Ternary;
using dev::FeFet;
using dev::FeState;
using spice::Capacitor;
using spice::kGround;
using spice::NodeId;
using spice::VoltageSource;
using spice::Waveform;

TwoFefetWord::TwoFefetWord(Flavor flavor, WordOptions opts)
    : WordHarness(opts),
      flavor_(flavor),
      fe_params_(dev::tech14::fefet_at_corner(
          dev::tech14::fefet_at_temperature(
              dev::scale_fe_thickness(flavor == Flavor::kSg
                                          ? dev::sg_fefet_params()
                                          : dev::dg_fefet_params(),
                                      opts.tuning.t_fe_scale),
              opts.temperature_k),
          opts.corner)) {}

std::string TwoFefetWord::design_name() const {
  return arch::design_name(area_design());
}

double TwoFefetWord::cell_pitch() const {
  return arch::cell_pitch_m(area_design());
}

double TwoFefetWord::search_voltage() const {
  // SG: the search voltage is applied to the FG — the same gate that writes
  // the ferroelectric — so it is biased conservatively low in the memory
  // window (just above the LVT edge) to bound read disturb and preserve HVT
  // margin under variation.  This modest gate overdrive is what limits the
  // 2FeFET pulldown strength; the 1.5T1Fe design escapes the constraint by
  // decoupling search drive from the storage gate.
  // DG: V_s = 2 V on the back gate (Table I).  The sense trim shifts the
  // drive either way: more overdrive = faster pulldown, less HVT margin.
  return (flavor_ == Flavor::kSg ? 0.45 : 2.0) + opts_.tuning.sense_trim_v;
}

std::pair<FeFet*, FeFet*> TwoFefetWord::place_cell(spice::Circuit& ckt,
                                                   const CellNodes& nodes,
                                                   const std::string& row,
                                                   int i, Ternary d) const {
  const std::string si = row + std::to_string(i);
  auto& ft = ckt.emplace<FeFet>("FT" + si, nodes.ml_tap, nodes.gate_true,
                                kGround, nodes.bg_true, fe_params_);
  auto& fc = ckt.emplace<FeFet>("FC" + si, nodes.ml_tap, nodes.gate_comp,
                                kGround, nodes.bg_comp, fe_params_);
  switch (d) {
    case Ternary::kZero:
      ft.set_state(FeState::kHvt, 0.0);
      fc.set_state(FeState::kLvt, 0.0);
      break;
    case Ternary::kOne:
      ft.set_state(FeState::kLvt, 0.0);
      fc.set_state(FeState::kHvt, 0.0);
      break;
    case Ternary::kX:
      ft.set_state(FeState::kHvt, 0.0);
      fc.set_state(FeState::kHvt, 0.0);
      break;
  }
  return {&ft, &fc};
}

void TwoFefetWord::place_word_cell(int i, const CellNodes& nodes, Ternary d) {
  const auto [ft, fc] = place_cell(ckt_, nodes, {}, i, d);
  f_true_.push_back(ft);
  f_comp_.push_back(fc);
}

void TwoFefetWord::build_search(const SearchConfig& cfg) {
  assert_unbuilt();
  if (static_cast<int>(cfg.stored.size()) != opts_.n_bits ||
      static_cast<int>(cfg.query.size()) != opts_.n_bits) {
    throw std::invalid_argument("stored/query size must equal n_bits");
  }
  const int steps = cfg.steps == 0 ? 1 : cfg.steps;
  if (steps != 1) throw std::invalid_argument("2FeFET search is single-step");

  const auto ml = build_match_line(opts_.n_bits, 1, true).taps;

  // Shared signal nodes per query-bit group; column load lumped per column.
  // sl[b] drives the true FeFET search gates of query-bit-b columns, slb[b]
  // the complementary ones.
  NodeId sl[2], slb[2];
  int count[2] = {0, 0};
  for (const auto qb : cfg.query) ++count[qb ? 1 : 0];
  for (int b = 0; b < 2; ++b) {
    sl[b] = ckt_.node("sl.q" + std::to_string(b));
    slb[b] = ckt_.node("slb.q" + std::to_string(b));
    // Table I: search '0' -> SL = Vs, SLbar = 0; search '1' -> SL = 0,
    // SLbar = Vs.  The group with the active level ramps at search start.
    const bool sl_active = (b == 0);
    const LevelPlan active{{0.0, 0.0},
                           {cfg.timing.search_start(), search_voltage()}};
    const LevelPlan idle{{0.0, 0.0}};
    ckt_.emplace<VoltageSource>(
        "VSL.q" + std::to_string(b), sl[b], kGround,
        levels_waveform(sl_active ? active : idle, cfg.timing.t_edge));
    ckt_.emplace<VoltageSource>(
        "VSLB.q" + std::to_string(b), slb[b], kGround,
        levels_waveform(sl_active ? idle : active, cfg.timing.t_edge));
    if (count[b] > 0) {
      const double c_col = column_share() * count[b];
      ckt_.emplace<Capacitor>("CSL.q" + std::to_string(b), sl[b], kGround,
                              c_col);
      ckt_.emplace<Capacitor>("CSLB.q" + std::to_string(b), slb[b], kGround,
                              c_col);
    }
  }

  // SG: the FG is the search gate, body grounded.  DG: the BG is the
  // search gate; the FGs sit on grounded BLs during search.
  NodeId bl0 = kGround;
  if (flavor_ == Flavor::kDg) {
    bl0 = ckt_.node("bl.idle");
    ckt_.emplace<VoltageSource>("VBL.idle", bl0, kGround, Waveform::dc(0.0));
    const double c_bl = column_share() * opts_.n_bits * 2.0;
    ckt_.emplace<Capacitor>("CBL.idle", bl0, kGround, c_bl);
  }
  f_true_.clear();
  f_comp_.clear();
  for (int i = 0; i < opts_.n_bits; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const int b = cfg.query[idx] ? 1 : 0;
    const CellNodes nodes =
        flavor_ == Flavor::kSg
            ? CellNodes{ml[idx], sl[b], slb[b], kGround, kGround}
            : CellNodes{ml[idx], bl0, bl0, sl[b], slb[b]};
    place_word_cell(i, nodes, cfg.stored[idx]);
  }
  program_precharge(cfg.timing);
  mark_built(cfg.timing.stop_after(1), 2e-12);
}

void TwoFefetWord::build_write(const WriteConfig& cfg) {
  assert_unbuilt();
  if (static_cast<int>(cfg.data.size()) != opts_.n_bits) {
    throw std::invalid_argument("data size must equal n_bits");
  }
  arch::TernaryWord initial = cfg.initial;
  if (initial.empty()) {
    initial.assign(static_cast<std::size_t>(opts_.n_bits), Ternary::kZero);
  }

  const MatchLine ml = build_match_line(opts_.n_bits, 1, true);
  // Hold the ML low for the whole write.
  ml.clamp_gate->set_waveform(Waveform::dc(opts_.vdd));

  const double vw = fe_params_.vw();
  // One signal-node group per data digit.  Table I: write '0' -> (-Vw, +Vw),
  // '1' -> (+Vw, -Vw), 'X' -> (-Vw, -Vw) on the (true, comp) write gates.
  const auto level_true = [&](Ternary d) {
    return d == Ternary::kOne ? vw : -vw;
  };
  const auto level_comp = [&](Ternary d) {
    return d == Ternary::kZero ? vw : -vw;
  };

  NodeId wt[3], wc[3];
  int count[3] = {0, 0, 0};
  for (const auto d : cfg.data) ++count[static_cast<int>(d)];
  const std::string prefix = flavor_ == Flavor::kSg ? "VSL.d" : "VBL.d";
  for (int d = 0; d < 3; ++d) {
    if (count[d] == 0) {
      wt[d] = kGround;
      wc[d] = kGround;
      continue;
    }
    const auto dig = static_cast<Ternary>(d);
    wt[d] = ckt_.node("w.t" + std::to_string(d));
    wc[d] = ckt_.node("w.c" + std::to_string(d));
    const LevelPlan plan_t{{0.0, 0.0},
                           {cfg.timing.phase_start(0) + cfg.timing.t_gap,
                            level_true(dig)},
                           {cfg.timing.phase_end(0), 0.0}};
    const LevelPlan plan_c{{0.0, 0.0},
                           {cfg.timing.phase_start(0) + cfg.timing.t_gap,
                            level_comp(dig)},
                           {cfg.timing.phase_end(0), 0.0}};
    ckt_.emplace<VoltageSource>(prefix + std::to_string(d) + ".t", wt[d],
                                kGround,
                                levels_waveform(plan_t, cfg.timing.t_edge));
    ckt_.emplace<VoltageSource>(prefix + std::to_string(d) + ".c", wc[d],
                                kGround,
                                levels_waveform(plan_c, cfg.timing.t_edge));
    const double c_col = column_share() * count[d];
    ckt_.emplace<Capacitor>("CW.t" + std::to_string(d), wt[d], kGround,
                            c_col);
    ckt_.emplace<Capacitor>("CW.c" + std::to_string(d), wc[d], kGround,
                            c_col);
  }

  NodeId sl_idle = kGround;
  if (flavor_ == Flavor::kDg) {
    // BGs grounded through their (quiet) search lines during write.
    sl_idle = ckt_.node("sl.idle");
    ckt_.emplace<VoltageSource>("VSL.idle", sl_idle, kGround,
                                Waveform::dc(0.0));
  }
  f_true_.clear();
  f_comp_.clear();
  for (int i = 0; i < opts_.n_bits; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const int d = static_cast<int>(cfg.data[idx]);
    place_word_cell(
        i, {ml.taps[idx], wt[d], wc[d], sl_idle, sl_idle}, initial[idx]);
  }
  // Precharge idle: supply up, gate high (off).
  pre_.gate->set_waveform(Waveform::dc(opts_.vdd));
  mark_built(cfg.timing.stop_after(1), 0.25e-9);
}

arch::TernaryWord TwoFefetWord::read_stored() const {
  arch::TernaryWord out;
  out.reserve(f_true_.size());
  for (std::size_t i = 0; i < f_true_.size(); ++i) {
    const double pt = f_true_[i]->normalized_polarization();
    const double pc = f_comp_[i]->normalized_polarization();
    const bool t_lvt = pt > 0.5;
    const bool c_lvt = pc > 0.5;
    if (t_lvt && !c_lvt) {
      out.push_back(Ternary::kOne);
    } else if (!t_lvt && c_lvt) {
      out.push_back(Ternary::kZero);
    } else if (!t_lvt && !c_lvt) {
      out.push_back(Ternary::kX);
    } else {
      throw std::runtime_error("2FeFET cell in invalid LVT/LVT state");
    }
  }
  return out;
}

}  // namespace fetcam::tcam
