#include "tcam/cell_1p5t1fe.hpp"

#include <map>
#include <stdexcept>
#include <tuple>

#include "devices/tech14.hpp"

namespace fetcam::tcam {

using arch::Ternary;
using dev::FeFet;
using dev::FeState;
using dev::Mosfet;
using spice::Capacitor;
using spice::Circuit;
using spice::kGround;
using spice::NodeId;
using spice::VoltageSource;
using spice::Waveform;

namespace {

dev::MosfetParams at_env(const dev::MosfetParams& card,
                         const WordOptions& opts) {
  return dev::tech14::at_corner(
      dev::tech14::at_temperature(card, opts.temperature_k), opts.corner);
}

}  // namespace

OnePointFiveParams apply_tuning(Flavor flavor, OnePointFiveParams p,
                                const DeviceTuning& t,
                                const dev::FeFetParams& tuned_fe) {
  p.tn_w *= t.control_w_scale;
  p.tp_w *= t.control_w_scale;
  p.tml_vth_sg += t.sense_trim_v;
  p.tml_vth_dg += t.sense_trim_v;
  if (t.t_fe_scale != 1.0) {
    // Keep the X level at the same FRACTIONAL window position: the window
    // scales around the MVT midpoint vth0, so the offset scales with it.
    const double vth0 = tuned_fe.mos.vth0;
    double& mvt = flavor == Flavor::kSg ? p.mvt_vth_sg : p.mvt_vth_dg;
    mvt = vth0 + (mvt - vth0) * t.t_fe_scale;
  }
  return p;
}

StaticDivider place_static_divider(Circuit& ckt, Flavor flavor,
                                   const OnePointFiveParams& p,
                                   const dev::FeFetParams& fe,
                                   const dev::MosfetParams& tn,
                                   const dev::MosfetParams& tp,
                                   bool query_one, double vdd) {
  StaticDivider d;
  const NodeId sl = ckt.node("sl");
  d.slb = ckt.node("slb");
  const NodeId bl = ckt.node("bl");
  const NodeId sel = ckt.node("sel");
  const NodeId wrsl = ckt.node("wrsl");
  const NodeId vddp = ckt.node("vddp");
  const double level = query_one ? 0.0 : vdd;
  const double vsel = flavor == Flavor::kSg ? p.v_sel_sg : p.v_sel_dg;
  ckt.emplace<VoltageSource>("VSL", sl, kGround, Waveform::dc(level));
  ckt.emplace<VoltageSource>("VWRSL", wrsl, kGround, Waveform::dc(level));
  ckt.emplace<VoltageSource>("VDDP", vddp, kGround, Waveform::dc(vdd));
  if (flavor == Flavor::kSg) {
    ckt.emplace<VoltageSource>("VBL", bl, kGround, Waveform::dc(vsel));
    ckt.emplace<VoltageSource>("VSELX", sel, kGround, Waveform::dc(0.0));
  } else {
    ckt.emplace<VoltageSource>("VBL", bl, kGround,
                               Waveform::dc(query_one ? 0.0 : p.v_b));
    ckt.emplace<VoltageSource>("VSELX", sel, kGround, Waveform::dc(vsel));
  }
  d.fe = &ckt.emplace<FeFet>("FE", sl, bl, d.slb, sel, fe);
  d.tn = &ckt.emplace<Mosfet>("TN", d.slb, wrsl, kGround, kGround, tn);
  d.tp = &ckt.emplace<Mosfet>("TP", d.slb, wrsl, vddp, vddp, tp);
  return d;
}

OnePointFiveWord::OnePointFiveWord(Flavor flavor, WordOptions opts,
                                   OnePointFiveParams params)
    : WordHarness(opts),
      flavor_(flavor),
      params_(params),
      fe_params_(dev::tech14::fefet_at_corner(
          dev::tech14::fefet_at_temperature(
              dev::scale_fe_thickness(flavor == Flavor::kSg
                                          ? dev::sg_fefet_params()
                                          : dev::dg_fefet_params(),
                                      opts.tuning.t_fe_scale),
              opts.temperature_k),
          opts.corner)) {
  if (opts.n_bits % 2 != 0) {
    throw std::invalid_argument("1.5T1Fe word length must be even");
  }
  params_ = apply_tuning(flavor, params_, opts.tuning, fe_params_);
  tn_ = at_env(dev::tech14::nfet(params_.tn_w, params_.tn_l), opts);
  tp_ = at_env(dev::tech14::pfet(params_.tp_w, params_.tp_l), opts);
  dev::MosfetParams tml = dev::tech14::nfet(params_.tml_w, params_.tml_l);
  tml.vth0 = flavor == Flavor::kSg ? params_.tml_vth_sg : params_.tml_vth_dg;
  tml_ = at_env(tml, opts);
}

std::string OnePointFiveWord::design_name() const {
  return arch::design_name(area_design());
}

double OnePointFiveWord::cell_pitch() const {
  return arch::cell_pitch_m(area_design());
}

double OnePointFiveWord::select_voltage() const {
  return flavor_ == Flavor::kSg ? params_.v_sel_sg : params_.v_sel_dg;
}

double OnePointFiveWord::mvt_vth_target() const {
  return flavor_ == Flavor::kSg ? params_.mvt_vth_sg : params_.mvt_vth_dg;
}

double OnePointFiveWord::vm() const {
  return fe_params_.write_voltage_for_vth(mvt_vth_target());
}

std::pair<FeFet*, FeFet*> OnePointFiveWord::place_pair(
    Circuit& ckt, const PairNodes& nodes, const std::string& row, int p,
    Ternary d1, Ternary d2) const {
  auto& f1 = ckt.emplace<FeFet>("FE" + row + std::to_string(2 * p), nodes.sl,
                                nodes.bl1, nodes.slb, nodes.sela, fe_params_);
  auto& f2 = ckt.emplace<FeFet>("FE" + row + std::to_string(2 * p + 1),
                                nodes.sl, nodes.bl2, nodes.slb, nodes.selb,
                                fe_params_);
  const auto set = [&](FeFet& f, Ternary d) {
    switch (d) {
      case Ternary::kZero:
        f.set_state(FeState::kHvt, 0.0);
        break;
      case Ternary::kOne:
        f.set_state(FeState::kLvt, 0.0);
        break;
      case Ternary::kX:
        f.set_state(FeState::kMvt, mvt_vth_target());
        break;
    }
  };
  set(f1, d1);
  set(f2, d2);
  const std::string sp = row + std::to_string(p);
  ckt.emplace<Mosfet>("TN" + sp, nodes.slb, nodes.wrsl, kGround, kGround, tn_);
  ckt.emplace<Mosfet>("TP" + sp, nodes.slb, nodes.wrsl, nodes.vdd_rail,
                      nodes.vdd_rail, tp_);
  ckt.emplace<Mosfet>("TML" + sp, nodes.ml_tap, nodes.slb, kGround, kGround,
                      tml_);
  return {&f1, &f2};
}

void OnePointFiveWord::place_word_pair(int p, const PairNodes& nodes,
                                       const arch::TernaryWord& stored) {
  const auto c1 = static_cast<std::size_t>(2 * p);
  const auto [f1, f2] =
      place_pair(ckt_, nodes, {}, p, stored[c1], stored[c1 + 1]);
  fefets_[c1] = f1;
  fefets_[c1 + 1] = f2;
  slb_of_pair_[static_cast<std::size_t>(p)] = nodes.slb;
}

void OnePointFiveWord::build_search(const SearchConfig& cfg) {
  assert_unbuilt();
  const int n = opts_.n_bits;
  if (static_cast<int>(cfg.stored.size()) != n ||
      static_cast<int>(cfg.query.size()) != n) {
    throw std::invalid_argument("stored/query size must equal n_bits");
  }
  const int steps = cfg.steps == 0 ? 2 : cfg.steps;
  if (steps < 1 || steps > 2) {
    throw std::invalid_argument("1.5T1Fe search runs 1 or 2 steps");
  }
  const SearchTiming& tm = cfg.timing;
  const double vsel = select_voltage();
  const double vdd = opts_.vdd;
  const int pairs = n / 2;

  const auto ml = build_match_line(pairs, 2).taps;

  // TP pullup rail — part of the voltage-divider ("search signals") energy.
  const NodeId vdd_rail = ckt_.node("slrail");
  ckt_.emplace<VoltageSource>("VSLRAIL", vdd_rail, kGround, Waveform::dc(vdd));

  // --- Select lines --------------------------------------------------------
  // DG: row-wise SeL_a / SeL_b driving the back gates (Fig. 4a timing).
  // SG: the merged BL/SeL front-gate lines play this role per column parity.
  const LevelPlan plan_sela{{0.0, 0.0},
                            {tm.search_start(), vsel},
                            {tm.search_start() + tm.t_step, 0.0}};
  const LevelPlan plan_selb_on{{0.0, 0.0}, {tm.step2_start(), vsel}};
  const LevelPlan plan_off{{0.0, 0.0}};

  NodeId sela = kGround;
  NodeId selb = kGround;
  std::vector<NodeId> bl1_nodes(static_cast<std::size_t>(pairs));
  std::vector<NodeId> bl2_nodes(static_cast<std::size_t>(pairs));

  const double row_wire_cap =
      wire_for_pitch(opts_.wire, cell_pitch()).capacitance * n;

  if (flavor_ == Flavor::kDg) {
    sela = ckt_.node("sela");
    selb = ckt_.node("selb");
    ckt_.emplace<VoltageSource>("VSEL.a", sela, kGround,
                                levels_waveform(plan_sela, tm.t_edge));
    ckt_.emplace<VoltageSource>(
        "VSEL.b", selb, kGround,
        levels_waveform(steps == 2 ? plan_selb_on : plan_off, tm.t_edge));
    ckt_.emplace<Capacitor>("CSEL.a", sela, kGround, row_wire_cap);
    ckt_.emplace<Capacitor>("CSEL.b", selb, kGround, row_wire_cap);

    // Column BLs carry the V_b bias while searching '0' (Tab. II); grouped
    // by query bit.
    NodeId bl_q[2];
    int bl_count[2] = {0, 0};
    for (const auto qb : cfg.query) ++bl_count[qb ? 1 : 0];
    for (int b = 0; b < 2; ++b) {
      bl_q[b] = ckt_.node("bl.q" + std::to_string(b));
      const LevelPlan bias{{0.0, 0.0}, {tm.search_start(), params_.v_b}};
      ckt_.emplace<VoltageSource>(
          "VBL.q" + std::to_string(b), bl_q[b], kGround,
          levels_waveform(b == 0 ? bias : plan_off, tm.t_edge));
      if (bl_count[b] > 0) {
        ckt_.emplace<Capacitor>("CBL.q" + std::to_string(b), bl_q[b], kGround,
                                column_share() * bl_count[b]);
      }
    }
    for (int p = 0; p < pairs; ++p) {
      bl1_nodes[static_cast<std::size_t>(p)] =
          bl_q[cfg.query[static_cast<std::size_t>(2 * p)] ? 1 : 0];
      bl2_nodes[static_cast<std::size_t>(p)] =
          bl_q[cfg.query[static_cast<std::size_t>(2 * p + 1)] ? 1 : 0];
    }
  } else {
    // SG: BL/SeL merged; V_SeL pulses on cell1 columns in step 1 and cell2
    // columns in step 2, independent of the query value (Tab. III).
    const NodeId bla = ckt_.node("blsel.a");
    const NodeId blb = ckt_.node("blsel.b");
    ckt_.emplace<VoltageSource>("VSEL.a", bla, kGround,
                                levels_waveform(plan_sela, tm.t_edge));
    ckt_.emplace<VoltageSource>(
        "VSEL.b", blb, kGround,
        levels_waveform(steps == 2 ? plan_selb_on : plan_off, tm.t_edge));
    const double col_cap = column_share() * pairs;
    ckt_.emplace<Capacitor>("CSEL.a", bla, kGround, col_cap);
    ckt_.emplace<Capacitor>("CSEL.b", blb, kGround, col_cap);
    for (int p = 0; p < pairs; ++p) {
      bl1_nodes[static_cast<std::size_t>(p)] = bla;
      bl2_nodes[static_cast<std::size_t>(p)] = blb;
    }
  }

  // --- Pair lines SL and Wr/SL, grouped by (q1, q2) ------------------------
  // Searching '0' needs (VDD, VDD); searching '1' needs (0, 0) (Tab. II).
  // Wr/SL idles at VDD so TN holds SL_bar low (TML off) during precharge.
  const auto level_for = [&](bool q) { return q ? 0.0 : vdd; };
  NodeId sl_g[2][2], wrsl_g[2][2];
  int pair_count[2][2] = {{0, 0}, {0, 0}};
  for (int p = 0; p < pairs; ++p) {
    const int q1 = cfg.query[static_cast<std::size_t>(2 * p)] ? 1 : 0;
    const int q2 = cfg.query[static_cast<std::size_t>(2 * p + 1)] ? 1 : 0;
    ++pair_count[q1][q2];
  }
  for (int q1 = 0; q1 < 2; ++q1) {
    for (int q2 = 0; q2 < 2; ++q2) {
      if (pair_count[q1][q2] == 0) {
        sl_g[q1][q2] = kGround;
        wrsl_g[q1][q2] = kGround;
        continue;
      }
      const std::string tag = std::to_string(q1) + std::to_string(q2);
      sl_g[q1][q2] = ckt_.node("sl.q" + tag);
      wrsl_g[q1][q2] = ckt_.node("wrsl.q" + tag);
      LevelPlan sl_plan{{0.0, 0.0}, {tm.search_start(), level_for(q1)}};
      LevelPlan wrsl_plan{{0.0, vdd}, {tm.search_start(), level_for(q1)}};
      if (steps == 2 && q1 != q2) {
        sl_plan.push_back({tm.step2_start(), level_for(q2)});
        wrsl_plan.push_back({tm.step2_start(), level_for(q2)});
      }
      ckt_.emplace<VoltageSource>("VSL.q" + tag, sl_g[q1][q2], kGround,
                                  levels_waveform(sl_plan, tm.t_edge));
      ckt_.emplace<VoltageSource>("VWRSL.q" + tag, wrsl_g[q1][q2], kGround,
                                  levels_waveform(wrsl_plan, tm.t_edge));
      const double col_cap = column_share() * 2 * pair_count[q1][q2];
      ckt_.emplace<Capacitor>("CSL.q" + tag, sl_g[q1][q2], kGround, col_cap);
      ckt_.emplace<Capacitor>("CWRSL.q" + tag, wrsl_g[q1][q2], kGround,
                              col_cap);
    }
  }

  // --- SL_bar nodes, grouped by the full pair signature --------------------
  // Pairs with identical (stored1, q1, stored2, q2) see identical divider
  // waveforms; sharing the node keeps voltages exact while the per-pair
  // devices keep aggregate currents exact.
  std::map<std::tuple<int, int, int, int>, NodeId> slb_groups;
  fefets_.assign(static_cast<std::size_t>(n), nullptr);
  slb_of_pair_.assign(static_cast<std::size_t>(pairs), -1);
  for (int p = 0; p < pairs; ++p) {
    const int c1 = 2 * p;
    const int c2 = 2 * p + 1;
    const int q1 = cfg.query[static_cast<std::size_t>(c1)] ? 1 : 0;
    const int q2 = cfg.query[static_cast<std::size_t>(c2)] ? 1 : 0;
    const auto key = std::make_tuple(
        static_cast<int>(cfg.stored[static_cast<std::size_t>(c1)]), q1,
        static_cast<int>(cfg.stored[static_cast<std::size_t>(c2)]), q2);
    auto it = slb_groups.find(key);
    if (it == slb_groups.end()) {
      const NodeId slb =
          ckt_.node("slb.g" + std::to_string(slb_groups.size()));
      it = slb_groups.emplace(key, slb).first;
    }
    const PairNodes nodes{sl_g[q1][q2],
                          it->second,
                          wrsl_g[q1][q2],
                          bl1_nodes[static_cast<std::size_t>(p)],
                          bl2_nodes[static_cast<std::size_t>(p)],
                          sela,
                          selb,
                          vdd_rail,
                          ml[static_cast<std::size_t>(p)]};
    place_word_pair(p, nodes, cfg.stored);
  }

  program_precharge(tm);
  // Both steps' window is always simulated so 1-step (early-terminated) and
  // 2-step energies integrate over the same operation time.
  mark_built(tm.stop_after(2), 2e-12);
}

void OnePointFiveWord::build_write(const WriteConfig& cfg) {
  assert_unbuilt();
  const int n = opts_.n_bits;
  if (static_cast<int>(cfg.data.size()) != n) {
    throw std::invalid_argument("data size must equal n_bits");
  }
  arch::TernaryWord initial = cfg.initial;
  if (initial.empty()) {
    initial.assign(static_cast<std::size_t>(n), Ternary::kZero);
  }
  const WriteTiming& tm = cfg.timing;
  const double vdd = opts_.vdd;
  const double vw = fe_params_.vw();
  const int pairs = n / 2;

  const auto ml = build_match_line(pairs, 2).taps;
  // ML parked low during writes.
  pre_.gate->set_waveform(Waveform::dc(vdd));

  const NodeId vdd_rail = ckt_.node("slrail");
  ckt_.emplace<VoltageSource>("VSLRAIL", vdd_rail, kGround, Waveform::dc(vdd));

  // Wr/SL = VDD (TN grounds SL_bar), SL = 0: single shared nodes.
  const NodeId wrsl = ckt_.node("wrsl");
  const NodeId sl = ckt_.node("sl");
  ckt_.emplace<VoltageSource>("VWRSL", wrsl, kGround, Waveform::dc(vdd));
  ckt_.emplace<VoltageSource>("VSL", sl, kGround, Waveform::dc(0.0));

  // Select lines grounded during write.
  NodeId sela = kGround, selb = kGround;
  if (flavor_ == Flavor::kDg) {
    sela = ckt_.node("sela");
    selb = ckt_.node("selb");
    ckt_.emplace<VoltageSource>("VSEL.a", sela, kGround, Waveform::dc(0.0));
    ckt_.emplace<VoltageSource>("VSEL.b", selb, kGround, Waveform::dc(0.0));
  }

  // BL groups by data digit; three phases: erase all (-Vw), program '1's
  // (+Vw), program 'X's (V_m).
  const double v_mvt = vm();
  NodeId bl_d[3];
  int count[3] = {0, 0, 0};
  for (const auto d : cfg.data) ++count[static_cast<int>(d)];
  for (int d = 0; d < 3; ++d) {
    if (count[d] == 0) {
      bl_d[d] = kGround;
      continue;
    }
    bl_d[d] = ckt_.node("bl.d" + std::to_string(d));
    LevelPlan plan{{0.0, 0.0},
                   {tm.phase_start(0) + tm.t_gap, -vw},
                   {tm.phase_end(0), 0.0}};
    if (d == static_cast<int>(Ternary::kOne)) {
      plan.push_back({tm.phase_start(1) + tm.t_gap, vw});
      plan.push_back({tm.phase_end(1), 0.0});
    } else if (d == static_cast<int>(Ternary::kX)) {
      plan.push_back({tm.phase_start(2) + tm.t_gap, v_mvt});
      plan.push_back({tm.phase_end(2), 0.0});
    }
    ckt_.emplace<VoltageSource>("VBL.d" + std::to_string(d), bl_d[d], kGround,
                                levels_waveform(plan, tm.t_edge));
    ckt_.emplace<Capacitor>("CBL.d" + std::to_string(d), bl_d[d], kGround,
                            column_share() * count[d]);
  }

  // SL_bar shared per initial-state pair signature (drive is uniform).
  std::map<std::tuple<int, int>, NodeId> slb_groups;
  fefets_.assign(static_cast<std::size_t>(n), nullptr);
  slb_of_pair_.assign(static_cast<std::size_t>(pairs), -1);
  for (int p = 0; p < pairs; ++p) {
    const int c1 = 2 * p;
    const int c2 = 2 * p + 1;
    const auto key = std::make_tuple(
        static_cast<int>(initial[static_cast<std::size_t>(c1)]) * 3 +
            static_cast<int>(cfg.data[static_cast<std::size_t>(c1)]),
        static_cast<int>(initial[static_cast<std::size_t>(c2)]) * 3 +
            static_cast<int>(cfg.data[static_cast<std::size_t>(c2)]));
    auto it = slb_groups.find(key);
    if (it == slb_groups.end()) {
      const NodeId slb =
          ckt_.node("slb.g" + std::to_string(slb_groups.size()));
      it = slb_groups.emplace(key, slb).first;
    }
    const PairNodes nodes{
        sl,
        it->second,
        wrsl,
        bl_d[static_cast<int>(cfg.data[static_cast<std::size_t>(c1)])],
        bl_d[static_cast<int>(cfg.data[static_cast<std::size_t>(c2)])],
        sela,
        selb,
        vdd_rail,
        ml[static_cast<std::size_t>(p)]};
    place_word_pair(p, nodes, initial);
  }

  mark_built(tm.stop_after(3), 0.25e-9);
}

arch::TernaryWord OnePointFiveWord::read_stored() const {
  const double vth_lvt = fe_params_.vth_for(1.0);
  const double vth_hvt = fe_params_.vth_for(-1.0);
  const double vth_mvt = mvt_vth_target();
  arch::TernaryWord out;
  out.reserve(fefets_.size());
  for (const auto* f : fefets_) {
    const double vth = f->threshold_voltage();
    if (vth < 0.5 * (vth_lvt + vth_mvt)) {
      out.push_back(Ternary::kOne);
    } else if (vth > 0.5 * (vth_hvt + vth_mvt)) {
      out.push_back(Ternary::kZero);
    } else {
      out.push_back(Ternary::kX);
    }
  }
  return out;
}

}  // namespace fetcam::tcam
