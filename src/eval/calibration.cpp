#include "eval/calibration.hpp"

#include <array>

#include "devices/tech14.hpp"
#include "spice/op.hpp"
#include "spice/transient.hpp"

namespace fetcam::eval {

using arch::Ternary;
using dev::FeState;
using spice::Circuit;
using spice::Solution;

std::vector<DividerPoint> characterize_divider(tcam::Flavor flavor) {
  std::vector<DividerPoint> out;
  for (const Ternary s : {Ternary::kZero, Ternary::kOne, Ternary::kX}) {
    for (const int q : {0, 1}) {
      tcam::WordOptions opts;
      opts.n_bits = 2;
      tcam::SearchConfig cfg;
      cfg.stored = {s, Ternary::kX};
      cfg.query = {static_cast<std::uint8_t>(q), 0};
      cfg.steps = 1;
      tcam::OnePointFiveWord w(flavor, opts);
      w.build_search(cfg);
      spice::TransientOptions topts;
      topts.t_stop = cfg.timing.search_start() + 0.9 * cfg.timing.t_step;
      topts.dt = w.suggested_dt();
      const auto res = run_transient(w.circuit(), topts);
      DividerPoint pt;
      pt.stored = s;
      pt.query = q;
      pt.expect_match = arch::ternary_matches(s, q != 0);
      if (res.ok) {
        const auto& ckt = w.circuit();
        pt.v_slb = res.trace.voltage_at_time(ckt.node_name(w.slb_node(0)),
                                             topts.t_stop);
        pt.v_ml = res.trace.voltage_at_time(ckt.node_name(w.ml_sense_node()),
                                            topts.t_stop);
        const double half = 0.5 * opts.vdd;
        pt.correct = pt.expect_match ? pt.v_ml > half : pt.v_ml < half;
      }
      out.push_back(pt);
    }
  }
  return out;
}

Eq1Resistances extract_eq1_resistances(tcam::Flavor flavor) {
  Eq1Resistances r;
  const tcam::OnePointFiveParams p{};
  tcam::WordOptions wo;
  wo.n_bits = 2;
  tcam::OnePointFiveWord probe(flavor, wo);
  const double mvt = probe.mvt_vth_target();
  r.vdd = wo.vdd;
  r.tml_vth = flavor == tcam::Flavor::kSg ? p.tml_vth_sg : p.tml_vth_dg;

  // The nominal cards: one static divider leg per operating point.
  const dev::FeFetParams fe = flavor == tcam::Flavor::kSg
                                  ? dev::sg_fefet_params()
                                  : dev::dg_fefet_params();
  const auto leg = [&](FeState s, bool query_one) {
    Circuit ckt;
    const tcam::StaticDivider d = tcam::place_static_divider(
        ckt, flavor, p, fe, dev::tech14::nfet(p.tn_w, p.tn_l),
        dev::tech14::pfet(p.tp_w, p.tp_l), query_one, r.vdd);
    d.fe->set_state(s, mvt);
    const auto op = solve_op(ckt);
    const Solution sol(ckt, op.x);
    return std::array<double, 3>{d.fe->on_resistance(sol),
                                 d.tn->on_resistance(sol),
                                 d.tp->on_resistance(sol)};
  };
  // Search-'0' leg (FeFET in series with TN): in-situ resistances.
  const auto on = leg(FeState::kLvt, false);
  r.r_on = on[0];
  r.r_n = on[1];
  r.r_m0 = leg(FeState::kMvt, false)[0];
  r.r_off = leg(FeState::kHvt, false)[0];
  // Search-'1' leg (TP in series with FeFET): in-situ R_M and R_P.
  const auto m1 = leg(FeState::kMvt, true);
  r.r_m1 = m1[0];
  r.r_p = m1[2];
  return r;
}

}  // namespace fetcam::eval
