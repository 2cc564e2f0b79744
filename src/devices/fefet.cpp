#include "devices/fefet.hpp"

#include "devices/tech14.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace fetcam::dev {

double FeFetParams::write_voltage_for_vth(double vth_target) const {
  const double p_norm = (mos.vth0 - vth_target) / (mw_fg / 2.0);
  if (p_norm <= -1.0 || p_norm >= 1.0) {
    // Saturated states: full write voltage.
    return p_norm > 0.0 ? fe.vw() : -fe.vw();
  }
  // Quasi-static programming from the erased (P = -Ps) state lands on the
  // ascending branch: p = Ps tanh((v - Vc)/Vslope)  =>  invert.
  return fe.vc + fe.vslope * std::atanh(p_norm);
}

FeFet::FeFet(std::string name, spice::NodeId d, spice::NodeId fg,
             spice::NodeId s, spice::NodeId bg, FeFetParams params)
    : Device(std::move(name)),
      d_(d),
      fg_(fg),
      s_(s),
      bg_(bg),
      params_(params),
      cfg_s_(0.5 * params.mos.cgate() + params.mos.cov_per_w * params.mos.w),
      cfg_d_(0.5 * params.mos.cgate() + params.mos.cov_per_w * params.mos.w),
      cbg_s_(params.c_bg_factor * params.mos.cgate()),
      cdb_(params.mos.cjunction()),
      csb_(params.cj_source_per_w * params.mos.w) {}

void FeFet::set_state(FeState s, double mvt_vth_target) {
  switch (s) {
    case FeState::kHvt:
      p_ = -params_.fe.ps;
      break;
    case FeState::kLvt:
      p_ = params_.fe.ps;
      break;
    case FeState::kMvt: {
      const double p_norm =
          (params_.mos.vth0 - mvt_vth_target) / (params_.mw_fg / 2.0);
      if (p_norm < -1.0 || p_norm > 1.0) {
        throw std::invalid_argument("MVT target outside the memory window");
      }
      p_ = p_norm * params_.fe.ps;
      break;
    }
  }
}

void FeFet::set_polarization(double p) { p_ = p; }

FeFet::ChannelEval FeFet::eval_channel(double vd, double vfg, double vs,
                                       double vbg) const {
  // FeFETs are n-channel; reverse conduction handled by terminal swap.
  const bool swapped = vd < vs;
  const double v_hi = swapped ? vs : vd;
  const double v_lo = swapped ? vd : vs;
  const double vds = v_hi - v_lo;
  const double k = params_.back_coupling;
  const double vgs_eff = (vfg - v_lo) + k * (vbg - v_lo);
  const double vth = params_.vth_for(p_ / params_.fe.ps);
  const double vov = vgs_eff - vth;

  const EkvResult r = ekv_current(params_.mos.ekv(), vov, vds);

  ChannelEval out;
  const double dir = swapped ? -1.0 : 1.0;
  out.current = dir * r.id;

  const double dI_dvhi = r.did_dvds;
  const double dI_dvlo = -r.did_dvov * (1.0 + k) - r.did_dvds;
  out.dI_dVd = dir * (swapped ? dI_dvlo : dI_dvhi);
  out.dI_dVs = dir * (swapped ? dI_dvhi : dI_dvlo);
  out.dI_dVfg = dir * r.did_dvov;
  out.dI_dVbg = dir * k * r.did_dvov;
  return out;
}

FeFet::Eval FeFet::evaluate(const spice::EvalContext& ctx,
                            const std::array<double, 4>& v) const {
  if (ctx.bypass != nullptr && last_at_.near(v) && p_ == last_p_ &&
      ctx.dt == last_dt_) {
    ++ctx.bypass->bypassed;
    const std::array<double, 4>& v0 = last_at_.v;
    Eval e = last_;
    e.ch.current += e.ch.dI_dVd * (v[0] - v0[0]) +
                    e.ch.dI_dVfg * (v[1] - v0[1]) +
                    e.ch.dI_dVs * (v[2] - v0[2]) +
                    e.ch.dI_dVbg * (v[3] - v0[3]);
    e.i_sw += e.di_dvfe * (fe_drive_voltage(v[1], v[0], v[2]) -
                           fe_drive_voltage(v0[1], v0[0], v0[2]));
    return e;
  }
  Eval e;
  e.ch = eval_channel(v[0], v[1], v[2], v[3]);
  // Polarization switching current, from the committed polarization as
  // the step's starting state so every Newton iteration sees a consistent
  // history.
  if (ctx.mode == spice::AnalysisMode::kTransient && ctx.dt > 0.0) {
    const double v_fe = fe_drive_voltage(v[1], v[0], v[2]);
    const PolarizationStep psr =
        advance_polarization(params_.fe, p_, v_fe, ctx.dt);
    const double a = params_.fe.area;
    e.i_sw = a * (psr.p_end - p_) / ctx.dt;
    e.di_dvfe = a * psr.dp_dv / ctx.dt;
  }
  if (ctx.bypass != nullptr) {
    ++ctx.bypass->evaluations;
    last_ = e;
    last_at_ = {true, v};
    last_p_ = p_;
    last_dt_ = ctx.dt;
  }
  return e;
}

void FeFet::stamp(const spice::EvalContext& ctx, spice::Stamper& st) const {
  const Eval e = evaluate(ctx, {st.v(d_), st.v(fg_), st.v(s_), st.v(bg_)});
  const ChannelEval& ch = e.ch;
  st.add_current(d_, s_, ch.current);
  st.add_current_derivative(d_, s_, d_, ch.dI_dVd);
  st.add_current_derivative(d_, s_, fg_, ch.dI_dVfg);
  st.add_current_derivative(d_, s_, s_, ch.dI_dVs);
  st.add_current_derivative(d_, s_, bg_, ch.dI_dVbg);
  st.stamp_conductance(d_, s_, params_.g_leak);
  st.add_gmin(d_, ctx.gmin);
  st.add_gmin(s_, ctx.gmin);

  // Polarization switching current through the FG, split to both channel
  // ends.
  if (ctx.mode == spice::AnalysisMode::kTransient && ctx.dt > 0.0) {
    const double i_sw = e.i_sw;
    const double di_dvfe = e.di_dvfe;
    st.add_current(fg_, d_, 0.5 * i_sw);
    st.add_current(fg_, s_, 0.5 * i_sw);
    // d v_fe / d vfg = 1, / d vd = -0.5, / d vs = -0.5.
    st.add_current_derivative(fg_, d_, fg_, 0.5 * di_dvfe);
    st.add_current_derivative(fg_, d_, d_, -0.25 * di_dvfe);
    st.add_current_derivative(fg_, d_, s_, -0.25 * di_dvfe);
    st.add_current_derivative(fg_, s_, fg_, 0.5 * di_dvfe);
    st.add_current_derivative(fg_, s_, d_, -0.25 * di_dvfe);
    st.add_current_derivative(fg_, s_, s_, -0.25 * di_dvfe);
  }

  cfg_s_.stamp(ctx, st, fg_, s_);
  cfg_d_.stamp(ctx, st, fg_, d_);
  cbg_s_.stamp(ctx, st, bg_, s_);
  cdb_.stamp(ctx, st, d_, bg_);
  csb_.stamp(ctx, st, s_, bg_);
}

void FeFet::initialize_state(const spice::EvalContext& ctx,
                             const spice::Solution& sol) {
  (void)ctx;
  last_at_.valid = false;
  cfg_s_.initialize(sol, fg_, s_);
  cfg_d_.initialize(sol, fg_, d_);
  cbg_s_.initialize(sol, bg_, s_);
  cdb_.initialize(sol, d_, bg_);
  csb_.initialize(sol, s_, bg_);
  // Polarization is non-volatile: deliberately NOT reset here.
}

double FeFet::next_polarization(const spice::EvalContext& ctx,
                                const spice::Solution& sol) const {
  const double v_fe =
      fe_drive_voltage(sol.v(fg_), sol.v(d_), sol.v(s_));
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  if (next_.valid && same(next_.p, p_) && same(next_.v_fe, v_fe) &&
      same(next_.dt, ctx.dt)) {
    return next_.p_end;
  }
  next_ = {true, p_, v_fe, ctx.dt,
           advance_polarization(params_.fe, p_, v_fe, ctx.dt).p_end};
  return next_.p_end;
}

void FeFet::commit_step(const spice::EvalContext& ctx,
                        const spice::Solution& sol) {
  p_ = next_polarization(ctx, sol);
  cfg_s_.commit(ctx, sol, fg_, s_);
  cfg_d_.commit(ctx, sol, fg_, d_);
  cbg_s_.commit(ctx, sol, bg_, s_);
  cdb_.commit(ctx, sol, d_, bg_);
  csb_.commit(ctx, sol, s_, bg_);
}

double FeFet::state_change(const spice::EvalContext& ctx,
                           const spice::Solution& sol) const {
  return std::abs(next_polarization(ctx, sol) - p_) / params_.fe.ps;
}

double FeFet::drain_current(const spice::Solution& sol) const {
  const double vds = sol.v(d_) - sol.v(s_);
  return eval_channel(sol.v(d_), sol.v(fg_), sol.v(s_), sol.v(bg_)).current +
         params_.g_leak * vds;
}

double FeFet::on_resistance(const spice::Solution& sol) const {
  const double vds = sol.v(d_) - sol.v(s_);
  const double id = drain_current(sol);
  return std::abs(vds) / std::max(std::abs(id), 1e-15);
}

FeFetParams sg_fefet_params() {
  FeFetParams p;
  p.mos = tech14::nfet();
  // MVT midpoint; LVT = 0.28, HVT = 2.08.  The LVT level balances the
  // 1.5T1Fe divider constraints: low enough that a selected LVT cell pulls
  // SL_bar above the TML threshold against TN, high enough that unselected
  // LVT cells (FG at 0) stay several decades off.
  p.mos.vth0 = 1.18;
  // FeFET source/drain junctions are heavier than logic-NFET ones (thicker
  // gate stack, larger S/D): the "large devices" whose drain load the paper
  // contrasts with the 1.5T1Fe's single small TML on the match line.
  p.mos.cj_per_w = 2e-9;
  p.fe.ps = 0.20;
  p.fe.vc = 3.2;       // Vw = 1.25 * Vc = 4.0 V
  p.fe.vslope = 0.267;
  p.fe.area = p.mos.w * p.mos.l;
  p.fe.t_fe = 10e-9;
  p.mw_fg = 1.8;
  p.back_coupling = 0.15;  // plain FDSOI body
  p.double_gate = false;
  p.c_bg_factor = 0.5;
  return p;
}

FeFetParams dg_fefet_params() {
  FeFetParams p;
  p.mos = tech14::nfet();
  // MVT midpoint; LVT = 0.35, HVT = 1.25 (FG-referred).  Chosen so the
  // BG select drive (V_SeL/3 = 0.667 V FG-equivalent) satisfies the
  // 1.5T1Fe divider window at the co-optimized V_SeL = V_w = 2.0 V.
  p.mos.vth0 = 0.80;
  p.mos.cj_per_w = 8e-9;  // heavier than SG: the drain junction sits in the isolated P-well
  p.fe.ps = 0.20;
  p.fe.vc = 1.6;       // Vw = 2.0 V (co-optimized with V_SeL = 2.0 V)
  p.fe.vslope = 0.133;
  p.fe.area = p.mos.w * p.mos.l;
  p.fe.t_fe = 5e-9;
  p.mw_fg = 0.9;           // BG read window = 2.7 V
  p.back_coupling = 1.0 / 3.0;
  p.double_gate = true;
  p.c_bg_factor = 0.5;
  return p;
}

FeFetParams scale_fe_thickness(FeFetParams card, double scale) {
  if (scale == 1.0) return card;
  card.fe.t_fe *= scale;
  card.fe.vc *= scale;      // constant coercive field E_c
  card.mw_fg *= scale;      // dVth = P t_FE / eps_FE
  return card;
}

}  // namespace fetcam::dev
