#include "devices/mosfet.hpp"

#include <cmath>

namespace fetcam::dev {

Mosfet::Mosfet(std::string name, spice::NodeId d, spice::NodeId g,
               spice::NodeId s, spice::NodeId b, MosfetParams params)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      params_(params),
      cgs_(params.cgs()),
      cgd_(params.cgd()),
      cgb_(params.cgb()),
      cdb_(params.cjunction()),
      csb_(params.cjunction()) {}

Mosfet::ChannelEval Mosfet::eval_channel(double vd, double vg, double vs,
                                         double vb) const {
  // Transform to NFET-like space; derivative signs cancel on the way back
  // (see the PFET mirroring note below).
  const double sign = params_.polarity == Polarity::kN ? 1.0 : -1.0;
  const double svd = sign * vd;
  const double svg = sign * vg;
  const double svs = sign * vs;
  const double svb = sign * vb;

  // Source/drain swap for reverse conduction keeps the model symmetric.
  const bool swapped = svd < svs;
  const double v_hi = swapped ? svs : svd;
  const double v_lo = swapped ? svd : svs;
  const double vds = v_hi - v_lo;
  const double vgs_eff = (svg - v_lo) + params_.gamma_b * (svb - v_lo);
  const double vov = vgs_eff - params_.vth0;

  const EkvResult r = ekv_current(params_.ekv(), vov, vds);

  // In transformed space, current of magnitude r.id flows hi -> lo.
  // Real current D -> S is sign * (hi==D ? +id : -id).
  // Derivatives w.r.t. real voltages: the two sign factors cancel, so we can
  // assemble them directly in transformed space.
  ChannelEval out;
  const double dir = swapped ? -1.0 : 1.0;  // hi->lo mapped onto D->S
  out.current = sign * dir * r.id;

  const double dI_dvhi = r.did_dvds;
  const double dI_dvlo = -r.did_dvov * (1.0 + params_.gamma_b) - r.did_dvds;
  const double dI_dvg = r.did_dvov;
  const double dI_dvb = params_.gamma_b * r.did_dvov;

  // I(D->S) in transformed coordinates = dir * id(hi, lo, g, b).
  const double dId_dsvd = dir * (swapped ? dI_dvlo : dI_dvhi);
  const double dId_dsvs = dir * (swapped ? dI_dvhi : dI_dvlo);
  const double dId_dsvg = dir * dI_dvg;
  const double dId_dsvb = dir * dI_dvb;

  // d(real I)/d(real V) = sign * dId_dsv * sign = dId_dsv.
  out.dI_dVd = dId_dsvd;
  out.dI_dVs = dId_dsvs;
  out.dI_dVg = dId_dsvg;
  out.dI_dVb = dId_dsvb;
  return out;
}

Mosfet::ChannelEval Mosfet::channel(const spice::EvalContext& ctx,
                                    const std::array<double, 4>& v) const {
  if (ctx.bypass == nullptr) return eval_channel(v[0], v[1], v[2], v[3]);
  if (last_at_.near(v)) {
    ++ctx.bypass->bypassed;
    const std::array<double, 4>& v0 = last_at_.v;
    ChannelEval ch = last_;
    ch.current += ch.dI_dVd * (v[0] - v0[0]) + ch.dI_dVg * (v[1] - v0[1]) +
                  ch.dI_dVs * (v[2] - v0[2]) + ch.dI_dVb * (v[3] - v0[3]);
    return ch;
  }
  ++ctx.bypass->evaluations;
  last_ = eval_channel(v[0], v[1], v[2], v[3]);
  last_at_ = {true, v};
  return last_;
}

void Mosfet::stamp(const spice::EvalContext& ctx, spice::Stamper& st) const {
  const ChannelEval ch =
      channel(ctx, {st.v(d_), st.v(g_), st.v(s_), st.v(b_)});
  st.add_current(d_, s_, ch.current);
  st.add_current_derivative(d_, s_, d_, ch.dI_dVd);
  st.add_current_derivative(d_, s_, g_, ch.dI_dVg);
  st.add_current_derivative(d_, s_, s_, ch.dI_dVs);
  st.add_current_derivative(d_, s_, b_, ch.dI_dVb);

  // gmin keeps high-impedance nodes (e.g. an OFF pass-gate's far side)
  // numerically anchored.
  st.add_gmin(d_, ctx.gmin);
  st.add_gmin(s_, ctx.gmin);

  cgs_.stamp(ctx, st, g_, s_);
  cgd_.stamp(ctx, st, g_, d_);
  cgb_.stamp(ctx, st, g_, b_);
  cdb_.stamp(ctx, st, d_, b_);
  csb_.stamp(ctx, st, s_, b_);
}

void Mosfet::initialize_state(const spice::EvalContext& ctx,
                              const spice::Solution& sol) {
  (void)ctx;
  last_at_.valid = false;
  cgs_.initialize(sol, g_, s_);
  cgd_.initialize(sol, g_, d_);
  cgb_.initialize(sol, g_, b_);
  cdb_.initialize(sol, d_, b_);
  csb_.initialize(sol, s_, b_);
}

void Mosfet::commit_step(const spice::EvalContext& ctx,
                         const spice::Solution& sol) {
  cgs_.commit(ctx, sol, g_, s_);
  cgd_.commit(ctx, sol, g_, d_);
  cgb_.commit(ctx, sol, g_, b_);
  cdb_.commit(ctx, sol, d_, b_);
  csb_.commit(ctx, sol, s_, b_);
}

double Mosfet::drain_current(const spice::Solution& sol) const {
  return eval_channel(sol.v(d_), sol.v(g_), sol.v(s_), sol.v(b_)).current;
}

double Mosfet::on_resistance(const spice::Solution& sol) const {
  const double vds = sol.v(d_) - sol.v(s_);
  const double id = drain_current(sol);
  const double i_floor = 1e-15;
  return std::abs(vds) / std::max(std::abs(id), i_floor);
}

}  // namespace fetcam::dev
