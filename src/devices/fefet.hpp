// FeFET compact model: EKV channel + Preisach ferroelectric gate stack.
//
// One class covers both device flavours of the paper:
//
//  * SG-FeFET — 10 nm ferroelectric on the front gate, written and read from
//    the FG (+/-4 V write, MW = 1.8 V).  The 4th terminal is the FDSOI body
//    with weak coupling (back_coupling ~ 0.15).
//  * DG-FeFET — 5 nm ferroelectric on the front gate, written from the FG
//    (+/-2 V) and read from the dedicated back gate.  back_coupling = 1/3:
//    the BG is a 3x weaker gate, which simultaneously *amplifies* the memory
//    window seen from the BG (0.9 V -> 2.7 V) and *degrades* the BG
//    subthreshold slope by 3x — the device trade-off at the heart of the
//    paper (Fig. 1d and the 2DG-FeFET TCAM latency penalty).
//
// Channel drive: Vg_eff = (V_FG - V_src) + back_coupling * (V_BG - V_src).
// Threshold: Vth_eff = vth_mid - (P / Ps) * (mw_fg / 2); polarization P
// evolves per the Preisach model under the FG-to-channel voltage, so write
// pulses, partial (MVT) writes, and read disturb all emerge from the
// transient simulation rather than from scripted state changes.
#pragma once

#include "devices/bypass.hpp"
#include "devices/cap_companion.hpp"
#include "devices/ekv_core.hpp"
#include "devices/mosfet.hpp"
#include "devices/preisach.hpp"

namespace fetcam::dev {

struct FeFetParams {
  MosfetParams mos;        ///< channel card; mos.vth0 is the MVT midpoint
  FerroParams fe;
  double mw_fg = 0.9;      ///< full Vth window seen from the FG, volts
  double back_coupling = 1.0 / 3.0;  ///< 4th-terminal gate strength
  bool double_gate = true;           ///< reporting flag (SG vs DG)
  double c_bg_factor = 1.0;  ///< BG capacitance relative to the FG stack cap
  /// Gate-independent channel leakage (junction/GIDL floor), siemens.  This
  /// floor — not the subthreshold current — sets the ~1e4 ON/OFF ratio the
  /// paper quotes for the DG back-gate read (Fig. 1d).
  double g_leak = 1e-9;
  /// Source-side junction capacitance per width, F/m.  Asymmetric from the
  /// drain (mos.cj_per_w): the drain lands on a long metal line (large
  /// junction + via stack), while the source is a small shared diffusion.
  /// In the 1.5T1Fe cell the source junction couples the SeL well edge into
  /// SL_bar, so keeping it small is part of the cell design.
  double cj_source_per_w = 5e-10;

  /// Memory window seen from the 4th terminal (BG read for DG devices).
  double mw_bg() const { return mw_fg / back_coupling; }
  /// Nominal full write voltage.
  double vw() const { return fe.vw(); }
  /// Threshold (FG-referred) for a given normalized polarization in [-1, 1].
  double vth_for(double p_norm) const {
    return mos.vth0 - p_norm * mw_fg / 2.0;
  }
  /// Write voltage that programs (quasi-statically, from the erased state)
  /// the polarization needed for an FG-referred target threshold.
  double write_voltage_for_vth(double vth_target) const;
};

/// Ternary memory states of one FeFET as used by the TCAM designs.
enum class FeState {
  kHvt,  ///< erased, P = -Ps ('0' in 1.5T1Fe encoding)
  kMvt,  ///< partially polarized ('X')
  kLvt,  ///< programmed, P = +Ps ('1')
};

class FeFet : public spice::Device {
 public:
  /// Terminals: drain, front gate, source, back gate.
  FeFet(std::string name, spice::NodeId d, spice::NodeId fg, spice::NodeId s,
        spice::NodeId bg, FeFetParams params);

  std::string_view kind() const override { return "fefet"; }
  void stamp(const spice::EvalContext& ctx, spice::Stamper& st) const override;
  void initialize_state(const spice::EvalContext& ctx,
                        const spice::Solution& sol) override;
  void commit_step(const spice::EvalContext& ctx,
                   const spice::Solution& sol) override;
  /// |dP| / Ps over the trial step.
  double state_change(const spice::EvalContext& ctx,
                      const spice::Solution& sol) const override;
  std::vector<spice::NodeId> terminals() const override {
    return {d_, fg_, s_, bg_};
  }

  const FeFetParams& params() const { return params_; }

  /// Polarization, C/m^2.
  double polarization() const { return p_; }
  /// Polarization normalized to [-1, 1].
  double normalized_polarization() const { return p_ / params_.fe.ps; }
  /// Current FG-referred threshold voltage.
  double threshold_voltage() const {
    return params_.vth_for(normalized_polarization());
  }

  /// Directly set the stored state (bypasses the write transient) — used to
  /// initialize arrays quickly; the write path itself is exercised by the
  /// write-controller simulations and tests.
  void set_state(FeState s, double mvt_vth_target);
  void set_polarization(double p);

  /// Channel current D -> S at the given solution, amperes.
  double drain_current(const spice::Solution& sol) const;
  double on_resistance(const spice::Solution& sol) const;

 private:
  struct ChannelEval {
    double current = 0.0;
    double dI_dVd = 0.0, dI_dVfg = 0.0, dI_dVs = 0.0, dI_dVbg = 0.0;
  };
  ChannelEval eval_channel(double vd, double vfg, double vs, double vbg) const;
  double fe_drive_voltage(double vfg, double vd, double vs) const {
    return vfg - 0.5 * (vd + vs);
  }
  /// Everything stamp() takes from the models: the channel and, in a
  /// transient step, the polarization switching current through the FG
  /// with its derivative along the FE drive voltage.
  struct Eval {
    ChannelEval ch;
    double i_sw = 0.0, di_dvfe = 0.0;
  };
  /// The models at the stamp's (d, fg, s, bg) voltages, or their bypass
  /// when the context allows one and p_ and dt are those of the cached
  /// evaluation (devices/bypass.hpp).
  Eval evaluate(const spice::EvalContext& ctx,
                const std::array<double, 4>& v) const;
  /// Polarization after the step ending at `sol` (commit_step's update).
  /// state_change computes it for every trial step and commit_step again
  /// for the accepted one, so the last result is kept with its inputs and
  /// reused when all three match bit for bit.
  double next_polarization(const spice::EvalContext& ctx,
                           const spice::Solution& sol) const;

  spice::NodeId d_, fg_, s_, bg_;
  FeFetParams params_;
  double p_ = 0.0;  ///< committed polarization, C/m^2
  CapCompanion cfg_s_, cfg_d_, cbg_s_, cdb_, csb_;
  // Last real evaluation in a bypass-enabled context, with the p_ and dt
  // it used.
  mutable BypassPoint<4> last_at_;
  mutable double last_p_ = 0.0, last_dt_ = 0.0;
  mutable Eval last_;
  // Last next_polarization() result and the p_, drive voltage and dt it
  // used.
  struct NextPolarization {
    bool valid = false;
    double p = 0.0, v_fe = 0.0, dt = 0.0;
    double p_end = 0.0;
  };
  mutable NextPolarization next_;
};

/// Thickness-scaled card: t_FE, the coercive voltage (E_c t_FE constant
/// field) and the FG memory window (P t_FE / eps charge sheet) scale
/// linearly with `scale` to first order; channel card, Ps, and switching
/// dynamics are unchanged.  scale = 1 returns the card bit-identical.
FeFetParams scale_fe_thickness(FeFetParams card, double scale);

/// SG-FeFET card: 10 nm FE, +/-4 V write, MW 1.8 V, FG read.
FeFetParams sg_fefet_params();
/// DG-FeFET card: 5 nm FE, +/-2 V write, MW(FG) 0.9 V, MW(BG) 2.7 V.
FeFetParams dg_fefet_params();

}  // namespace fetcam::dev
