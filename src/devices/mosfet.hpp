// Four-terminal MOSFET (D, G, S, B) built on the EKV core, with linear
// gate/overlap/junction capacitances as internal companion models.
//
// The model targets 14 nm FDSOI behaviour at the fidelity the paper's TCAM
// analysis consumes: smooth subthreshold-to-saturation I-V, realistic SS and
// on/off ratio, body coupling (used as the FDSOI back-bias terminal), and
// terminal capacitances that load the match line.
#pragma once

#include <array>

#include "devices/bypass.hpp"
#include "devices/cap_companion.hpp"
#include "devices/ekv_core.hpp"
#include "spice/circuit.hpp"

namespace fetcam::dev {

enum class Polarity { kN, kP };

struct MosfetParams {
  Polarity polarity = Polarity::kN;
  double w = 50e-9;  ///< channel width, m
  double l = 20e-9;  ///< channel length, m
  double vth0 = 0.30;  ///< |threshold|, V
  double n = 1.15;     ///< slope factor
  double u0 = 0.020;   ///< low-field mobility, m^2/Vs
  double cox = 0.0345; ///< gate capacitance density, F/m^2
  double lambda = 0.05;
  double theta = 1.2;
  double gamma_b = 0.15;     ///< back-bias (body) coupling to the channel
  double cov_per_w = 3e-10;  ///< G-S/G-D overlap cap per width, F/m
  double cj_per_w = 5e-10;   ///< junction cap per width, F/m

  double ut = 0.02585;

  double specific_current() const {
    return 2.0 * n * u0 * cox * (w / l) * ut * ut;
  }
  EkvParams ekv() const {
    return {.is = specific_current(), .n = n, .ut = ut, .lambda = lambda,
            .theta = theta};
  }
  double cgate() const { return cox * w * l; }
  /// Source side carries the channel charge (saturation-weighted split).
  double cgs() const { return 0.5 * cgate() + cov_per_w * w; }
  /// Drain side is overlap/fringe only: in saturation the channel charge
  /// detaches from the drain, and modeling half the oxide capacitance there
  /// would grossly exaggerate Miller coupling from gate edges into
  /// high-impedance drains (e.g. the Wr/SL -> SL_bar kick through the
  /// long-channel TP/TN of the 1.5T1Fe pair).
  double cgd() const { return cov_per_w * w; }
  double cgb() const { return 0.3 * cgate(); }
  double cjunction() const { return cj_per_w * w; }
};

class Mosfet : public spice::Device {
 public:
  Mosfet(std::string name, spice::NodeId d, spice::NodeId g, spice::NodeId s,
         spice::NodeId b, MosfetParams params);

  std::string_view kind() const override { return "mosfet"; }
  void stamp(const spice::EvalContext& ctx, spice::Stamper& st) const override;
  void initialize_state(const spice::EvalContext& ctx,
                        const spice::Solution& sol) override;
  void commit_step(const spice::EvalContext& ctx,
                   const spice::Solution& sol) override;
  std::vector<spice::NodeId> terminals() const override {
    return {d_, g_, s_, b_};
  }

  const MosfetParams& params() const { return params_; }

  /// Channel current D -> S at the given solution (amperes, signed).
  double drain_current(const spice::Solution& sol) const;

  /// Effective small-signal on-resistance at the given bias (V/I with a
  /// floor to avoid division blow-ups at zero current).
  double on_resistance(const spice::Solution& sol) const;

 private:
  struct ChannelEval {
    double current = 0.0;  // D -> S
    double dI_dVd = 0.0, dI_dVg = 0.0, dI_dVs = 0.0, dI_dVb = 0.0;
  };
  ChannelEval eval_channel(double vd, double vg, double vs, double vb) const;
  /// eval_channel at the stamp's (d, g, s, b) voltages, or its bypass when
  /// the context allows one (devices/bypass.hpp).
  ChannelEval channel(const spice::EvalContext& ctx,
                      const std::array<double, 4>& v) const;

  spice::NodeId d_, g_, s_, b_;
  MosfetParams params_;
  CapCompanion cgs_, cgd_, cgb_, cdb_, csb_;
  // Last real evaluation in a bypass-enabled context.
  mutable BypassPoint<4> last_at_;
  mutable ChannelEval last_;
};

}  // namespace fetcam::dev
