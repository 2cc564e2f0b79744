#include "eval/trim.hpp"

#include <algorithm>
#include <cmath>

#include "eval/variability_detail.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fetcam::eval {

using arch::Ternary;

TrimResult trim_mvt(const dev::FeFetParams& device, double vth_target,
                    const TrimParams& params) {
  TrimResult res;
  // The controller only knows the NOMINAL process card; everything
  // device-specific it must learn through verify reads.
  const dev::FeFetParams base = device.double_gate ? dev::dg_fefet_params()
                                                   : dev::sg_fefet_params();
  if (params.window_relative) {
    // Characterization reads: program/erase fully and measure the device's
    // own window edges (these reads are exact in the model; silicon would
    // use the same full-write + constant-current read).
    const double lvt_meas = device.vth_for(1.0);
    const double hvt_meas = device.vth_for(-1.0);
    const double frac =
        (base.vth_for(-1.0) - vth_target) / (base.vth_for(-1.0) -
                                             base.vth_for(1.0));
    vth_target = hvt_meas - frac * (hvt_meas - lvt_meas);
  }

  double vm = base.write_voltage_for_vth(vth_target);
  double pol = -device.fe.ps;
  for (int pulse = 0; pulse < params.max_pulses; ++pulse) {
    ++res.pulses;
    // Erase, then program at the trial voltage (the ascending branch makes
    // each trial deterministic and history-free).
    pol = -device.fe.ps;
    pol = dev::advance_polarization(device.fe, pol, vm, params.pulse_width)
              .p_end;
    // Verify read: the achieved threshold on the REAL device.
    res.final_vth = device.vth_for(pol / device.fe.ps);
    res.final_vm = vm;
    const double error = res.final_vth - vth_target;
    if (std::abs(error) <= params.vth_tolerance) {
      res.converged = true;
      return res;
    }
    // Positive error = threshold too high = not enough polarization =
    // raise the write voltage.
    vm += params.gain * error;
    // Keep the trial inside the physically sane range.
    vm = std::clamp(vm, 0.5 * device.fe.vc, device.fe.vw());
  }
  return res;
}

VariabilityReport analyze_variability_trimmed(tcam::Flavor flavor,
                                              const VariabilityParams& vp,
                                              const TrimParams& trim) {
  const tcam::OnePointFiveParams p{};
  const double vdd = 0.8;
  const double mvt_target =
      flavor == tcam::Flavor::kSg ? p.mvt_vth_sg : p.mvt_vth_dg;
  const auto& corners = detail::corner_table();

  // Trial s draws from the SAME (seed, s) stream as the open-loop
  // analysis, so both studies see identical sampled devices and their
  // yields are comparable device-by-device (see variability_detail.hpp).
  const auto trials = util::parallel_map<detail::TrialMargins>(
      static_cast<std::size_t>(std::max(vp.samples, 0)),
      [&](std::size_t s) {
        const obs::ScopedSpan span("eval.trim_trial", "eval");
        std::mt19937 rng = util::trial_rng(vp.seed, s);
        const auto cell = detail::sample_cell(flavor, p, vp, rng);
        // Closed-loop X placement for this device.
        const auto trimmed = trim_mvt(cell.fe, mvt_target, trim);
        const double pol_x =
            (cell.fe.mos.vth0 - trimmed.final_vth) / (cell.fe.mw_fg / 2.0) *
            cell.fe.fe.ps;
        detail::TrialMargins margins;
        for (std::size_t c = 0; c < corners.size(); ++c) {
          double pol = 0.0;
          switch (corners[c].stored) {
            case Ternary::kZero:
              pol = -cell.fe.fe.ps;
              break;
            case Ternary::kOne:
              pol = cell.fe.fe.ps;
              break;
            case Ternary::kX:
              pol = pol_x;
              break;
          }
          const auto solve = detail::divider_slb_at_polarization(
              flavor, p, cell, pol, corners[c].query != 0, vdd);
          margins.strategy[c] = solve.strategy;
          margins.margin[c] = std::isnan(solve.v_slb)
                                  ? solve.v_slb
                                  : detail::corner_margin(corners[c],
                                                          solve.v_slb,
                                                          cell.tml.vth0,
                                                          vp.decision_margin);
        }
        return margins;
      });
  return detail::reduce_margins(vp, trials);
}

}  // namespace fetcam::eval
