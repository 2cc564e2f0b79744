// Internals shared between the Monte-Carlo variability analysis and the
// program-and-verify trimming study.
//
// RNG stream layout (see util/rng.hpp): trial s of a run seeded with
// `vp.seed` draws from util::trial_rng(vp.seed, s, /*stream=*/0), and
// sample_cell consumes exactly the Gaussian sequence
//   vth_fe, ps_rel, vc_rel, tn_vth, tp_vth, tml_vth
// from it.  Consequences the tests rely on:
//   * trial s sees the same device regardless of thread count, chunking,
//     or execution order — reports are bit-identical for any schedule;
//   * the open-loop and trimmed analyses sample IDENTICAL devices for
//     the same (seed, trial), so their yields are directly comparable
//     sample-by-sample, not just in distribution.
#pragma once

#include <array>
#include <cstddef>
#include <random>
#include <vector>

#include "devices/fefet.hpp"
#include "devices/mosfet.hpp"
#include "eval/variability.hpp"
#include "spice/op.hpp"

namespace fetcam::eval::detail {

/// One sampled instance of the divider devices.
struct SampledCell {
  dev::FeFetParams fe;
  dev::MosfetParams tn, tp, tml;
};

SampledCell sample_cell(tcam::Flavor flavor,
                        const tcam::OnePointFiveParams& p,
                        const VariabilityParams& vp, std::mt19937& rng);

/// Same draw sequence around an explicit base FeFET card (DSE-tuned
/// designs).  The flavour-card overload above is exactly this with the
/// nominal sg/dg card, so (seed, trial) pairs stay comparable.
SampledCell sample_cell(tcam::Flavor flavor,
                        const tcam::OnePointFiveParams& p,
                        const dev::FeFetParams& base_fe,
                        const VariabilityParams& vp, std::mt19937& rng);

/// Result of one divider operating-point solve: V(SL_bar) (NaN when the
/// solver diverged) plus which continuation strategy produced it — the
/// per-trial attribution that flows into CornerYield.
struct DividerSolve {
  double v_slb = 0.0;
  spice::OpStrategy strategy = spice::OpStrategy::kFailed;
};

/// Solve the static divider leg for one corner with an explicit
/// polarization (C/m^2) for the FeFET.
DividerSolve divider_slb_at_polarization(tcam::Flavor flavor,
                                         const tcam::OnePointFiveParams& p,
                                         const SampledCell& cell,
                                         double polarization, bool query_one,
                                         double vdd);

/// The six stored x query corners, in report order.
struct Corner {
  arch::Ternary stored;
  int query;
  bool expect_match;
};
inline constexpr std::size_t kNumCorners = 6;
const std::array<Corner, kNumCorners>& corner_table();

/// Signed sense margin for one corner: positive = decided correctly with
/// margin beyond the TML threshold guard band.
double corner_margin(const Corner& corner, double v_slb, double tml_vth,
                     double decision_margin);

/// Per-trial corner margins (NaN marks a non-converged divider solve) plus
/// the solver strategy that produced each corner's operating point.
struct TrialMargins {
  std::array<double, kNumCorners> margin{};
  std::array<spice::OpStrategy, kNumCorners> strategy{};

  double& operator[](std::size_t c) { return margin[c]; }
  double operator[](std::size_t c) const { return margin[c]; }
};

/// Ordered reduction of per-trial margins into the report: tallies are
/// accumulated strictly in trial order (trial 0, 1, 2, ...), so the
/// floating-point sums are bit-identical however the trials were
/// computed.  `trials.size()` must equal vp.samples.
VariabilityReport reduce_margins(const VariabilityParams& vp,
                                 const std::vector<TrialMargins>& trials);

}  // namespace fetcam::eval::detail
