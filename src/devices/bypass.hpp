// SPICE-style device bypass for the transient Newton iterations.
//
// A nonlinear device whose terminal voltages all lie within
// kBypassRelTol * max(|v|, |v0|) + kBypassAbsTol of its last real model
// evaluation (at voltages v0) stamps that evaluation's derivatives and the
// Norton-corrected current I0 + sum g * (v - v0) instead of evaluating the
// model again.  Only contexts that carry a spice::BypassTally allow it —
// run_transient's step contexts — so operating points, DC sweeps and direct
// stamp / assemble_system calls stay exact; initialize_state forgets the
// cached evaluation, so a run never depends on an earlier run on the same
// circuit.  docs/SOLVER.md, "Device bypass", has the rules.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>

namespace fetcam::dev {

inline constexpr double kBypassRelTol = 1e-3;
inline constexpr double kBypassAbsTol = 1e-6;  ///< volts

/// Terminal voltages of a device's last real model evaluation.
template <std::size_t N>
struct BypassPoint {
  bool valid = false;
  std::array<double, N> v{};

  /// True when every voltage of `now` is within the bypass tolerance of v.
  bool near(const std::array<double, N>& now) const {
    if (!valid) return false;
    for (std::size_t i = 0; i < N; ++i) {
      const double tol =
          kBypassRelTol * std::max(std::abs(now[i]), std::abs(v[i])) +
          kBypassAbsTol;
      if (!(std::abs(now[i] - v[i]) <= tol)) return false;
    }
    return true;
  }
};

}  // namespace fetcam::dev
