// Damped Newton-Raphson driver shared by the operating-point and transient
// engines.
//
// SPICE-style convergence control: per-component step clamping (voltage
// limiting) keeps the exponential device models from overflowing, and the
// dual residual/step criterion mirrors the classic abstol/reltol/vntol test.
// One iteration loop serves both linear solvers; only the linear step
// (assemble J and f, factor J, solve J dx = -f) differs between them.
#pragma once

#include <functional>

#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/stamped_csc.hpp"

namespace fetcam::num {

struct NewtonOptions {
  int max_iterations = 200;
  /// Residual (KCL current) tolerance, amperes.
  double residual_tol = 1e-9;
  /// Absolute solution-update tolerance, volts.
  double step_abs_tol = 1e-6;
  /// Relative solution-update tolerance.
  double step_rel_tol = 1e-6;
  /// Per-component clamp on the Newton update (voltage limiting), volts.
  /// Keeps exp() device models inside representable range on early iterations.
  double max_step = 0.5;
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;
  double step_norm = 0.0;
  /// Set when the Jacobian went singular; reports the offending row for
  /// floating-node diagnostics.
  bool singular = false;
  Index singular_row = -1;
};

/// Reusable solver state for repeated Newton solves: the iteration buffers
/// plus each linear solver's Jacobian and factorization.  Thread one
/// instance through a transient run, a DC sweep or an operating point's
/// continuation solves, and no Newton solve allocates its Jacobian,
/// factorization or iteration buffers again once they have grown to the
/// largest system seen.  The sparse side also keeps the recorded stamp
/// pattern and the symbolic factorization hot, so its steady-state
/// iteration is fill(0) + indexed stamp writes + a numeric-only refactor.
/// Results are bit-identical to solving each system on a fresh workspace,
/// whatever sizes or circuits the workspace saw before.  Not thread-safe:
/// one workspace per thread.
struct NewtonWorkspace {
  Vector residual;
  Vector dx;
  // Dense step: the Jacobian is stamped in place, then partial-pivot LU.
  Matrix dense_jac;
  LuFactorization dense_lu;
  // Sparse step: slot-replayed Jacobian, a triplet scratch for pattern
  // discovery, and Gilbert-Peierls LU with its cached symbolic record.
  StampedCsc sparse_jac;
  TripletAccumulator triplets{0};
  SparseLu sparse_lu;
  SparseLuOptions lu_opts;
};

/// Callback that fills `jac` and `residual` at the candidate solution `x`.
/// Both are pre-sized and zeroed by the driver; the callee only adds stamps.
/// The driver solves  jac * dx = -residual  and applies the clamped update.
using AssembleFn =
    std::function<void(const Vector& x, Matrix& jac, Vector& residual)>;

/// Run damped Newton on f(x) = 0 with the dense LU.  `x` carries the
/// initial guess in and the solution out (best iterate on failure).
NewtonResult solve_newton(const AssembleFn& assemble, Vector& x,
                          NewtonWorkspace& ws, const NewtonOptions& opts = {});

/// Sink-based sparse assembly: the callback stamps the Jacobian through a
/// JacobianSink, so the driver chooses the destination — a triplet
/// accumulator when the pattern must be (re)discovered, the slot-resolved
/// flat CSC of StampedCsc on every later iteration.
using SinkAssembleFn =
    std::function<void(const Vector& x, JacobianSink& jac, Vector& residual)>;

/// The same Newton iteration with the Gilbert-Peierls sparse LU; preferred
/// once the system grows past a few hundred unknowns.  A stamp stream that
/// diverges from the recorded pattern (mode switch, netlist change)
/// transparently rebuilds it via triplet assembly.
NewtonResult solve_newton_sparse(const SinkAssembleFn& assemble, Vector& x,
                                 NewtonWorkspace& ws,
                                 const NewtonOptions& opts = {});

}  // namespace fetcam::num
