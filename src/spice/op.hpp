// DC operating-point analysis with gmin and source-stepping continuation.
#pragma once

#include "numeric/newton.hpp"
#include "spice/circuit.hpp"

namespace fetcam::spice {

/// Which continuation strategy produced (or failed to produce) the
/// operating point.  kFailed means every enabled strategy diverged.
enum class OpStrategy { kDirect, kGmin, kSource, kFailed };

/// "direct" / "gmin" / "source" / "failed" — for reports and logs.
const char* to_string(OpStrategy s);

/// Linear-solver choice for the Newton iterations.  kAuto picks the sparse
/// Gilbert-Peierls LU once the MNA system outgrows the dense solver's sweet
/// spot (full-array simulations), dense otherwise.
enum class SolverKind { kAuto, kDense, kSparse };

/// System size at which kAuto switches to the sparse solver.
inline constexpr num::Index kSparseAutoThreshold = 300;

struct OpOptions {
  num::NewtonOptions newton;
  SolverKind solver = SolverKind::kAuto;
  /// Reuse the cached symbolic factorization / stamp-slot map across Newton
  /// iterations and continuation steps (sparse solver only).  Results are
  /// bit-identical either way; disabling forces the full symbolic+numeric
  /// factor every iteration — the A/B baseline for benchmarks.
  bool reuse_factorization = true;
  /// gmin shunt applied by nonlinear devices in the final solution.
  double gmin_floor = 1e-12;
  /// Starting gmin for continuation when the direct solve fails.
  double gmin_start = 1e-3;
  bool allow_gmin_stepping = true;
  bool allow_source_stepping = true;
  /// Steps for source ramping 0 -> 1.
  int source_steps = 20;
};

struct OpResult {
  bool converged = false;
  num::Vector x;
  int newton_iterations = 0;  ///< cumulative across continuation
  /// Which strategy produced the solution (kFailed when !converged).
  OpStrategy strategy = OpStrategy::kFailed;
};

/// Assemble the MNA Jacobian/residual for all devices at candidate `x`.
/// Shared by OP, DC sweep, and transient.  The dense overload stamps the
/// matrix directly; the triplet overload delegates to the sink overload.
/// All three add the same entries in the same order.
void assemble_system(const Circuit& ckt, const EvalContext& ctx,
                     const num::Vector& x, num::Matrix& jac,
                     num::Vector& residual);
void assemble_system(const Circuit& ckt, const EvalContext& ctx,
                     const num::Vector& x, num::TripletAccumulator& jac,
                     num::Vector& residual);
/// Sink overload: lets the sparse Newton driver choose the assembly
/// destination (triplet pattern discovery vs stamp-slot replay).
void assemble_system(const Circuit& ckt, const EvalContext& ctx,
                     const num::Vector& x, JacobianSink& jac,
                     num::Vector& residual);

/// One Newton solve with the configured solver (used by OP and transient).
/// `ws` (optional) carries the reusable sparse factorization context across
/// calls; pass the same workspace for repeated solves of one topology
/// (transient steps, sweep points, MC corners) to hit the numeric-only
/// refactor path.  Ignored by the dense solver.
num::NewtonResult solve_circuit_newton(const Circuit& ckt,
                                       const EvalContext& ctx, num::Vector& x,
                                       const num::NewtonOptions& nopts,
                                       SolverKind solver,
                                       num::SparseNewtonWorkspace* ws = nullptr);

/// Solve the DC operating point.  Finalizes the circuit.
/// `initial_guess` (if non-null and correctly sized) seeds Newton — used by
/// DC sweeps for continuation between sweep points.
/// `ws` (optional) is the reusable sparse solver workspace; all continuation
/// strategies share it, and callers running many OPs on one topology pass
/// the same workspace each time.
OpResult solve_op(Circuit& ckt, const OpOptions& opts = {},
                  const num::Vector* initial_guess = nullptr,
                  num::SparseNewtonWorkspace* ws = nullptr);

}  // namespace fetcam::spice
