#include "numeric/newton.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/sparse_lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fetcam::num {

namespace {

/// Newton/LU solver-health metrics, registered once per process.  The
/// iteration distribution feeds the "where does solve time go" analysis;
/// the factor/solve timing distributions are the evidence base for the
/// dense vs sparse crossover policy (SolverKind::kAuto).
struct NewtonMetrics {
  obs::Counter& solves;
  obs::Counter& nonconverged;
  obs::Counter& singular;
  obs::Distribution& iterations;
  obs::Distribution& factor_us;
  obs::Distribution& solve_us;

  static NewtonMetrics& dense() {
    auto& reg = obs::MetricsRegistry::instance();
    static NewtonMetrics m{
        reg.counter("newton.dense.solves"),
        reg.counter("newton.dense.nonconverged"),
        reg.counter("newton.dense.singular"),
        reg.distribution("newton.dense.iterations"),
        reg.latency("lu.dense.factor_us"),
        reg.latency("lu.dense.solve_us"),
    };
    return m;
  }

  static NewtonMetrics& sparse() {
    auto& reg = obs::MetricsRegistry::instance();
    static NewtonMetrics m{
        reg.counter("newton.sparse.solves"),
        reg.counter("newton.sparse.nonconverged"),
        reg.counter("newton.sparse.singular"),
        reg.distribution("newton.sparse.iterations"),
        reg.latency("lu.sparse.factor_us"),
        reg.latency("lu.sparse.solve_us"),
    };
    return m;
  }

  void record_result(const NewtonResult& res) {
    solves.add();
    iterations.record(static_cast<std::uint64_t>(res.iterations));
    if (res.singular) singular.add();
    if (!res.converged) nonconverged.add();
  }
};

}  // namespace

NewtonResult solve_newton(const AssembleFn& assemble, Vector& x,
                          const NewtonOptions& opts) {
  const obs::ScopedSpan span("newton.dense", "numeric");
  const bool obs_on = obs::metrics_on();
  NewtonResult res;
  const Index n = x.size();
  Matrix jac(n, n);
  Vector residual(n);
  Vector dx(n);
  LuFactorization lu;

  for (int it = 0; it < opts.max_iterations; ++it) {
    jac.set_zero();
    residual.fill(0.0);
    assemble(x, jac, residual);

    res.iterations = it + 1;
    res.residual_norm = residual.inf_norm();

    const std::uint64_t t_factor = obs_on ? obs::now_ns() : 0;
    const bool factored = lu.factor(jac);
    if (obs_on) {
      NewtonMetrics::dense().factor_us.record(obs::now_ns() - t_factor);
    }
    if (!factored) {
      res.singular = true;
      res.singular_row = lu.failed_row();
      if (obs_on) NewtonMetrics::dense().record_result(res);
      return res;
    }
    // Solve J dx = -f, reusing the dx buffer across iterations.
    for (Index i = 0; i < n; ++i) dx[i] = -residual[i];
    const std::uint64_t t_solve = obs_on ? obs::now_ns() : 0;
    lu.solve_in_place(dx);
    if (obs_on) {
      NewtonMetrics::dense().solve_us.record(obs::now_ns() - t_solve);
    }

    // Voltage limiting: clamp each component.
    for (Index i = 0; i < n; ++i) {
      dx[i] = std::clamp(dx[i], -opts.max_step, opts.max_step);
    }
    res.step_norm = dx.inf_norm();
    for (Index i = 0; i < n; ++i) x[i] += dx[i];

    bool step_ok = true;
    for (Index i = 0; i < n; ++i) {
      const double tol = opts.step_abs_tol + opts.step_rel_tol * std::abs(x[i]);
      if (std::abs(dx[i]) > tol) {
        step_ok = false;
        break;
      }
    }
    if (step_ok && res.residual_norm < opts.residual_tol) {
      res.converged = true;
      break;
    }
  }
  if (obs_on) NewtonMetrics::dense().record_result(res);
  return res;
}

NewtonResult solve_newton_sparse(const SinkAssembleFn& assemble, Vector& x,
                                 SparseNewtonWorkspace& ws,
                                 const NewtonOptions& opts) {
  const obs::ScopedSpan span("newton.sparse", "numeric");
  const bool obs_on = obs::metrics_on();
  static obs::Counter& rebuilds =
      obs::MetricsRegistry::instance().counter("newton.sparse.pattern_rebuilds");
  NewtonResult res;
  const Index n = x.size();
  ws.residual.resize(n);
  ws.rhs.resize(n);

  for (int it = 0; it < opts.max_iterations; ++it) {
    // Assembly: replay the recorded stamp sequence into the flat value
    // array when a pattern is cached; any divergence (first call, mode
    // switch, topology change) falls back to triplet assembly and rebuilds
    // the pattern + stamp-slot map.
    bool assembled = false;
    if (ws.jac.has_pattern() && ws.jac.dim() == n) {
      ws.residual.fill(0.0);
      ws.jac.begin_fill();
      StampedCscSink sink(ws.jac);
      assemble(x, sink, ws.residual);
      assembled = sink.ok() && ws.jac.end_fill();
    }
    if (!assembled) {
      rebuilds.inc();
      ws.residual.fill(0.0);
      ws.triplets.reset(n);
      TripletSink sink(ws.triplets);
      assemble(x, sink, ws.residual);
      ws.jac.build(ws.triplets);
    }

    res.iterations = it + 1;
    res.residual_norm = ws.residual.inf_norm();

    const std::uint64_t t_factor = obs_on ? obs::now_ns() : 0;
    const bool factored = ws.lu.factor(ws.jac, ws.lu_opts);
    if (obs_on) {
      NewtonMetrics::sparse().factor_us.record(obs::now_ns() - t_factor);
    }
    if (!factored) {
      res.singular = true;
      res.singular_row = ws.lu.failed_column();
      if (obs_on) NewtonMetrics::sparse().record_result(res);
      return res;
    }
    Vector& dx = ws.rhs;
    for (Index i = 0; i < n; ++i) dx[i] = -ws.residual[i];
    const std::uint64_t t_solve = obs_on ? obs::now_ns() : 0;
    ws.lu.solve(dx);
    if (obs_on) {
      NewtonMetrics::sparse().solve_us.record(obs::now_ns() - t_solve);
    }

    for (Index i = 0; i < n; ++i) {
      dx[i] = std::clamp(dx[i], -opts.max_step, opts.max_step);
    }
    res.step_norm = dx.inf_norm();
    for (Index i = 0; i < n; ++i) x[i] += dx[i];

    bool step_ok = true;
    for (Index i = 0; i < n; ++i) {
      const double tol = opts.step_abs_tol + opts.step_rel_tol * std::abs(x[i]);
      if (std::abs(dx[i]) > tol) {
        step_ok = false;
        break;
      }
    }
    if (step_ok && res.residual_norm < opts.residual_tol) {
      res.converged = true;
      break;
    }
  }
  if (obs_on) NewtonMetrics::sparse().record_result(res);
  return res;
}

NewtonResult solve_newton_sparse(const SparseAssembleFn& assemble, Vector& x,
                                 const NewtonOptions& opts) {
  // Legacy triplet-callback entry point: adapt to the sink driver by
  // stamping into a scratch accumulator and replaying it in call order
  // (preserving duplicate-summation order, hence bit-identical results).
  SparseNewtonWorkspace ws;
  TripletAccumulator scratch(x.size());
  const SinkAssembleFn adapter = [&](const Vector& xc, JacobianSink& sink,
                                     Vector& residual) {
    scratch.reset(xc.size());
    assemble(xc, scratch, residual);
    for (std::size_t k = 0; k < scratch.entries(); ++k) {
      sink.add(scratch.rows()[k], scratch.cols()[k], scratch.vals()[k]);
    }
  };
  return solve_newton_sparse(adapter, x, ws, opts);
}

}  // namespace fetcam::num
