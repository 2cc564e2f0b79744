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

/// Dense linear step: stamps straight into the workspace matrix, which
/// holds the last factored Jacobian; after a structural replay only that
/// structure's entries need zeroing.
struct DenseStep {
  const AssembleFn& assemble_fn;
  NewtonWorkspace& ws;

  void assemble(const Vector& x) {
    ws.dense_lu.zero_factored(ws.dense_jac);
    ws.residual.fill(0.0);
    assemble_fn(x, ws.dense_jac, ws.residual);
  }
  bool factor() { return ws.dense_lu.factor(ws.dense_jac); }
  Index failed_row() const { return ws.dense_lu.failed_row(); }
  void solve(Vector& dx) const { ws.dense_lu.solve_in_place(dx); }
};

/// Sparse linear step: replays the recorded stamp sequence into the flat
/// value array when a pattern is cached; any divergence (first call, mode
/// switch, topology change) falls back to triplet assembly and rebuilds
/// the pattern + stamp-slot map.
struct SparseStep {
  const SinkAssembleFn& assemble_fn;
  NewtonWorkspace& ws;

  void assemble(const Vector& x) {
    static obs::Counter& rebuilds = obs::MetricsRegistry::instance().counter(
        "newton.sparse.pattern_rebuilds");
    const Index n = x.size();
    if (ws.sparse_jac.has_pattern() && ws.sparse_jac.dim() == n) {
      ws.residual.fill(0.0);
      ws.sparse_jac.begin_fill();
      StampedCscSink sink(ws.sparse_jac);
      assemble_fn(x, sink, ws.residual);
      if (sink.ok() && ws.sparse_jac.end_fill()) return;
    }
    rebuilds.inc();
    ws.residual.fill(0.0);
    ws.triplets.reset(n);
    TripletSink sink(ws.triplets);
    assemble_fn(x, sink, ws.residual);
    ws.sparse_jac.build(ws.triplets);
  }
  bool factor() { return ws.sparse_lu.factor(ws.sparse_jac, ws.lu_opts); }
  Index failed_row() const { return ws.sparse_lu.failed_column(); }
  void solve(Vector& dx) const { ws.sparse_lu.solve(dx); }
};

/// The damped Newton iteration, once for both linear steps.
template <class Step>
NewtonResult iterate(Step step, Vector& x, NewtonWorkspace& ws,
                     const NewtonOptions& opts, NewtonMetrics& (*metrics)()) {
  const bool obs_on = obs::metrics_on();
  NewtonResult res;
  const Index n = x.size();
  ws.residual.resize(n);
  Vector& dx = ws.dx;
  dx.resize(n);

  for (int it = 0; it < opts.max_iterations; ++it) {
    step.assemble(x);
    res.iterations = it + 1;
    res.residual_norm = ws.residual.inf_norm();

    const std::uint64_t t_factor = obs_on ? obs::now_ns() : 0;
    const bool factored = step.factor();
    if (obs_on) metrics().factor_us.record(obs::now_ns() - t_factor);
    if (!factored) {
      res.singular = true;
      res.singular_row = step.failed_row();
      break;
    }
    // Solve J dx = -f in place.
    for (Index i = 0; i < n; ++i) dx[i] = -ws.residual[i];
    const std::uint64_t t_solve = obs_on ? obs::now_ns() : 0;
    step.solve(dx);
    if (obs_on) metrics().solve_us.record(obs::now_ns() - t_solve);

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
  if (obs_on) metrics().record_result(res);
  return res;
}

}  // namespace

NewtonResult solve_newton(const AssembleFn& assemble, Vector& x,
                          NewtonWorkspace& ws, const NewtonOptions& opts) {
  const obs::ScopedSpan span("newton.dense", "numeric");
  const Index n = x.size();
  if (ws.dense_jac.rows() != n) ws.dense_jac.resize(n, n);
  return iterate(DenseStep{assemble, ws}, x, ws, opts, &NewtonMetrics::dense);
}

NewtonResult solve_newton_sparse(const SinkAssembleFn& assemble, Vector& x,
                                 NewtonWorkspace& ws,
                                 const NewtonOptions& opts) {
  const obs::ScopedSpan span("newton.sparse", "numeric");
  return iterate(SparseStep{assemble, ws}, x, ws, opts,
                 &NewtonMetrics::sparse);
}

}  // namespace fetcam::num
