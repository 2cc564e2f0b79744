#include "spice/op.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fetcam::spice {

const char* to_string(OpStrategy s) {
  switch (s) {
    case OpStrategy::kDirect: return "direct";
    case OpStrategy::kGmin: return "gmin";
    case OpStrategy::kSource: return "source";
    case OpStrategy::kFailed: return "failed";
  }
  return "failed";
}

namespace {

void stamp_all(const Circuit& ckt, const EvalContext& ctx, Stamper& st) {
  for (const auto& dev : ckt.devices()) {
    dev->stamp(ctx, st);
  }
}

}  // namespace

void assemble_system(const Circuit& ckt, const EvalContext& ctx,
                     const num::Vector& x, JacobianSink& jac,
                     num::Vector& residual) {
  Stamper st(ckt, x, jac, residual);
  stamp_all(ckt, ctx, st);
}

void assemble_system(const Circuit& ckt, const EvalContext& ctx,
                     const num::Vector& x, num::Matrix& jac,
                     num::Vector& residual) {
  Stamper st(ckt, x, jac, residual);
  stamp_all(ckt, ctx, st);
}

void assemble_system(const Circuit& ckt, const EvalContext& ctx,
                     const num::Vector& x, num::TripletAccumulator& jac,
                     num::Vector& residual) {
  num::TripletSink sink(jac);
  assemble_system(ckt, ctx, x, sink, residual);
}

num::NewtonResult solve_circuit_newton(const Circuit& ckt,
                                       const EvalContext& ctx, num::Vector& x,
                                       const num::NewtonOptions& nopts,
                                       SolverKind solver,
                                       num::SparseNewtonWorkspace* ws) {
  const bool sparse =
      solver == SolverKind::kSparse ||
      (solver == SolverKind::kAuto && ckt.system_size() > kSparseAutoThreshold);
  if (sparse) {
    num::SparseNewtonWorkspace local_ws;
    num::SparseNewtonWorkspace& w = ws != nullptr ? *ws : local_ws;
    const auto assemble = [&](const num::Vector& xx, num::JacobianSink& jac,
                              num::Vector& residual) {
      assemble_system(ckt, ctx, xx, jac, residual);
    };
    return num::solve_newton_sparse(assemble, x, w, nopts);
  }
  const auto assemble = [&](const num::Vector& xx, num::Matrix& jac,
                            num::Vector& residual) {
    assemble_system(ckt, ctx, xx, jac, residual);
  };
  return num::solve_newton(assemble, x, nopts);
}

namespace {

/// Operating-point solver-health metrics (registered once per process).
struct OpMetrics {
  obs::Counter& solves;
  obs::Counter& failed;
  obs::Counter& direct;
  obs::Counter& gmin;
  obs::Counter& source;
  obs::Histogram& iterations;

  static OpMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static OpMetrics m{
        reg.counter("op.solves"),
        reg.counter("op.failed"),
        reg.counter("op.strategy.direct"),
        reg.counter("op.strategy.gmin"),
        reg.counter("op.strategy.source"),
        reg.histogram("op.newton_iterations",
                      {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
    };
    return m;
  }
};

num::NewtonResult run_newton(const Circuit& ckt, const EvalContext& ctx,
                             num::Vector& x, const num::NewtonOptions& nopts,
                             SolverKind solver,
                             num::SparseNewtonWorkspace* ws) {
  return solve_circuit_newton(ckt, ctx, x, nopts, solver, ws);
}

void record_op(const OpResult& res) {
  if (!obs::metrics_on()) return;
  auto& m = OpMetrics::get();
  m.solves.add();
  m.iterations.observe(res.newton_iterations);
  switch (res.strategy) {
    case OpStrategy::kDirect: m.direct.add(); break;
    case OpStrategy::kGmin: m.gmin.add(); break;
    case OpStrategy::kSource: m.source.add(); break;
    case OpStrategy::kFailed: m.failed.add(); break;
  }
}

}  // namespace

OpResult solve_op(Circuit& ckt, const OpOptions& opts,
                  const num::Vector* initial_guess,
                  num::SparseNewtonWorkspace* ws) {
  const obs::ScopedSpan span("spice.solve_op", "spice");
  ckt.finalize();
  OpResult res;
  res.x.assign(ckt.system_size(), 0.0);
  if (initial_guess != nullptr && initial_guess->size() == ckt.system_size()) {
    res.x = *initial_guess;
  }

  // All continuation strategies stamp the same Jacobian pattern (gmin and
  // source scaling change values, never the stamp sequence), so one shared
  // workspace keeps the symbolic factorization hot across strategies.
  if (ws != nullptr) ws->lu_opts.reuse_symbolic = opts.reuse_factorization;

  EvalContext ctx;
  ctx.mode = AnalysisMode::kOperatingPoint;
  ctx.gmin = opts.gmin_floor;

  // Strategy 1: direct Newton.
  {
    num::Vector x = res.x;
    const auto nr = run_newton(ckt, ctx, x, opts.newton, opts.solver, ws);
    res.newton_iterations += nr.iterations;
    if (nr.converged) {
      res.converged = true;
      res.strategy = OpStrategy::kDirect;
      res.x = x;
      record_op(res);
      return res;
    }
  }

  // Strategy 2: gmin stepping — start with a heavy shunt everywhere and relax.
  if (opts.allow_gmin_stepping) {
    num::Vector x(ckt.system_size(), 0.0);
    bool ok = true;
    for (double g = opts.gmin_start; g >= opts.gmin_floor * 0.99; g /= 10.0) {
      ctx.gmin = g;
      const auto nr = run_newton(ckt, ctx, x, opts.newton, opts.solver, ws);
      res.newton_iterations += nr.iterations;
      if (!nr.converged) {
        ok = false;
        break;
      }
    }
    if (ok) {
      // Final polish at the floor gmin.
      ctx.gmin = opts.gmin_floor;
      const auto nr = run_newton(ckt, ctx, x, opts.newton, opts.solver, ws);
      res.newton_iterations += nr.iterations;
      if (nr.converged) {
        res.converged = true;
        res.strategy = OpStrategy::kGmin;
        res.x = x;
        record_op(res);
        return res;
      }
    }
  }

  // Strategy 3: source stepping — ramp all independent sources from zero.
  if (opts.allow_source_stepping) {
    ctx.gmin = opts.gmin_floor;
    num::Vector x(ckt.system_size(), 0.0);
    bool ok = true;
    for (int s = 1; s <= opts.source_steps; ++s) {
      ctx.source_scale = static_cast<double>(s) / opts.source_steps;
      const auto nr = run_newton(ckt, ctx, x, opts.newton, opts.solver, ws);
      res.newton_iterations += nr.iterations;
      if (!nr.converged) {
        ok = false;
        break;
      }
    }
    ctx.source_scale = 1.0;
    if (ok) {
      res.converged = true;
      res.strategy = OpStrategy::kSource;
      res.x = x;
      record_op(res);
      return res;
    }
  }

  record_op(res);
  return res;
}

}  // namespace fetcam::spice
