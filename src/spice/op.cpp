#include "spice/op.hpp"

#include <utility>

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
                                       num::NewtonWorkspace& ws) {
  const bool sparse =
      solver == SolverKind::kSparse ||
      (solver == SolverKind::kAuto && ckt.system_size() > kSparseAutoThreshold);
  if (sparse) {
    const auto assemble = [&](const num::Vector& xx, num::JacobianSink& jac,
                              num::Vector& residual) {
      assemble_system(ckt, ctx, xx, jac, residual);
    };
    return num::solve_newton_sparse(assemble, x, ws, nopts);
  }
  const auto assemble = [&](const num::Vector& xx, num::Matrix& jac,
                            num::Vector& residual) {
    assemble_system(ckt, ctx, xx, jac, residual);
  };
  return num::solve_newton(assemble, x, ws, nopts);
}

namespace {

/// Operating-point solver-health metrics (registered once per process).
struct OpMetrics {
  obs::Counter& solves;
  obs::Counter& failed;
  obs::Counter& direct;
  obs::Counter& gmin;
  obs::Counter& source;
  obs::Distribution& iterations;

  static OpMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static OpMetrics m{
        reg.counter("op.solves"),
        reg.counter("op.failed"),
        reg.counter("op.strategy.direct"),
        reg.counter("op.strategy.gmin"),
        reg.counter("op.strategy.source"),
        reg.distribution("op.newton_iterations"),
    };
    return m;
  }
};

void record_op(const OpResult& res) {
  if (!obs::metrics_on()) return;
  auto& m = OpMetrics::get();
  m.solves.add();
  m.iterations.record(static_cast<std::uint64_t>(res.newton_iterations));
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
                  num::NewtonWorkspace* ws) {
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
  num::NewtonWorkspace local_ws;
  num::NewtonWorkspace& w = ws != nullptr ? *ws : local_ws;
  w.lu_opts.reuse_symbolic = opts.reuse_factorization;

  EvalContext ctx;
  ctx.mode = AnalysisMode::kOperatingPoint;
  ctx.gmin = opts.gmin_floor;
  const auto newton = [&](num::Vector& x) {
    const auto nr =
        solve_circuit_newton(ckt, ctx, x, opts.newton, opts.solver, w);
    res.newton_iterations += nr.iterations;
    return nr.converged;
  };
  const auto finish = [&](OpStrategy strategy, num::Vector& x) {
    res.converged = true;
    res.strategy = strategy;
    res.x = std::move(x);
    record_op(res);
    return std::move(res);
  };

  // Strategy 1: direct Newton.
  {
    num::Vector x = res.x;
    if (newton(x)) return finish(OpStrategy::kDirect, x);
  }

  // Strategy 2: gmin stepping — start with a heavy shunt everywhere and relax.
  if (opts.allow_gmin_stepping) {
    num::Vector x(ckt.system_size(), 0.0);
    bool ok = true;
    for (double g = opts.gmin_start; ok && g >= opts.gmin_floor * 0.99;
         g /= 10.0) {
      ctx.gmin = g;
      ok = newton(x);
    }
    // Final polish at the floor gmin.
    ctx.gmin = opts.gmin_floor;
    if (ok && newton(x)) return finish(OpStrategy::kGmin, x);
  }

  // Strategy 3: source stepping — ramp all independent sources from zero.
  // Without a single step nothing was solved, so that fails too.
  if (opts.allow_source_stepping && opts.source_steps >= 1) {
    ctx.gmin = opts.gmin_floor;
    num::Vector x(ckt.system_size(), 0.0);
    bool ok = true;
    for (int s = 1; ok && s <= opts.source_steps; ++s) {
      ctx.source_scale = static_cast<double>(s) / opts.source_steps;
      ok = newton(x);
    }
    if (ok) return finish(OpStrategy::kSource, x);
  }

  record_op(res);
  return res;
}

}  // namespace fetcam::spice
