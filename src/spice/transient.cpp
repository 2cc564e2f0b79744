#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/elements.hpp"

namespace fetcam::spice {

namespace {

/// Step controller.  A steady step is k*dt, k a power of two up to
/// kMaxGrowth.  Its error ratio is the larger of the backward-Euler LTE
/// estimate over every node voltage (in units of kLteRelTol*|v| +
/// kLteAbsTol) and the largest device state change (in units of
/// kStateTol).  k halves above kShrinkRatio and doubles below kGrowRatio
/// (BE LTE scales as h^2, so a doubled step predicts 4x the ratio); a grown
/// step above 1 is rejected and retried at k = 1.
constexpr int kMaxGrowth = 16;
constexpr double kLteRelTol = 1e-3;
constexpr double kLteAbsTol = 100e-6;
constexpr double kStateTol = 0.01;
constexpr double kShrinkRatio = 0.5;
constexpr double kGrowRatio = 0.125;

/// Error ratio of the converged trial step x_prev -> x -> x_new (steps h_prev
/// then h).  BE LTE = (h^2 / 2) |v''| with v'' from the second divided
/// difference of the last two steps.  NaN propagates to the caller.
double step_error_ratio(const Circuit& ckt, const EvalContext& ctx,
                        const num::Vector& x_prev, const num::Vector& x,
                        const num::Vector& x_new, double h_prev) {
  const double h = ctx.dt;
  const num::Index nodes = ckt.node_count() - 1;
  double ratio = 0.0;
  for (num::Index i = 0; i < nodes; ++i) {
    const double slope_change =
        (x_new[i] - x[i]) / h - (x[i] - x_prev[i]) / h_prev;
    const double lte = h * h * std::abs(slope_change) / (h + h_prev);
    const double r = lte / (kLteRelTol * std::abs(x_new[i]) + kLteAbsTol);
    if (!(r <= ratio)) ratio = r;
  }
  const Solution sol(ckt, x_new);
  for (const auto& dev : ckt.devices()) {
    const double r = dev->state_change(ctx, sol) / kStateTol;
    if (!(r <= ratio)) ratio = r;
  }
  return ratio;
}

/// Transient solver-health metrics: step accounting plus the per-step
/// Newton cost distribution (the dominant term of transient wall time).
struct TransientMetrics {
  obs::Counter& runs;
  obs::Counter& failed;
  obs::Counter& steps_accepted;
  obs::Counter& steps_grown;
  obs::Counter& steps_rejected;
  obs::Counter& steps_lte_rejected;
  obs::Counter& dt_exhausted;
  obs::Histogram& newton_per_step;

  static TransientMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static TransientMetrics m{
        reg.counter("transient.runs"),
        reg.counter("transient.failed"),
        reg.counter("transient.steps_accepted"),
        reg.counter("transient.steps_grown"),
        reg.counter("transient.steps_rejected"),
        reg.counter("transient.steps_lte_rejected"),
        reg.counter("transient.dt_exhausted"),
        reg.histogram("transient.newton_per_step",
                      {1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
    };
    return m;
  }
};

void record_transient(const TransientResult& res, bool dt_exhausted) {
  if (!obs::metrics_on()) return;
  auto& m = TransientMetrics::get();
  m.runs.add();
  if (!res.ok) m.failed.add();
  if (dt_exhausted) m.dt_exhausted.add();
  m.steps_accepted.add(static_cast<std::uint64_t>(res.accepted_steps));
  m.steps_grown.add(static_cast<std::uint64_t>(res.grown_steps));
  m.steps_rejected.add(static_cast<std::uint64_t>(res.rejected_steps));
  m.steps_lte_rejected.add(
      static_cast<std::uint64_t>(res.lte_rejected_steps));
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

Trace::Trace(const Circuit& ckt) {
  for (NodeId n = 1; n < ckt.node_count(); ++n) {
    node_sys_index_.emplace(ckt.node_name(n), ckt.node_sys_index(n));
  }
  for (const auto& dev : ckt.devices()) {
    const auto* vs = dynamic_cast<const VoltageSource*>(dev.get());
    if (vs != nullptr) {
      sources_.emplace(vs->name(),
                       std::make_pair(ckt.branch_sys_index(vs->branch_base()),
                                      vs->waveform()));
    }
  }
}

num::Index Trace::node_index(std::string_view name) const {
  const auto it = node_sys_index_.find(std::string(name));
  return it == node_sys_index_.end() ? -1 : it->second;
}

num::Index Trace::branch_index(std::string_view name) const {
  const auto it = sources_.find(std::string(name));
  return it == sources_.end() ? -1 : it->second.first;
}

void Trace::append(double t, const num::Vector& x) {
  times_.push_back(t);
  samples_.push_back(x);
}

void Trace::reserve(std::size_t samples) {
  times_.reserve(samples);
  samples_.reserve(samples);
}

void Trace::shrink_to_fit() {
  times_.shrink_to_fit();
  samples_.shrink_to_fit();
}

std::vector<double> Trace::voltage(std::string_view node_name) const {
  std::vector<double> out;
  const num::Index idx = node_index(node_name);
  if (idx < 0) return out;
  out.reserve(times_.size());
  for (const auto& s : samples_) out.push_back(s[idx]);
  return out;
}

std::vector<double> Trace::branch_current(std::string_view device_name) const {
  std::vector<double> out;
  const num::Index idx = branch_index(device_name);
  if (idx < 0) return out;
  out.reserve(times_.size());
  for (const auto& s : samples_) out.push_back(s[idx]);
  return out;
}

double Trace::voltage_at_time(std::string_view node_name, double t) const {
  const num::Index idx = node_index(node_name);
  if (idx < 0 || times_.empty()) return 0.0;
  if (t <= times_.front()) return samples_.front()[idx];
  if (t >= times_.back()) return samples_.back()[idx];
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double f = span > 0.0 ? (t - times_[lo]) / span : 1.0;
  return samples_[lo][idx] + f * (samples_[hi][idx] - samples_[lo][idx]);
}

double Trace::source_value(std::string_view device_name, double t) const {
  const auto it = sources_.find(std::string(device_name));
  return it == sources_.end() ? 0.0 : it->second.second.value(t);
}

std::vector<std::string> Trace::source_names() const {
  std::vector<std::string> out;
  out.reserve(sources_.size());
  for (const auto& [name, info] : sources_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Transient engine
// ---------------------------------------------------------------------------

TransientResult run_transient(Circuit& ckt, const TransientOptions& opts) {
  const obs::ScopedSpan span("spice.transient", "spice");
  ckt.finalize();
  TransientResult res{.ok = false, .error = {}, .trace = Trace(ckt)};

  if (!std::isfinite(opts.t_stop) || !std::isfinite(opts.dt) ||
      !std::isfinite(opts.dt_min) || !(opts.dt > 0.0) ||
      !(opts.dt_min > 0.0)) {
    std::ostringstream os;
    os << "invalid step options: t_stop=" << opts.t_stop
       << " dt=" << opts.dt << " dt_min=" << opts.dt_min
       << " (all must be finite, dt and dt_min positive)";
    res.error = os.str();
    record_transient(res, /*dt_exhausted=*/false);
    return res;
  }

  num::Vector x(ckt.system_size(), 0.0);

  // One sparse solver workspace for the whole run: the OP solve rebuilds
  // the stamp pattern once, the mode switch to transient (companion models
  // activate) rebuilds it once more, and every step after that replays the
  // recorded stamp slots and refactors numerically.
  num::SparseNewtonWorkspace local_ws;
  num::SparseNewtonWorkspace* ws =
      opts.workspace != nullptr ? opts.workspace : &local_ws;
  ws->lu_opts.reuse_symbolic = opts.reuse_factorization;

  // Operating point at t = 0 establishes initial conditions.
  if (!opts.skip_op) {
    OpOptions op_opts = opts.op;
    op_opts.reuse_factorization = opts.reuse_factorization;
    const OpResult op = solve_op(ckt, op_opts, nullptr, ws);
    res.total_newton_iterations += op.newton_iterations;
    if (!op.converged) {
      res.error = "operating point failed to converge";
      record_transient(res, /*dt_exhausted=*/false);
      return res;
    }
    x = op.x;
  }

  {
    EvalContext ctx;
    ctx.mode = AnalysisMode::kOperatingPoint;
    ctx.gmin = opts.gmin;
    const Solution sol(ckt, x);
    for (const auto& dev : ckt.devices()) dev->initialize_state(ctx, sol);
  }
  // Breakpoints: source edges plus t_stop.
  std::vector<double> bps = ckt.breakpoints(opts.t_stop);
  bps.push_back(opts.t_stop);
  std::size_t next_bp = 0;

  // Capacity plan: at most ~t_stop/dt steps plus one extra step per
  // breakpoint the stepper has to land on, plus the t=0 sample.  Halving
  // episodes can exceed the estimate; append() still grows then.
  if (opts.t_stop > 0.0) {
    const double nominal = opts.t_stop / opts.dt;
    res.trace.reserve(static_cast<std::size_t>(nominal) + bps.size() + 2);
  }
  res.trace.append(0.0, x);

  double t = 0.0;
  // Post-edge ramp: below dt only right after a breakpoint landing or a
  // Newton halving, then doubling back up to dt.
  double dt_eff = opts.dt;
  // Growth factor of the next steady (dt_eff == dt) step.
  int k = 1;
  // Previous accepted state and step, for the LTE divided difference.  The
  // operating point is a DC steady state, so the history before t = 0 is
  // flat.
  num::Vector x_prev = x;
  double h_prev = opts.dt;
  num::Vector x_try = x;
  const double t_eps = opts.t_stop * 1e-12;

  while (t < opts.t_stop - t_eps) {
    while (next_bp < bps.size() && bps[next_bp] <= t + t_eps) ++next_bp;
    const double bp = next_bp < bps.size() ? bps[next_bp] : opts.t_stop;
    // A grown step stays on the lattice: it never passes the last multiple
    // of dt before the next breakpoint.
    int k_step = dt_eff < opts.dt ? 1 : k;
    while (k_step > 1 && t + k_step * opts.dt > bp + t_eps) k_step /= 2;
    double t_next = std::min({t + k_step * dt_eff, bp, opts.t_stop});
    double dt_step = t_next - t;

    EvalContext ctx;
    ctx.mode = AnalysisMode::kTransient;
    ctx.gmin = opts.gmin;
    ctx.trapezoidal = opts.trapezoidal;

    double ratio = 0.0;
    while (true) {
      ctx.time = t + dt_step;
      ctx.dt = dt_step;
      x_try = x;
      const auto nr =
          solve_circuit_newton(ckt, ctx, x_try, opts.newton, opts.solver, ws);
      res.total_newton_iterations += nr.iterations;
      if (obs::metrics_on()) {
        TransientMetrics::get().newton_per_step.observe(nr.iterations);
      }
      if (!nr.converged) {
        ++res.rejected_steps;
        k_step = std::max(1, k_step / 2);
        dt_step *= 0.5;
        if (dt_step < opts.dt_min) {
          std::ostringstream os;
          os << "transient step failed to converge at t=" << t
             << " (dt exhausted";
          if (nr.singular) os << ", singular row " << nr.singular_row;
          os << ")";
          res.error = os.str();
          record_transient(res, /*dt_exhausted=*/true);
          return res;
        }
        continue;
      }
      // A k = 1 step is never rejected: its ratio only steers the next
      // step's growth.
      ratio = step_error_ratio(ckt, ctx, x_prev, x, x_try, h_prev);
      if (k_step > 1 && !(ratio <= 1.0)) {
        ++res.lte_rejected_steps;
        k_step = 1;
        dt_step = opts.dt;
        continue;
      }
      break;
    }

    if (k_step > 1) ++res.grown_steps;
    std::swap(x_prev, x);
    std::swap(x, x_try);
    h_prev = dt_step;
    t = ctx.time;
    ++res.accepted_steps;
    const Solution sol(ckt, x);
    for (const auto& dev : ckt.devices()) dev->commit_step(ctx, sol);
    res.trace.append(t, x);

    // Recover the step size after a landing or a halving episode.  k
    // restarts at 1 on every breakpoint and ramp step, so the steps right
    // after a source edge always follow the ramp (docs/SOLVER.md).
    dt_eff = std::min(opts.dt, dt_step * 2.0);
    if (t >= bp - t_eps || dt_step < opts.dt * (1.0 - 1e-9)) {
      k = 1;
    } else if (!(ratio <= kShrinkRatio)) {
      k = std::max(1, k_step / 2);
    } else if (ratio < kGrowRatio) {
      k = std::min(kMaxGrowth, k_step * 2);
    } else {
      k = k_step;
    }
  }

  res.ok = true;
  res.trace.shrink_to_fit();
  record_transient(res, /*dt_exhausted=*/false);
  return res;
}

}  // namespace fetcam::spice
