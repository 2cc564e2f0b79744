// Simulation-pipeline workload: dse_sweep.
//
// Runs dse::run_dse on the default design space with default options (the
// `fetcam_cli dse` sweep), timing each point through the EvalFn hook.  The
// traced pass adds probes on a fixed stride of the sweep's own points:
// eval (worst latency, variability, write), spice (one search transient on
// the word harness) and numeric (system assembly vs the rest of a Newton
// iteration).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>

#include "common.hpp"
#include "dse/driver.hpp"
#include "dse/report.hpp"
#include "eval/fom.hpp"
#include "eval/variability.hpp"
#include "spice/op.hpp"
#include "tcam/sim_harness.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace fetcam;

bool is_1p5(arch::TcamDesign d) {
  return d == arch::TcamDesign::k1p5SgFe || d == arch::TcamDesign::k1p5DgFe;
}

dse::DesignSpace space_for(Size size) {
  dse::DesignSpace s = dse::default_space();
  if (size == Size::kTiny) {
    s.mats = {1};
    s.digit_bits = {1};
  }
  return s;
}

tcam::WordOptions word_options(const dse::DesignPoint& p) {
  tcam::WordOptions w;
  w.n_bits = p.word_bits;
  w.rows_in_array = p.rows;
  w.vdd = p.vdd;
  w.tuning = p.tuning();
  return w;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Per-point probes (single thread) on the stride points.
struct PointProbe {
  double latency_ms = 0.0, variability_ms = -1.0, write_ms = 0.0;
  double transient_ms = 0.0, assemble_us = 0.0;
  int steps = 0, rejected = 0, iterations = 0;
};

PointProbe probe_point(const dse::DesignPoint& p, const dse::EvalOptions& eo,
                       std::uint64_t point_seed) {
  PointProbe r;
  eval::FomOptions fopts;
  fopts.n_bits = p.word_bits;
  fopts.rows = p.rows;
  fopts.vdd = p.vdd;
  fopts.tuning = p.tuning();
  auto t0 = Clock::now();
  eval::measure_worst_latency(p.design, fopts);
  r.latency_ms = ms_since(t0);

  if (is_1p5(p.design)) {
    eval::VariabilityParams vp = eo.variability;
    vp.samples = eo.mc_samples;
    vp.seed = static_cast<unsigned>(point_seed);
    const tcam::Flavor flavor = p.design == arch::TcamDesign::k1p5SgFe
                                    ? tcam::Flavor::kSg
                                    : tcam::Flavor::kDg;
    t0 = Clock::now();
    eval::analyze_variability(flavor, dse::divider_design_for(p), vp);
    r.variability_ms = ms_since(t0);
  }

  // Write: alternating data over its complement, every cell switches.
  tcam::WriteConfig wcfg;
  for (int i = 0; i < p.word_bits; ++i) {
    const bool one = (i % 2) != 0;
    wcfg.data.push_back(one ? arch::Ternary::kOne : arch::Ternary::kZero);
    wcfg.initial.push_back(one ? arch::Ternary::kZero : arch::Ternary::kOne);
  }
  t0 = Clock::now();
  tcam::measure_write(p.design, word_options(p), wcfg);
  r.write_ms = ms_since(t0);

  // One-cell-mismatch search transient on the word harness.
  auto harness = tcam::make_word_harness(p.design, word_options(p));
  tcam::SearchConfig scfg;
  scfg.stored.assign(static_cast<std::size_t>(p.word_bits), arch::Ternary::kZero);
  scfg.query.assign(static_cast<std::size_t>(p.word_bits), 0);
  scfg.query[0] = 1;
  harness->build_search(scfg);
  spice::TransientOptions topts;
  topts.t_stop = harness->t_stop();
  topts.dt = harness->suggested_dt();
  t0 = Clock::now();
  const spice::TransientResult tr = spice::run_transient(harness->circuit(), topts);
  r.transient_ms = ms_since(t0);
  r.steps = tr.accepted_steps;
  r.rejected = tr.rejected_steps;
  r.iterations = tr.total_newton_iterations;

  // assemble_system (device eval + stamping) on the same circuit.
  const spice::Circuit& ckt = harness->circuit();
  const num::Index n = ckt.system_size();
  num::Vector x(n, 0.0), residual(n, 0.0);
  num::TripletAccumulator jac(n);
  spice::EvalContext ctx;
  ctx.mode = spice::AnalysisMode::kTransient;
  ctx.time = topts.t_stop;
  ctx.dt = topts.dt;
  ctx.gmin = topts.gmin;
  constexpr int kReps = 400;
  t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    jac.clear();
    residual.fill(0.0);
    spice::assemble_system(ckt, ctx, x, jac, residual);
  }
  r.assemble_us = ms_since(t0) * 1e3 / kReps;
  return r;
}

}  // namespace

Report run_dse_sweep(const RunArgs& args, bool traced) {
  Report rep;
  rep.workload = "dse_sweep";
  rep.traced = traced;

  // Set-up: space construction, validation and candidate enumeration.
  {
    std::vector<double> cpu, wall;
    for (int i = 0; i < 50; ++i) {
      const double c0 = thread_cpu_s();
      const auto t0 = Clock::now();
      dse::DesignSpace s = space_for(args.size);
      s.validate();
      const auto grid = s.grid_points();
      wall.push_back(seconds_since(t0));
      cpu.push_back(thread_cpu_s() - c0);
      if (grid.empty()) throw std::runtime_error("empty design space");
    }
    rep.row("setup_s", median(cpu), "s");
    rep.row("setup_wall_s", median(wall), "s");
  }

  // Default options, seeds included, as `fetcam_cli dse` runs the sweep, so
  // --seed does not change this workload's inputs.  The candidate-order
  // seed decides which points the surrogate lets through and the
  // Monte-Carlo seed how often a point's solver needs its costly rescue
  // paths; varying them moved the CPU per point by 0.13-0.16 (IQR / median
  // over 5-10 seeds), against 0.05 for repeats of one seed.
  dse::DseOptions opts;
  opts.space = space_for(args.size);
  if (args.size == Size::kTiny) opts.eval.mc_samples = 16;

  std::mutex mu;
  std::vector<double> point_ms, point_cpu_ms;
  const dse::EvalFn timed = [&](std::size_t index, const dse::DesignPoint& p) {
    const double c0 = thread_cpu_s();
    const auto t0 = Clock::now();
    dse::PointMetrics m =
        dse::evaluate_point(p, opts.eval, util::trial_key(opts.eval.seed, index));
    const double ms = ms_since(t0);
    const double cpu_ms = (thread_cpu_s() - c0) * 1e3;
    std::lock_guard<std::mutex> lock(mu);
    point_ms.push_back(ms);
    point_cpu_ms.push_back(cpu_ms);
    return m;
  };

  std::vector<double> sweep_s;
  dse::DseResult res;
  const auto w0 = Clock::now();
  while (sweep_s.empty() || seconds_since(w0) < args.seconds) {
    const auto t0 = Clock::now();
    res = dse::run_dse(opts, timed);
    sweep_s.push_back(seconds_since(t0));
  }
  const double sweep = median(sweep_s);
  const double p50 = percentile(point_ms, 50.0);
  // Tail: p93 leaves >= 10 points beyond it (a sweep simulates ~160).
  const double p93 = percentile(point_ms, 93.0);
  // The gated rate: design points simulated per CPU second of the pool
  // threads that evaluated them, so host steal and the pool's idle tail
  // stay out of it (both show in the sweep_s row).
  double point_cpu_s = 0.0;
  for (double ms : point_cpu_ms) point_cpu_s += ms / 1e3;
  const double per_cpu = static_cast<double>(point_cpu_ms.size()) / point_cpu_s;
  rep.row("sweep_s", sweep, "s");
  rep.row("sweeps", static_cast<double>(sweep_s.size()), "count");
  rep.row("points_simulated",
          static_cast<double>(res.n_evaluated + res.n_validated), "count");
  rep.row("points_per_s",
          static_cast<double>(res.n_evaluated + res.n_validated) / sweep, "1/s");
  rep.row("ops_per_cpu_s", per_cpu, "1/s");
  rep.row("hypervolume", res.hypervolume, "1");
  rep.row("point_p50_ms", p50, "ms");
  rep.row("point_p93_ms", p93, "ms");
  rep.row("point_cpu_p50_ms", percentile(point_cpu_ms, 50.0), "ms");
  rep.e2e["ops_per_cpu_s"] = {per_cpu, "1/s"};

  // Checks on the last sweep (outside the timed window).
  std::size_t simulated = 0;
  bool finite = true;
  for (const auto& c : res.candidates) {
    if (!c.simulated) continue;
    ++simulated;
    ++rep.attempted;
    if (!c.metrics.ok) {
      ++rep.failed;
      std::cerr << "dse_sweep: point " << dse::flavor_name(c.point.design)
                << " failed: " << c.metrics.error << "\n";
      continue;
    }
    for (double v : c.metrics.objectives(opts.eval.write_weight)) {
      if (!std::isfinite(v)) finite = false;
    }
  }
  rep.check("objectives_finite", finite);
  bool two_fefet = false, one_p5 = false;
  for (std::size_t i : res.frontier) {
    (is_1p5(res.candidates[i].point.design) ? one_p5 : two_fefet) = true;
  }
  rep.check("frontier_has_both_families", two_fefet && one_p5);
  bool paper_ok = true;
  for (const auto& pc : dse::check_paper_points(opts, res)) {
    if (!pc.metrics.ok || pc.domination_depth > 0.05) paper_ok = false;
  }
  rep.check("paper_points_within_depth_0.05", paper_ok);

  if (traced) {
    const double busy_s = [&] {
      double s = 0.0;
      for (double ms : point_ms) s += ms / 1e3;
      return s / static_cast<double>(sweep_s.size());
    }();
    rep.layer("dse.point_ms_p50", p50, "ms");
    rep.layer("dse.point_ms_p95", percentile(point_ms, 95.0), "ms");
    rep.layer("dse.points_simulated", static_cast<double>(simulated), "count");
    rep.layer("dse.pool_util", busy_s / (sweep * args.threads), "ratio");
    rep.layer("quality.hypervolume", res.hypervolume, "1");

    // Stride probes, one thread, like a point inside the sweep's pool.
    // Grid indices 0, n/4, n/2, 3n/4: both cell families for any seed.
    util::set_thread_count(1);
    const std::size_t n = opts.space.grid_size();
    std::vector<PointProbe> probes;
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 4)) {
      probes.push_back(probe_point(opts.space.grid_point(i), opts.eval,
                                   util::trial_key(opts.eval.seed, i)));
    }
    util::set_thread_count(args.threads);
    std::vector<double> lat, var, wr, tms, asm_us, steps, rej, iters;
    for (const auto& p : probes) {
      lat.push_back(p.latency_ms);
      if (p.variability_ms >= 0.0) var.push_back(p.variability_ms);
      wr.push_back(p.write_ms);
      tms.push_back(p.transient_ms);
      asm_us.push_back(p.assemble_us);
      steps.push_back(p.steps);
      rej.push_back(p.rejected);
      iters.push_back(p.iterations);
    }
    const double iter_us = mean(tms) * 1e3 / mean(iters);
    rep.layer("eval.latency_ms", mean(lat), "ms");
    rep.layer("eval.variability_ms", mean(var), "ms");
    rep.layer("eval.write_ms", mean(wr), "ms");
    rep.layer("spice.transient_ms", mean(tms), "ms");
    rep.layer("spice.steps_per_transient", mean(steps), "count");
    rep.layer("spice.rejected_steps", mean(rej), "count");
    rep.layer("numeric.newton_iters_per_step", mean(iters) / mean(steps), "ratio");
    rep.layer("numeric.newton_iter_us", iter_us, "us");
    rep.layer("spice.assemble_us", mean(asm_us), "us");
    rep.layer("numeric.linear_us", iter_us - mean(asm_us), "us");

    Decomposition d{"sweep_s", "s", sweep, {}};
    d.parts = {{"dse.point busy / threads", busy_s / args.threads}};
    rep.pipelines.push_back(d);
    Decomposition it{"numeric.newton_iter_us", "us", iter_us, {}};
    it.parts = {{"spice.assemble_us", mean(asm_us)}};
    rep.pipelines.push_back(it);
  }
  return rep;
}

}  // namespace perfbench
