// Factorization reuse on real circuit workloads: a transient run with the
// KLU-style refactor path enabled must be BIT-identical to the same run
// with reuse disabled, while factoring the full (symbolic + numeric)
// problem only once per Jacobian pattern — once for the operating point,
// once more after the OP -> transient mode switch activates the companion
// models.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "spice/transient.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::spice {
namespace {

struct ReuseRun {
  Trace trace;
  num::SparseLu::Stats stats;
  std::vector<std::string> node_names;
};

ReuseRun run_word_search(bool reuse) {
  tcam::WordOptions opts;
  opts.n_bits = 8;
  tcam::SearchConfig cfg;
  cfg.stored = arch::word_from_string("01X10X01");
  cfg.query = arch::bits_from_string("01110001");
  auto h = tcam::make_word_harness(arch::TcamDesign::k1p5DgFe, opts);
  h->build_search(cfg);
  num::NewtonWorkspace ws;
  TransientOptions topts;
  topts.t_stop = h->t_stop();
  topts.dt = h->suggested_dt();
  topts.op.solver = SolverKind::kSparse;
  topts.op.reuse_factorization = reuse;
  topts.workspace = &ws;
  auto res = run_transient(h->circuit(), topts);
  EXPECT_TRUE(res.ok) << res.error;
  ReuseRun out{std::move(res.trace), ws.sparse_lu.stats(), {}};
  for (NodeId n = 1; n < h->circuit().node_count(); ++n) {
    out.node_names.push_back(h->circuit().node_name(n));
  }
  return out;
}

TEST(SolverReuse, TransientBitIdenticalWithAndWithoutReuse) {
  const ReuseRun on = run_word_search(/*reuse=*/true);
  const ReuseRun off = run_word_search(/*reuse=*/false);

  // Identical step sequence (step-size control follows the identical
  // convergence trajectory) ...
  ASSERT_EQ(on.trace.times().size(), off.trace.times().size());
  for (std::size_t k = 0; k < on.trace.times().size(); ++k) {
    EXPECT_EQ(on.trace.times()[k], off.trace.times()[k]) << "time " << k;
  }
  // ... and bit-identical waveforms on every node.
  ASSERT_EQ(on.node_names, off.node_names);
  for (const std::string& node : on.node_names) {
    const auto von = on.trace.voltage(node);
    const auto voff = off.trace.voltage(node);
    ASSERT_EQ(von.size(), voff.size()) << node;
    for (std::size_t k = 0; k < von.size(); ++k) {
      ASSERT_EQ(von[k], voff[k]) << node << " sample " << k
                                 << " (bit-exact comparison)";
    }
  }
}

TEST(SolverReuse, FullFactorCountDropsToOncePerPattern) {
  const ReuseRun on = run_word_search(/*reuse=*/true);
  // One full factor for the OP pattern, one for the transient pattern
  // (companion models change the stamp stream), plus one per pivot-drift
  // fallback; everything else must be a numeric-only refactor.
  EXPECT_EQ(on.stats.full_factors, 2u + on.stats.fallbacks);
  EXPECT_GT(on.stats.refactors, 0u);
  const double hit_rate =
      static_cast<double>(on.stats.refactors) /
      static_cast<double>(on.stats.refactors + on.stats.full_factors);
  EXPECT_GE(hit_rate, 0.9) << "refactors=" << on.stats.refactors
                           << " full=" << on.stats.full_factors;

  const ReuseRun off = run_word_search(/*reuse=*/false);
  EXPECT_EQ(off.stats.refactors, 0u);
  EXPECT_GT(off.stats.full_factors, 10u)
      << "with reuse disabled every Newton iteration full-factors";
}

TEST(SolverReuse, MetricsAndManifestReportHitRate) {
  const obs::Level saved = obs::level();
  obs::set_level(obs::Level::kMetrics);
  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t factors0 = reg.counter("lu.sparse.factors").value();
  const std::uint64_t refactors0 = reg.counter("lu.sparse.refactors").value();

  run_word_search(/*reuse=*/true);

  const std::uint64_t factors =
      reg.counter("lu.sparse.factors").value() - factors0;
  const std::uint64_t refactors =
      reg.counter("lu.sparse.refactors").value() - refactors0;
  EXPECT_GT(refactors, 0u);
  EXPECT_GT(refactors, 9 * factors)
      << "process-wide hit rate of the run should exceed 0.9";

  // The manifest surfaces the derived hit rate next to the raw counters.
  const obs::RunManifest manifest("solver_reuse_test", "unit");
  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"lu.sparse.refactors\""), std::string::npos);
  EXPECT_NE(json.find("\"lu.sparse.refactor_hit_rate\""), std::string::npos);
  obs::set_level(saved);
}

std::unique_ptr<tcam::WordHarness> search_harness(arch::TcamDesign design,
                                                  const char* stored,
                                                  const char* query) {
  tcam::WordOptions opts;
  opts.n_bits = static_cast<int>(std::strlen(query));
  tcam::SearchConfig cfg;
  cfg.stored = arch::word_from_string(stored);
  cfg.query = arch::bits_from_string(query);
  auto h = tcam::make_word_harness(design, opts);
  h->build_search(cfg);
  return h;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

void expect_same_op(const OpResult& shared, const OpResult& fresh) {
  ASSERT_TRUE(fresh.converged);
  EXPECT_TRUE(shared.converged);
  EXPECT_EQ(shared.newton_iterations, fresh.newton_iterations);
  ASSERT_EQ(shared.x.size(), fresh.x.size());
  EXPECT_EQ(std::memcmp(shared.x.data(), fresh.x.data(),
                        sizeof(double) * fresh.x.size()),
            0);
}

TEST(SolverReuse, DenseWorkspaceSharedAcrossCircuitsMatchesFresh) {
  // An OP of a 4-bit 2DG word, the transient of an 8-bit 1.5T1DG search
  // and the first OP again, all dense (below kSparseAutoThreshold) and all
  // through one workspace, so its Jacobian and LU change size twice.  Each
  // must equal the same solve on a fresh workspace bit for bit.
  // Every run gets its own harness, so no device history carries over.
  const auto small = [] {
    return search_harness(arch::TcamDesign::k2DgFefet, "01X1", "0111");
  };
  const auto big = [] {
    return search_harness(arch::TcamDesign::k1p5DgFe, "01X10X01",
                          "01110001");
  };
  num::NewtonWorkspace shared;
  const OpResult op_fresh = solve_op(small()->circuit());
  expect_same_op(solve_op(small()->circuit(), {}, nullptr, &shared),
                 op_fresh);

  const auto transient = [](tcam::WordHarness& h, num::NewtonWorkspace* ws) {
    TransientOptions topts;
    topts.t_stop = h.t_stop();
    topts.dt = h.suggested_dt();
    topts.op.solver = SolverKind::kDense;
    topts.workspace = ws;
    return run_transient(h.circuit(), topts);
  };
  const auto h_fresh = big();
  const auto h_shared = big();
  ASSERT_NE(h_shared->circuit().system_size(), op_fresh.x.size());
  const TransientResult fresh = transient(*h_fresh, nullptr);
  const TransientResult reused = transient(*h_shared, &shared);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  ASSERT_TRUE(reused.ok) << reused.error;
  EXPECT_EQ(reused.total_newton_iterations, fresh.total_newton_iterations);
  EXPECT_TRUE(bits_equal(reused.trace.times(), fresh.trace.times()));
  for (NodeId n = 1; n < h_fresh->circuit().node_count(); ++n) {
    const std::string& name = h_fresh->circuit().node_name(n);
    EXPECT_TRUE(bits_equal(reused.trace.voltage(name),
                           fresh.trace.voltage(name)))
        << name;
  }

  expect_same_op(solve_op(small()->circuit(), {}, nullptr, &shared),
                 op_fresh);
}

TEST(SolverReuse, OpWithoutWorkspaceHonoursReuseSetting) {
  // solve_op keeps one internal workspace for its continuation solves and
  // hands it the caller's reuse setting: with reuse off no sparse factor
  // may take the refactor path.
  const obs::Level saved = obs::level();
  obs::set_level(obs::Level::kMetrics);
  auto& refactors = obs::MetricsRegistry::instance().counter(
      "lu.sparse.refactors");
  const auto h =
      search_harness(arch::TcamDesign::k1p5DgFe, "01X10X01", "01110001");
  OpOptions opts;
  opts.solver = SolverKind::kSparse;

  opts.reuse_factorization = false;
  const std::uint64_t before_off = refactors.value();
  const OpResult off = solve_op(h->circuit(), opts);
  const std::uint64_t refactors_off = refactors.value() - before_off;

  opts.reuse_factorization = true;
  const std::uint64_t before_on = refactors.value();
  const OpResult on = solve_op(h->circuit(), opts);
  const std::uint64_t refactors_on = refactors.value() - before_on;
  obs::set_level(saved);

  ASSERT_TRUE(off.converged);
  ASSERT_GT(off.newton_iterations, 1);
  EXPECT_EQ(refactors_off, 0u);
  EXPECT_GT(refactors_on, 0u);
  expect_same_op(on, off);
}

}  // namespace
}  // namespace fetcam::spice
