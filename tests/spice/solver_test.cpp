// Dense vs sparse solver equivalence on real circuit workloads.
#include <gtest/gtest.h>

#include <chrono>

#include "tcam/full_array.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::spice {
namespace {

TEST(Solver, DenseAndSparseAgreeOnWordTransient) {
  // Same 1.5T1DG search run with both solvers: waveforms must agree to
  // solver tolerance.
  const auto run = [&](SolverKind solver) {
    tcam::WordOptions opts;
    opts.n_bits = 8;
    tcam::SearchConfig cfg;
    cfg.stored = arch::word_from_string("01X10X01");
    cfg.query = arch::bits_from_string("01110001");
    auto h = tcam::make_word_harness(arch::TcamDesign::k1p5DgFe, opts);
    h->build_search(cfg);
    TransientOptions topts;
    topts.t_stop = h->t_stop();
    topts.dt = h->suggested_dt();
    topts.op.solver = solver;
    auto res = run_transient(h->circuit(), topts);
    EXPECT_TRUE(res.ok) << res.error;
    return res.trace;
  };
  const auto dense = run(SolverKind::kDense);
  const auto sparse = run(SolverKind::kSparse);
  const auto vd = dense.voltage("ml3");
  const auto vs = sparse.voltage("ml3");
  ASSERT_EQ(vd.size(), vs.size());
  for (std::size_t k = 0; k < vd.size(); ++k) {
    EXPECT_NEAR(vd[k], vs[k], 1e-4) << "sample " << k;
  }
}

TEST(Solver, SparseEnablesLargerFullArrays) {
  // An 8x16 full array (~200 unknowns by itself, ~300 with SA chains) —
  // simulated with the sparse path and still correct row-for-row.
  tcam::FullArrayOptions opts;
  opts.rows = 8;
  opts.cols = 16;
  std::vector<arch::TernaryWord> stored;
  for (int r = 0; r < opts.rows; ++r) {
    std::string w;
    for (int c = 0; c < opts.cols; ++c) {
      w.push_back("01X"[(r + c) % 3]);
    }
    stored.push_back(arch::word_from_string(w));
  }
  const auto query = arch::bits_from_string("0101010101010101");

  tcam::OnePointFiveArray arr(tcam::Flavor::kDg, opts);
  arr.build_search(stored, query, {});
  TransientOptions topts;
  topts.t_stop = arr.t_stop();
  topts.dt = arr.suggested_dt();
  topts.op.solver = SolverKind::kSparse;
  const auto res = run_transient(arr.circuit(), topts);
  ASSERT_TRUE(res.ok) << res.error;
  const double half = 0.4;
  for (int r = 0; r < opts.rows; ++r) {
    const bool expect =
        arch::word_matches(stored[static_cast<std::size_t>(r)], query);
    const bool got = res.trace.voltage_at_time(
                         "r" + std::to_string(r) + ".saout",
                         arr.t_latch()) > half;
    EXPECT_EQ(got, expect) << "row " << r;
  }
}

TEST(Solver, AutoPicksSparseForLargeSystems) {
  // The auto threshold is an implementation policy; verify it is wired by
  // checking a large system still converges quickly (would take far longer
  // with dense LU at this size).
  tcam::FullArrayOptions opts;
  opts.rows = 12;
  opts.cols = 16;
  std::vector<arch::TernaryWord> stored(
      static_cast<std::size_t>(opts.rows),
      arch::TernaryWord(static_cast<std::size_t>(opts.cols),
                        arch::Ternary::kZero));
  const auto query =
      arch::BitWord(static_cast<std::size_t>(opts.cols), 0);
  tcam::OnePointFiveArray arr(tcam::Flavor::kSg, opts);
  arr.build_search(stored, query, {});
  arr.circuit().finalize();
  EXPECT_GT(arr.circuit().system_size(), kSparseAutoThreshold);
  TransientOptions topts;
  topts.t_stop = arr.t_stop();
  topts.dt = 4e-12;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = run_transient(arr.circuit(), topts);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_TRUE(res.ok) << res.error;
  // Generous bound; the dense path at ~600 unknowns x ~700 steps would blow
  // well past it on any hardware this runs on.
  EXPECT_LT(elapsed, 30.0);
}

}  // namespace
}  // namespace fetcam::spice
