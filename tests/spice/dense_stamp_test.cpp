// The dense assembly overload stamps the matrix directly; the sparse paths
// stamp through a JacobianSink.  Both must see the same entries in the same
// order, so folding the triplet stream into a dense matrix in call order
// must reproduce the direct dense assembly bit for bit.
#include <gtest/gtest.h>

#include <cstring>

#include "spice/op.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::spice {
namespace {

struct Assembled {
  num::Matrix jac;
  num::Vector residual;
};

Assembled assemble_dense(const Circuit& ckt, const EvalContext& ctx,
                         const num::Vector& x) {
  const num::Index n = ckt.system_size();
  Assembled a{num::Matrix(n, n), num::Vector(n)};
  assemble_system(ckt, ctx, x, a.jac, a.residual);
  return a;
}

Assembled assemble_via_triplets(const Circuit& ckt, const EvalContext& ctx,
                                const num::Vector& x) {
  const num::Index n = ckt.system_size();
  num::TripletAccumulator t(n);
  Assembled a{num::Matrix(n, n), num::Vector(n)};
  assemble_system(ckt, ctx, x, t, a.residual);
  for (std::size_t k = 0; k < t.entries(); ++k) {
    a.jac(t.rows()[k], t.cols()[k]) += t.vals()[k];
  }
  return a;
}

void expect_bit_equal(const Assembled& dense, const Assembled& folded) {
  const num::Index n = dense.residual.size();
  ASSERT_EQ(folded.residual.size(), n);
  EXPECT_EQ(std::memcmp(dense.jac.row_data(0), folded.jac.row_data(0),
                        sizeof(double) * static_cast<std::size_t>(n * n)),
            0);
  EXPECT_EQ(std::memcmp(dense.residual.data(), folded.residual.data(),
                        sizeof(double) * static_cast<std::size_t>(n)),
            0);
}

class DenseStamp : public ::testing::TestWithParam<arch::TcamDesign> {};

TEST_P(DenseStamp, DirectDenseMatchesTripletFoldBitForBit) {
  tcam::WordOptions opts;
  opts.n_bits = 8;
  tcam::SearchConfig cfg;
  cfg.stored = arch::word_from_string("01X10X01");
  cfg.query = arch::bits_from_string("01110001");
  auto h = tcam::make_word_harness(GetParam(), opts);
  h->build_search(cfg);
  Circuit& ckt = h->circuit();

  // A converged operating point gives every device a realistic bias; the
  // offsets keep entries away from exact zeros and symmetric values.
  const OpResult op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  num::Vector x = op.x;
  for (num::Index i = 0; i < x.size(); ++i) {
    x[i] += 1e-3 * static_cast<double>((i * 7) % 11 - 5);
  }
  const num::Index n = ckt.system_size();
  ASSERT_GT(n, 0);

  EvalContext op_ctx;
  op_ctx.gmin = 1e-12;
  EvalContext tr_ctx;
  tr_ctx.mode = AnalysisMode::kTransient;
  tr_ctx.time = 0.5 * h->t_stop();
  tr_ctx.dt = h->suggested_dt();
  tr_ctx.gmin = 1e-12;
  EvalContext trap_ctx = tr_ctx;
  trap_ctx.trapezoidal = true;

  for (const EvalContext& ctx : {op_ctx, tr_ctx, trap_ctx}) {
    SCOPED_TRACE(ctx.mode == AnalysisMode::kTransient
                     ? (ctx.trapezoidal ? "transient/trap" : "transient/be")
                     : "operating point");
    const Assembled dense = assemble_dense(ckt, ctx, x);
    const Assembled folded = assemble_via_triplets(ckt, ctx, x);
    expect_bit_equal(dense, folded);
    // Guard against a vacuous pass: the assembly actually stamped.
    EXPECT_GT(dense.jac.inf_norm(), 0.0);
    EXPECT_GT(dense.residual.inf_norm(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(WordHarnesses, DenseStamp,
                         ::testing::Values(arch::TcamDesign::k2SgFefet,
                                           arch::TcamDesign::k1p5DgFe),
                         [](const auto& info) {
                           return info.param == arch::TcamDesign::k2SgFefet
                                      ? "SG2"
                                      : "DG1p5";
                         });

}  // namespace
}  // namespace fetcam::spice
