#include "numeric/newton.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace fetcam::num {
namespace {

TEST(Newton, SolvesScalarQuadratic) {
  // f(x) = x^2 - 4 = 0, root at 2 from a positive start.
  const AssembleFn f = [](const Vector& x, Matrix& jac, Vector& res) {
    res[0] = x[0] * x[0] - 4.0;
    jac(0, 0) = 2.0 * x[0];
  };
  Vector x(1, 3.0);
  NewtonWorkspace ws;
  const auto r = solve_newton(f, x, ws);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-8);
}

TEST(Newton, Solves2dSystem) {
  // x^2 + y^2 = 5, x*y = 2  ->  (2, 1) from a nearby start.
  const AssembleFn f = [](const Vector& x, Matrix& jac, Vector& res) {
    res[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
    res[1] = x[0] * x[1] - 2.0;
    jac(0, 0) = 2.0 * x[0];
    jac(0, 1) = 2.0 * x[1];
    jac(1, 0) = x[1];
    jac(1, 1) = x[0];
  };
  Vector x(2);
  x[0] = 2.5;
  x[1] = 0.5;
  NewtonWorkspace ws;
  const auto r = solve_newton(f, x, ws);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-7);
  EXPECT_NEAR(x[1], 1.0, 1e-7);
}

TEST(Newton, StepClampTamesExponential) {
  // Diode-like f(x) = 1e-12*(exp(x/0.026) - 1) - 1e-3: overflows without
  // voltage limiting from a zero start.
  const AssembleFn f = [](const Vector& x, Matrix& jac, Vector& res) {
    const double e = std::exp(std::min(x[0] / 0.026, 300.0));
    res[0] = 1e-12 * (e - 1.0) - 1e-3;
    jac(0, 0) = 1e-12 / 0.026 * e;
  };
  Vector x(1, 0.0);
  NewtonOptions opts;
  opts.max_step = 0.1;
  opts.residual_tol = 1e-12;
  NewtonWorkspace ws;
  const auto r = solve_newton(f, x, ws, opts);
  ASSERT_TRUE(r.converged);
  const double expected = 0.026 * std::log(1e9 + 1.0);
  EXPECT_NEAR(x[0], expected, 1e-6);
}

TEST(Newton, ReportsSingularJacobian) {
  const AssembleFn f = [](const Vector& x, Matrix& jac, Vector& res) {
    res[0] = x[0] + x[1] - 1.0;
    res[1] = 2.0 * x[0] + 2.0 * x[1] - 2.0;
    jac(0, 0) = 1.0;
    jac(0, 1) = 1.0;
    jac(1, 0) = 2.0;
    jac(1, 1) = 2.0;
  };
  Vector x(2, 0.0);
  NewtonWorkspace ws;
  const auto r = solve_newton(f, x, ws);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.singular);
}

TEST(Newton, DoesNotConvergeOnRootlessFunction) {
  const AssembleFn f = [](const Vector& x, Matrix& jac, Vector& res) {
    res[0] = x[0] * x[0] + 1.0;  // no real root
    jac(0, 0) = 2.0 * x[0] + 1e-3;
  };
  Vector x(1, 1.0);
  NewtonOptions opts;
  opts.max_iterations = 50;
  NewtonWorkspace ws;
  const auto r = solve_newton(f, x, ws, opts);
  EXPECT_FALSE(r.converged);
}

TEST(Newton, SharedWorkspaceMatchesFreshAcrossSizesAndSolvers) {
  // A 3-unknown system, then a 1-unknown one, then the 3-unknown one again,
  // dense and sparse, all through one workspace: each solve must equal the
  // same solve on a fresh workspace bit for bit.
  const auto stamp3 = [](const Vector& x, auto&& add, Vector& res) {
    res[0] = x[0] * x[0] + x[1] - 3.0;
    res[1] = x[1] * x[2] - 2.0;
    res[2] = x[0] + x[2] - 2.0;
    add(0, 0, 2.0 * x[0]);
    add(0, 1, 1.0);
    add(1, 1, x[2]);
    add(1, 2, x[1]);
    add(2, 0, 1.0);
    add(2, 2, 1.0);
  };
  const AssembleFn dense3 = [&](const Vector& x, Matrix& jac, Vector& res) {
    stamp3(x, [&](Index r, Index c, double v) { jac(r, c) += v; }, res);
  };
  const SinkAssembleFn sparse3 = [&](const Vector& x, JacobianSink& jac,
                                     Vector& res) {
    stamp3(x, [&](Index r, Index c, double v) { jac.add(r, c, v); }, res);
  };
  const AssembleFn dense1 = [](const Vector& x, Matrix& jac, Vector& res) {
    res[0] = std::exp(x[0]) - 2.0;
    jac(0, 0) = std::exp(x[0]);
  };
  const auto start3 = [] {
    Vector x(3);
    x[0] = 1.5;
    x[1] = 1.5;
    x[2] = 1.5;
    return x;
  };

  NewtonWorkspace shared;
  const auto check = [&](auto&& solve, Vector x0) {
    Vector x_shared = x0;
    const NewtonResult r_shared = solve(x_shared, shared);
    NewtonWorkspace fresh;
    Vector x_fresh = x0;
    const NewtonResult r_fresh = solve(x_fresh, fresh);
    ASSERT_TRUE(r_fresh.converged);
    EXPECT_TRUE(r_shared.converged);
    EXPECT_EQ(r_shared.iterations, r_fresh.iterations);
    ASSERT_EQ(x_shared.size(), x_fresh.size());
    EXPECT_EQ(std::memcmp(x_shared.data(), x_fresh.data(),
                          sizeof(double) * x_fresh.size()),
              0);
  };
  const auto dense = [](const AssembleFn& f) {
    return [&f](Vector& x, NewtonWorkspace& ws) {
      return solve_newton(f, x, ws);
    };
  };
  const auto sparse = [&](Vector& x, NewtonWorkspace& ws) {
    return solve_newton_sparse(sparse3, x, ws);
  };
  check(dense(dense3), start3());
  check(dense(dense1), Vector(1, 0.0));
  check(sparse, start3());
  check(dense(dense3), start3());
  check(sparse, start3());
}

}  // namespace
}  // namespace fetcam::num
