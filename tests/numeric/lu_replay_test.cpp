// Structural replay of the dense LU (numeric/lu.cpp): one factorization
// object fed a sequence of matrices must produce, on every one, exactly
// what a fresh object produces — the same success or failure, the same
// failed row, and bit-identical solves — whether the replay ran, was
// refused at admission, or gave up at a pivot.
#include "numeric/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fetcam::num {
namespace {

/// Metrics on for the test's lifetime, so lu.dense.replays counts.
class MetricsOn {
 public:
  MetricsOn() { obs::set_level(obs::Level::kMetrics); }
  ~MetricsOn() { obs::set_level(obs::Level::kOff); }
};

std::uint64_t replays() {
  return obs::MetricsRegistry::instance().counter("lu.dense.replays").value();
}

std::uint64_t records() {
  return obs::MetricsRegistry::instance().counter("lu.dense.records").value();
}

/// Right-hand sides that exercise the substitution's edge cases: plain
/// values, exact +0.0 and -0.0 entries (the sign of a zero result), and a
/// non-finite entry.
std::vector<Vector> rhs_set(Index n) {
  std::vector<Vector> out;
  Vector b(n);
  for (Index i = 0; i < n; ++i) b[i] = 0.25 * static_cast<double>(i) - 1.0;
  out.push_back(b);
  Vector zeros(n, 0.0);
  zeros[n - 1] = 1.0;
  out.push_back(zeros);
  Vector neg_zeros(n, -0.0);
  out.push_back(neg_zeros);
  neg_zeros[0] = 3.0;
  out.push_back(neg_zeros);
  Vector bad = b;
  bad[n / 2] = std::numeric_limits<double>::infinity();
  out.push_back(bad);
  return out;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

/// Factor `a` on the long-lived object and on a fresh one; both must agree
/// bit for bit.
void expect_matches_fresh(LuFactorization& reused, const Matrix& a) {
  LuFactorization fresh;
  const bool ok_fresh = fresh.factor(a);
  const bool ok_reused = reused.factor(a);
  ASSERT_EQ(ok_reused, ok_fresh);
  if (!ok_fresh) {
    EXPECT_EQ(reused.failed_row(), fresh.failed_row());
    return;
  }
  for (const Vector& b : rhs_set(a.rows())) {
    const Vector x_fresh = fresh.solve(b);
    const Vector x_reused = reused.solve(b);
    EXPECT_TRUE(same_bits(x_fresh, x_reused));
    Vector y = b;
    reused.solve_in_place(y);
    EXPECT_TRUE(same_bits(x_fresh, y));
  }
}

/// Test system size: at least the smallest size that records a structure.
constexpr Index kN = 20;

/// `small` in the top-left corner of an n x n identity.
Matrix padded(const Matrix& small, Index n = kN) {
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) a(i, i) = 1.0;
  for (Index r = 0; r < small.rows(); ++r) {
    for (Index c = 0; c < small.cols(); ++c) a(r, c) = small(r, c);
  }
  return a;
}

/// MNA-like matrix: a conductance ladder with cross links plus two
/// voltage-source branch rows (zero diagonal, so pivoting is required).
/// `seed` varies the values, never the pattern or the pivot sequence: the
/// branch rows win their node columns' scaled search outright.
Matrix mna(Index n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> g(-3.0, 0.0);
  Matrix a(n, n);
  const Index nodes = n - 2;
  const auto link = [&](Index i, Index j) {
    const double v = std::pow(10.0, g(rng));
    a(i, j) -= v;
    a(j, i) -= v;
    a(i, i) += v;
    a(j, j) += v;
  };
  for (Index i = 0; i + 1 < nodes; ++i) link(i, i + 1);
  for (Index i = 0; i + 3 < nodes; i += 3) link(i, i + 3);
  for (Index i = 0; i < nodes; ++i) a(i, i) += 1.0;
  // Branches: source from node 0 and from node nodes/2 to ground.
  for (const auto& [br, node] : {std::pair{nodes, Index{0}},
                                 std::pair{nodes + 1, nodes / 2}}) {
    a(br, node) = 10.0;
    a(node, br) = 10.0;
  }
  return a;
}

TEST(LuReplay, SamePatternReplaysBitIdentically) {
  const MetricsOn metrics;
  LuFactorization lu;
  const std::uint64_t before = replays();
  for (unsigned s = 0; s < 6; ++s) {
    expect_matches_fresh(lu, mna(kN, s));
  }
  // Calls 1 and 2 factor fully (the second records), calls 3..6 replay.
  EXPECT_EQ(replays() - before, 4u);
}

TEST(LuReplay, SmallSystemsAlwaysFactorDensely) {
  const MetricsOn metrics;
  LuFactorization lu;
  const std::uint64_t before = replays();
  for (unsigned s = 0; s < 4; ++s) {
    expect_matches_fresh(lu, mna(12, s));
  }
  EXPECT_EQ(replays() - before, 0u);
}

TEST(LuReplay, ZeroInsideThePatternIsAdmitted) {
  const MetricsOn metrics;
  LuFactorization lu;
  expect_matches_fresh(lu, mna(kN, 1));
  expect_matches_fresh(lu, mna(kN, 2));
  Matrix a = mna(kN, 3);
  a(3, 4) = 0.0;
  a(4, 3) = 0.0;
  const std::uint64_t before = replays();
  expect_matches_fresh(lu, a);
  EXPECT_EQ(replays() - before, 1u);
  expect_matches_fresh(lu, mna(kN, 4));
}

TEST(LuReplay, NewNonzeroOutsideThePatternFactorsFully) {
  const MetricsOn metrics;
  LuFactorization lu;
  expect_matches_fresh(lu, mna(kN, 1));
  expect_matches_fresh(lu, mna(kN, 2));
  Matrix a = mna(kN, 3);
  a(1, 7) = 0.5;
  a(9, 2) = -0.25;
  const std::uint64_t before = replays();
  expect_matches_fresh(lu, a);
  EXPECT_EQ(replays() - before, 0u);
  // The wider pattern is recorded, so the next matrix inside it replays.
  Matrix b = mna(kN, 5);
  b(1, 7) = 0.125;
  expect_matches_fresh(lu, b);
  EXPECT_EQ(replays() - before, 1u);
  // A -0.0 input entry never replays, outside the pattern or inside it.
  Matrix c = mna(kN, 6);
  c(5, 11) = -0.0;
  expect_matches_fresh(lu, c);
  EXPECT_EQ(replays() - before, 1u);
  Matrix d = mna(kN, 7);
  d(5, 6) = -0.0;
  d(6, 5) = -0.0;
  expect_matches_fresh(lu, d);
  EXPECT_EQ(replays() - before, 1u);
}

TEST(LuReplay, FlippedPivotOrderFallsBack) {
  const MetricsOn metrics;
  LuFactorization lu;
  Matrix small(3, 3);
  small(0, 0) = 4.0;  small(0, 1) = 5.0;
  small(1, 0) = 1.0;  small(1, 1) = 4.0;  small(1, 2) = 1.0;
  small(2, 1) = 1.0;  small(2, 2) = 4.0;
  const Matrix a = padded(small);
  expect_matches_fresh(lu, a);
  expect_matches_fresh(lu, a);
  // Row 1 now wins column 0's scaled search: a different pivot sequence.
  Matrix b = a;
  b(1, 0) = 8.0;
  const std::uint64_t before = replays();
  expect_matches_fresh(lu, b);
  EXPECT_EQ(replays() - before, 0u);
  expect_matches_fresh(lu, b);  // recorded under the new sequence
  EXPECT_EQ(replays() - before, 1u);
  expect_matches_fresh(lu, a);  // and back
}

TEST(LuReplay, ExactlyTiedScaledPivotsResolveLikeTheDenseSearch) {
  const MetricsOn metrics;
  LuFactorization lu;
  // Column 0: rows 0 and 2 both scale to exactly 1 — the dense search
  // keeps the first.
  Matrix small(3, 3);
  small(0, 0) = 2.0;  small(0, 2) = 1.0;
  small(1, 1) = 1.0;  small(1, 2) = 0.5;
  small(2, 0) = 4.0;  small(2, 1) = 1.0;  small(2, 2) = 3.0;
  const Matrix tie = padded(small);
  expect_matches_fresh(lu, tie);
  expect_matches_fresh(lu, tie);
  const std::uint64_t before = replays();
  expect_matches_fresh(lu, tie);
  EXPECT_EQ(replays() - before, 1u);
  // Recorded with row 2 strictly ahead; the tie then must not replay the
  // recorded row-2 pivot.
  Matrix ahead = tie;
  ahead(2, 0) = 5.0;
  LuFactorization lu2;
  expect_matches_fresh(lu2, ahead);
  expect_matches_fresh(lu2, ahead);
  expect_matches_fresh(lu2, tie);
  expect_matches_fresh(lu2, ahead);
}

TEST(LuReplay, SingularMatricesReportTheFreshFailedRow) {
  LuFactorization lu;
  expect_matches_fresh(lu, mna(kN, 1));
  expect_matches_fresh(lu, mna(kN, 2));
  Matrix zero_row = mna(kN, 3);
  for (Index c = 0; c < kN; ++c) zero_row(10, c) = 0.0;
  expect_matches_fresh(lu, zero_row);
  // Two equal rows: the second pivot on them vanishes.
  Matrix dependent = mna(kN, 4);
  for (Index c = 0; c < kN; ++c) dependent(6, c) = dependent(5, c);
  expect_matches_fresh(lu, dependent);
  expect_matches_fresh(lu, mna(kN, 5));
  expect_matches_fresh(lu, mna(kN, 6));
}

TEST(LuReplay, SizeChangeRebuildsTheStructure) {
  const MetricsOn metrics;
  LuFactorization lu;
  const std::uint64_t before = replays();
  for (const Index n : {20, 20, 20, 17, 17, 17, 20, 16, 16}) {
    expect_matches_fresh(lu, mna(n, static_cast<unsigned>(n)));
  }
  EXPECT_GT(replays() - before, 0u);
}

/// Negate every nonzero, keeping the +0.0 entries +0.0.
void negate(Matrix& a) {
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index c = 0; c < a.cols(); ++c) {
      if (a(r, c) != 0.0) a(r, c) = -a(r, c);
    }
  }
}

/// A negated MNA block (every pivot negative) over the first n - 3 rows,
/// identity below it: the identity rows have no entry in the block's
/// columns, so their dense L entries there are -0.0.
Matrix negative_block(Index n, unsigned seed) {
  Matrix block = mna(n - 3, seed);
  negate(block);
  return padded(block, n);
}

/// A diagonal matrix whose first pivot is negative: every other row has
/// no entry in column 0, so its dense L entry there is -0.0, and with a
/// right-hand side that is -0.0 below its first entry each of those rows
/// sums to exactly zero over its (empty) structure.
Matrix negative_pivot(Index n, unsigned seed) {
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) a(i, i) = 1.0 + 0.25 * seed;
  a(0, 0) = -2.0 - seed;
  return a;
}

/// 300-step random walk of one object over values, zeros inside the
/// pattern (set directly and as stamps that cancel), entries outside it,
/// pivot-flipping magnitudes, singular rows, -0.0 entries and negative
/// pivots over rows with no entry in their column.
void random_walk(Index n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  LuFactorization lu;
  for (int step = 0; step < 300; ++step) {
    const auto values = static_cast<unsigned>(step % 7);
    Matrix a = step % 5 < 3    ? mna(n, values)
               : step % 5 == 3 ? negative_block(n, values)
                               : negative_pivot(n, values);
    const double roll = u(rng);
    const Index r = pick(rng);
    const Index c = pick(rng);
    if (roll < 0.2) {
      a(r, c) = 0.0;
    } else if (roll < 0.35) {
      a(r, c) += 0.5 - u(rng);
    } else if (roll < 0.45) {
      a(r, c) = 1e3 * (u(rng) + 0.5);
    } else if (roll < 0.5) {
      for (Index k = 0; k < n; ++k) a(r, k) = 0.0;
    } else if (roll < 0.55) {
      a(r, c) = -0.0;
    } else if (roll < 0.65) {
      const double v = a(r, c);
      a(r, c) -= v;
    }
    SCOPED_TRACE(testing::Message() << "n=" << n << " step=" << step);
    expect_matches_fresh(lu, a);
  }
}

TEST(LuReplay, RandomPerturbationsMatchFreshFactorizations) {
  random_walk(kN, 20231);
}

TEST(LuReplay, RandomWalksMatchFreshAtHarnessSizes) {
  const MetricsOn metrics;
  const std::uint64_t before = replays();
  for (const Index n : {16, 26, 50, 64}) {
    random_walk(n, 7u + static_cast<unsigned>(n));
  }
  EXPECT_GT(replays() - before, 0u);
}

/// Right-hand sides that are -0.0 except for one positive entry: a row
/// whose structural products all vanish sums to exactly zero, and its
/// dense redo then reads the L entries outside the structure.
std::vector<Vector> signed_zero_rhs(Index n) {
  std::vector<Vector> out;
  for (Index i = 0; i < n; ++i) {
    Vector b(n, -0.0);
    b[i] = 1.5;
    out.push_back(b);
  }
  return out;
}

TEST(LuReplay, NegativePivotsKeepTheSignOfStructuralZeros) {
  // A negative pivot makes the dense algorithm leave -0.0 in the L
  // entries outside the structure below it (+0.0 * a negative inv_pivot);
  // rows that sum to exactly zero over their structure read them when they
  // are redone densely.
  const MetricsOn metrics;
  for (const Index n : {16, 26, 50}) {
    LuFactorization lu;
    const std::uint64_t before = replays();
    for (unsigned s = 0; s < 8; ++s) {
      const Matrix a = s < 4 ? negative_pivot(n, s) : negative_block(n, s);
      LuFactorization fresh;
      ASSERT_TRUE(fresh.factor(a));
      ASSERT_TRUE(lu.factor(a));
      for (const Vector& b : signed_zero_rhs(n)) {
        Vector y = b;
        lu.solve_in_place(y);
        EXPECT_TRUE(same_bits(fresh.solve(b), y)) << "n=" << n;
      }
    }
    // The first pattern records on its second matrix, the second on its
    // first (the object has factored before): 2 + 3 replays.
    EXPECT_EQ(replays() - before, 5u) << "n=" << n;
  }
}

TEST(LuReplay, AlternatingPivotSequencesReplayBothStructures) {
  const MetricsOn metrics;
  LuFactorization lu;
  Matrix small(3, 3);
  small(0, 0) = 4.0;  small(0, 1) = 5.0;
  small(1, 0) = 1.0;  small(1, 1) = 4.0;  small(1, 2) = 1.0;
  small(2, 1) = 1.0;  small(2, 2) = 4.0;
  const Matrix a = padded(small);
  Matrix b = a;
  b(1, 0) = 8.0;  // row 1 wins column 0: the other pivot sequence
  expect_matches_fresh(lu, a);
  expect_matches_fresh(lu, a);  // records a's structure
  expect_matches_fresh(lu, b);  // first flip: records b's
  const std::uint64_t rec = records();
  const std::uint64_t rep = replays();
  expect_matches_fresh(lu, b);
  expect_matches_fresh(lu, a);  // second flip
  expect_matches_fresh(lu, b);
  expect_matches_fresh(lu, a);
  EXPECT_EQ(records() - rec, 0u);
  EXPECT_EQ(replays() - rep, 4u);
}

TEST(LuReplay, RoundingTiedScaledPivotsAlternateStructures) {
  // |v| * (1 / |v|) rounds to 1.0 for 50 but to 0.99999999999999989 for
  // 49, so row 0 keeps column 0 against row 2 (scaled exactly 1.0) only
  // when its entry is 50: the pivot flips with the value, as on the
  // divider's node and branch rows.
  ASSERT_EQ(50.0 * (1.0 / 50.0), 1.0);
  ASSERT_EQ(3.0 * (1.0 / 3.0), 1.0);
  ASSERT_LT(49.0 * (1.0 / 49.0), 1.0);
  const MetricsOn metrics;
  for (const Index n : {16, 26}) {
    LuFactorization lu;
    const auto tie = [&](double v) {
      Matrix small(3, 3);
      small(0, 0) = v;    small(0, 1) = 1.0;
      small(1, 1) = 2.0;  small(1, 2) = 1.0;
      small(2, 0) = 3.0;  small(2, 2) = 1.0;
      return padded(small, n);
    };
    expect_matches_fresh(lu, tie(50.0));
    expect_matches_fresh(lu, tie(50.0));
    expect_matches_fresh(lu, tie(49.0));
    const std::uint64_t rec = records();
    const std::uint64_t rep = replays();
    for (int i = 0; i < 6; ++i) {
      expect_matches_fresh(lu, tie(i % 2 == 0 ? 49.0 : 50.0));
    }
    EXPECT_EQ(records() - rec, 0u) << "n=" << n;
    EXPECT_EQ(replays() - rep, 6u) << "n=" << n;
  }
}

TEST(LuReplay, CancellingStampsInsideThePatternReplay) {
  // Stamps that sum to exactly +0.0 inside the pattern replay like any
  // other value.
  const MetricsOn metrics;
  LuFactorization lu;
  expect_matches_fresh(lu, mna(kN, 1));
  expect_matches_fresh(lu, mna(kN, 2));
  const std::uint64_t before = replays();
  for (unsigned s = 3; s < 7; ++s) {
    Matrix a = mna(kN, s);
    const double g = a(3, 4);
    a(3, 4) += -g;
    a(4, 3) -= a(4, 3);
    ASSERT_TRUE(a(3, 4) == 0.0 && !std::signbit(a(3, 4)));
    expect_matches_fresh(lu, a);
  }
  EXPECT_EQ(replays() - before, 4u);
}

}  // namespace
}  // namespace fetcam::num
