// Partial-pivot LU factorization for the MNA system solves.
//
// MNA matrices are unsymmetric (voltage-source branch rows) and can be badly
// scaled (conductances spanning 1e-12 .. 1e3 S), so row partial pivoting is
// required; plain diagonal pivoting fails on the zero diagonal entries that
// ideal voltage sources introduce.
//
// A factorization object that is factored again (every Newton iteration of
// a solve) records the fill structure of its last full factorization and
// replays it: the next matrix is eliminated over that structure only, with
// the pivot search re-run and checked step by step, and the full dense
// algorithm runs whenever the replay cannot prove it would reproduce it.
// Factors and solves are bit-identical either way (docs/SOLVER.md,
// "Structural LU replay").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "numeric/matrix.hpp"

namespace fetcam::num {

/// In-place LU factorization with row partial pivoting and forward/back solve.
///
/// Usage:
///   LuFactorization lu;
///   if (!lu.factor(a)) { ... singular ... }
///   Vector x = lu.solve(b);
class LuFactorization {
 public:
  /// Factor a copy of `a`.  Returns false when a pivot falls below
  /// `singular_tol` times the matrix infinity norm, signalling a singular (or
  /// numerically singular) system — typically a floating circuit node.
  bool factor(const Matrix& a, double singular_tol = 1e-14);

  /// Solve L U x = P b for x.  Requires a successful factor() call.
  Vector solve(const Vector& b) const;
  /// In-place overload: b holds the solution on return.  Allocation-free
  /// after the first call on a given system size (internal scratch), which
  /// is what the Newton loop uses per iteration.
  void solve_in_place(Vector& b) const;

  /// Row index (in the original matrix) of the pivot that broke factorization,
  /// for diagnosing floating nodes.  Only meaningful after factor() == false.
  Index failed_row() const { return failed_row_; }

  bool factored() const { return factored_; }

 private:
  /// Fill structure of the last full factorization, under its pivot
  /// sequence.  Rows are named by their final (pivoted) position.
  struct Structure {
    Index n = 0;  ///< 0: nothing recorded
    /// The pivot sequence, as the final row order (perm_ of that factor).
    std::vector<Index> perm;
    /// Flat row-major indices of the recorded matrix's zero entries: a new
    /// matrix is admitted only when all of them are still +0.0.
    std::vector<std::uint32_t> outside;
    /// Per row: the columns of its nonzero input entries (row scaling).
    std::vector<Index> a_ptr, a_cols;
    /// Per step k: the rows that may hold a nonzero in column k, in the
    /// dense pivot search's own order; the first is the row the search
    /// starts from.
    std::vector<Index> cand_ptr, cand;
    /// Per row: the structural L columns (left of the diagonal) and U
    /// columns (right of it), ascending.
    std::vector<Index> l_ptr, l_cols, u_ptr, u_cols;
  };

  bool factor_dense(const Matrix& a, double singular_tol, bool& spilled);
  bool replay(const Matrix& a, double singular_tol);
  bool fits_structure(const Matrix& a) const;
  void record_structure(const Matrix& a);
  bool substitute_structured(const Vector& b, double* x) const;
  double forward_row(const Vector& b, const double* x, Index r) const;
  double backward_row(const double* x, Index r) const;

  Matrix lu_;
  std::vector<Index> perm_;
  std::vector<double> row_scale_;
  mutable std::vector<double> scratch_;  // solve_in_place working vector
  Structure st_;
  bool refactored_ = false;  ///< factor() ran before: worth recording
  bool structured_ = false;  ///< the current factors fit st_
  Index failed_row_ = -1;
  bool factored_ = false;
};

/// Convenience one-shot dense solve.  Returns std::nullopt on singularity.
std::optional<Vector> solve_dense(const Matrix& a, const Vector& b);

}  // namespace fetcam::num
