// Partial-pivot LU factorization for the MNA system solves.
//
// MNA matrices are unsymmetric (voltage-source branch rows) and can be badly
// scaled (conductances spanning 1e-12 .. 1e3 S), so row partial pivoting is
// required; plain diagonal pivoting fails on the zero diagonal entries that
// ideal voltage sources introduce.
//
// A factorization object that is factored again (every Newton iteration of
// a solve) records the fill structure of its full factorizations, up to
// kCachedStructures of them, and replays them: the next matrix is gathered
// into a compact row-wise L+U array and eliminated over that structure
// only, with the pivot search re-run and checked step by step, and the full
// dense algorithm runs whenever no recorded structure can prove it would
// reproduce it.  Factors and solves are bit-identical either way
// (docs/SOLVER.md, "Structural LU replay").
#pragma once

#include <cstddef>
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

  /// Zero `a` for the next assembly.  `a` must be the matrix of the last
  /// factor() call, unchanged since.  When that call fitted a recorded
  /// structure, every nonzero of `a` lies inside it and only the
  /// structure's entries are written; otherwise the whole matrix is.
  void zero_factored(Matrix& a);

  /// Recorded structures kept per object, most recently used first.  A
  /// Newton solve whose pivot sequence alternates between a few orders
  /// replays each of them instead of recording it again.
  static constexpr std::size_t kCachedStructures = 4;

 private:
  /// Fill structure of a full factorization, under its pivot sequence.
  /// Rows are named by their final (pivoted) position.  The L+U entries
  /// ("slots") are stored row by row, columns ascending, so row k's U part
  /// is contiguous right after its diagonal.
  struct Structure {
    Index n = 0;
    /// The pivot sequence, as the final row order (perm_ of that factor).
    std::vector<Index> perm;
    /// Per flat row-major input entry: all ones outside the L+U structure,
    /// zero inside.  A matrix is admitted when no entry has a bit set
    /// under the mask, i.e. everything outside is exactly +0.0.
    std::vector<std::uint64_t> outside;
    /// Per row: its first slot (n + 1 entries) and its diagonal slot.
    std::vector<std::uint32_t> row_ptr, diag;
    /// Per slot: its column, and the flat index of its input entry.
    std::vector<std::uint32_t> cols, src;
    /// Per step k: the pivot-search candidates in the dense search's own
    /// order, the first being the row that search starts from.  Each is a
    /// slot (the always-zero slot `cols.size()` when the row has no entry
    /// in column k) and a row.
    std::vector<std::uint32_t> cand_ptr, cand_slot, cand_row;
    /// Per step k: the rows it eliminates, as the slots of their column-k
    /// entries, and for each such row the slots that row k's U entries
    /// update, in U order.
    std::vector<std::uint32_t> elim_ptr, elim_slot, update;
  };
  /// A replay's outcome.  kRefused: this structure cannot reproduce the
  /// dense factors (another may).  kInput: the input has a -0.0 or a zero
  /// row inside the structure, which every structure refuses.
  enum class Replay { kDone, kRefused, kInput };

  bool factor_dense(const Matrix& a, double singular_tol, bool& spilled);
  Replay replay(const Structure& st, const Matrix& a, double singular_tol);
  static bool admits(const Structure& st, const Matrix& a);
  void record_structure(Structure& st, const Matrix& a);
  void use_structure(std::size_t i);
  void gather_dense_factors();
  bool substitute_structured(const Vector& b, double* x) const;
  double forward_row(const Vector& b, const double* x, Index r) const;
  double backward_row(const double* x, Index r) const;

  Matrix lu_;
  std::vector<Index> perm_;
  std::vector<double> row_scale_;
  mutable std::vector<double> scratch_;  // solve_in_place working vector
  /// Recorded structures, most recently used first.
  std::vector<Structure> cache_;
  /// Compact L+U values of the current factors under cache_.front(), plus
  /// the always-zero slot at the end.
  std::vector<double> vals_;
  bool refactored_ = false;  ///< factor() ran before: worth recording
  /// The current factors are vals_ under cache_.front() (else lu_), and
  /// the factored matrix had no nonzero outside that structure.
  bool structured_ = false;
  /// zero_factored() ran since the last factor().
  bool input_zeroed_ = false;
  Index failed_row_ = -1;
  bool factored_ = false;
};

/// Convenience one-shot dense solve.  Returns std::nullopt on singularity.
std::optional<Vector> solve_dense(const Matrix& a, const Vector& b);

}  // namespace fetcam::num
