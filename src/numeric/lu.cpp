#include "numeric/lu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"

namespace fetcam::num {

namespace {

constexpr double kMaxFinite = std::numeric_limits<double>::max();

/// Smallest system worth a recorded structure.  Below it a record costs
/// more than the replays it enables save: the 11-unknown Monte-Carlo
/// divider solves (about 7 factors per fresh workspace) ran 20% slower
/// with recording.
constexpr Index kMinRecordedSize = 16;

bool is_plus_zero(double v) { return std::bit_cast<std::uint64_t>(v) == 0; }

}  // namespace

bool LuFactorization::factor(const Matrix& a, double singular_tol) {
  static obs::Counter& factors =
      obs::MetricsRegistry::instance().counter("lu.dense.factors");
  static obs::Counter& replays =
      obs::MetricsRegistry::instance().counter("lu.dense.replays");
  factors.inc();
  assert(a.rows() == a.cols());
  factored_ = false;
  failed_row_ = -1;

  if (st_.n == a.rows() && replay(a, singular_tol)) {
    replays.inc();
    structured_ = true;
    factored_ = true;
    return true;
  }
  bool spilled = false;
  structured_ = false;
  if (!factor_dense(a, singular_tol, spilled)) return false;
  // One-shot factorizations and small systems never pay for a structure;
  // a reused one keeps the recorded structure while the pivot sequence and
  // pattern still fit.
  if (refactored_ && a.rows() >= kMinRecordedSize) {
    if (!fits_structure(a)) record_structure(a);
    // A non-finite multiplier smears NaN over structural zeros, which the
    // structured substitution would skip.
    structured_ = !spilled && st_.n == a.rows();
  }
  refactored_ = true;
  factored_ = true;
  return true;
}

bool LuFactorization::factor_dense(const Matrix& a, double singular_tol,
                                   bool& spilled) {
  static obs::Counter& singular =
      obs::MetricsRegistry::instance().counter("lu.dense.singular");
  const Index n = a.rows();
  lu_ = a;
  perm_.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;

  // Implicit row equilibration: pivot selection and the singularity test use
  // entries scaled by their row's infinity norm, which keeps conductance
  // matrices spanning many orders of magnitude (pA leakage next to kS
  // supplies) factorable.
  row_scale_.assign(static_cast<std::size_t>(n), 0.0);
  for (Index r = 0; r < n; ++r) {
    double m = 0.0;
    const double* row = lu_.row_data(r);
    for (Index c = 0; c < n; ++c) m = std::max(m, std::abs(row[c]));
    if (m == 0.0) {
      failed_row_ = r;
      singular.inc();
      return false;
    }
    row_scale_[static_cast<std::size_t>(r)] = 1.0 / m;
  }

  for (Index k = 0; k < n; ++k) {
    // Find the pivot row by scaled magnitude.
    Index pivot = k;
    double best = std::abs(lu_(k, k)) * row_scale_[static_cast<std::size_t>(k)];
    for (Index r = k + 1; r < n; ++r) {
      const double v =
          std::abs(lu_(r, k)) * row_scale_[static_cast<std::size_t>(r)];
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < singular_tol) {
      failed_row_ = perm_[static_cast<std::size_t>(pivot)];
      singular.inc();
      return false;
    }
    if (pivot != k) {
      std::swap(perm_[static_cast<std::size_t>(k)], perm_[static_cast<std::size_t>(pivot)]);
      std::swap(row_scale_[static_cast<std::size_t>(k)],
                row_scale_[static_cast<std::size_t>(pivot)]);
      double* rk = lu_.row_data(k);
      double* rp = lu_.row_data(pivot);
      for (Index c = 0; c < n; ++c) std::swap(rk[c], rp[c]);
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (Index r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv_pivot;
      lu_(r, k) = m;
      if (!(std::abs(m) <= kMaxFinite)) spilled = true;
      if (m == 0.0) continue;
      double* rr = lu_.row_data(r);
      const double* rk = lu_.row_data(k);
      for (Index c = k + 1; c < n; ++c) rr[c] -= m * rk[c];
    }
  }
  return true;
}

// The replay is the dense algorithm with its provably ineffective work left
// out.  Entries outside the recorded fill structure are +0.0 in the dense
// algorithm at every step, as long as it pivots as recorded: the input has
// them +0.0 (admission), and each update subtracts m * (+0.0) from them with
// a finite m (checked).  The pivot search reads those entries as 0 scaled,
// which never wins a strict '>' comparison, so searching the structural rows
// in the dense row order finds the dense pivot, ties included.  Structural
// entries see the same operations in the same order.  Anything the argument
// does not cover (a new nonzero, a -0.0 input, a different or too small
// pivot, a non-finite multiplier) hands the matrix to the dense algorithm.
bool LuFactorization::replay(const Matrix& a, double singular_tol) {
  const Index n = st_.n;
  const double* av = a.row_data(0);
  std::uint64_t stray = 0;
  for (const std::uint32_t i : st_.outside) {
    stray |= std::bit_cast<std::uint64_t>(av[i]);
  }
  if (stray != 0) return false;

  if (lu_.rows() != n) lu_.resize(n, n);
  row_scale_.resize(static_cast<std::size_t>(n));
  // Rows go straight to their pivoted positions; the dense row swaps only
  // ever move whole rows.
  for (Index i = 0; i < n; ++i) {
    const double* src = a.row_data(st_.perm[static_cast<std::size_t>(i)]);
    std::copy(src, src + n, lu_.row_data(i));
    double m = 0.0;
    for (Index j = st_.a_ptr[static_cast<std::size_t>(i)];
         j < st_.a_ptr[static_cast<std::size_t>(i) + 1]; ++j) {
      const double v = src[st_.a_cols[static_cast<std::size_t>(j)]];
      if (v == 0.0 && std::signbit(v)) return false;
      m = std::max(m, std::abs(v));
    }
    if (m == 0.0) return false;
    row_scale_[static_cast<std::size_t>(i)] = 1.0 / m;
  }

  for (Index k = 0; k < n; ++k) {
    const Index* c = st_.cand.data() + st_.cand_ptr[static_cast<std::size_t>(k)];
    const Index* const c_end =
        st_.cand.data() + st_.cand_ptr[static_cast<std::size_t>(k) + 1];
    Index pivot = *c;
    double best =
        std::abs(lu_(pivot, k)) * row_scale_[static_cast<std::size_t>(pivot)];
    for (++c; c != c_end; ++c) {
      const double v =
          std::abs(lu_(*c, k)) * row_scale_[static_cast<std::size_t>(*c)];
      if (v > best) {
        best = v;
        pivot = *c;
      }
    }
    if (pivot != k || best < singular_tol) return false;

    const double inv_pivot = 1.0 / lu_(k, k);
    const double* rk = lu_.row_data(k);
    const Index* const u_begin =
        st_.u_cols.data() + st_.u_ptr[static_cast<std::size_t>(k)];
    const Index* const u_end =
        st_.u_cols.data() + st_.u_ptr[static_cast<std::size_t>(k) + 1];
    for (Index r = k + 1; r < n; ++r) {
      double* rr = lu_.row_data(r);
      const double m = rr[k] * inv_pivot;
      if (!(std::abs(m) <= kMaxFinite)) return false;
      rr[k] = m;
      if (m == 0.0) continue;
      for (const Index* u = u_begin; u != u_end; ++u) rr[*u] -= m * rk[*u];
    }
  }
  perm_ = st_.perm;
  return true;
}

bool LuFactorization::fits_structure(const Matrix& a) const {
  if (st_.n != a.rows() || st_.perm != perm_) return false;
  const double* av = a.row_data(0);
  for (const std::uint32_t i : st_.outside) {
    if (!is_plus_zero(av[i])) return false;
  }
  return true;
}

void LuFactorization::record_structure(const Matrix& a) {
  const Index n = a.rows();
  st_.n = 0;
  // Flat indices are 32-bit; a dense matrix that large is never factored.
  if (n * n > static_cast<Index>(std::numeric_limits<std::uint32_t>::max())) {
    return;
  }
  const auto un = static_cast<std::size_t>(n);
  const std::size_t words = (un + 63) / 64;
  std::vector<std::uint64_t> bits(un * words, 0);
  const auto has = [&](std::size_t row, std::size_t col) {
    return ((bits[row * words + col / 64] >> (col % 64)) & 1u) != 0;
  };

  st_.perm = perm_;
  st_.outside.clear();
  st_.a_ptr.assign(1, 0);
  st_.a_cols.clear();
  for (std::size_t i = 0; i < un; ++i) {
    const double* row = a.row_data(perm_[i]);
    for (std::size_t c = 0; c < un; ++c) {
      if (is_plus_zero(row[c])) continue;
      bits[i * words + c / 64] |= std::uint64_t{1} << (c % 64);
      st_.a_cols.push_back(static_cast<Index>(c));
    }
    st_.a_ptr.push_back(static_cast<Index>(st_.a_cols.size()));
  }
  const double* av = a.row_data(0);
  for (std::size_t i = 0; i < un * un; ++i) {
    if (is_plus_zero(av[i])) st_.outside.push_back(static_cast<std::uint32_t>(i));
  }

  // Symbolic elimination, tracking where the dense algorithm keeps each
  // row: at[p] is the final position of the row at dense position p.
  std::vector<std::size_t> at(un);
  for (std::size_t i = 0; i < un; ++i) {
    at[static_cast<std::size_t>(perm_[i])] = i;
  }
  st_.cand_ptr.assign(1, 0);
  st_.cand.clear();
  for (std::size_t k = 0; k < un; ++k) {
    st_.cand.push_back(static_cast<Index>(at[k]));
    for (std::size_t p = k + 1; p < un; ++p) {
      if (has(at[p], k)) st_.cand.push_back(static_cast<Index>(at[p]));
    }
    st_.cand_ptr.push_back(static_cast<Index>(st_.cand.size()));
    std::swap(at[k], *std::find(at.begin() + static_cast<std::ptrdiff_t>(k),
                                at.end(), k));

    const std::size_t w0 = k / 64;
    const std::uint64_t first_mask = ~std::uint64_t{0} << (k % 64) << 1;
    const std::uint64_t* rk = &bits[k * words];
    for (std::size_t r = k + 1; r < un; ++r) {
      if (!has(r, k)) continue;
      std::uint64_t* rr = &bits[r * words];
      rr[w0] |= rk[w0] & first_mask;
      for (std::size_t w = w0 + 1; w < words; ++w) rr[w] |= rk[w];
    }
  }

  st_.l_ptr.assign(1, 0);
  st_.l_cols.clear();
  st_.u_ptr.assign(1, 0);
  st_.u_cols.clear();
  for (std::size_t r = 0; r < un; ++r) {
    for (std::size_t c = 0; c < un; ++c) {
      if (c == r || !has(r, c)) continue;
      (c < r ? st_.l_cols : st_.u_cols).push_back(static_cast<Index>(c));
    }
    st_.l_ptr.push_back(static_cast<Index>(st_.l_cols.size()));
    st_.u_ptr.push_back(static_cast<Index>(st_.u_cols.size()));
  }
  st_.n = n;
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

double LuFactorization::forward_row(const Vector& b, const double* x,
                                    Index r) const {
  double s = b[perm_[static_cast<std::size_t>(r)]];
  const double* row = lu_.row_data(r);
  for (Index c = 0; c < r; ++c) s -= row[c] * x[c];
  return s;
}

double LuFactorization::backward_row(const double* x, Index r) const {
  const double* row = lu_.row_data(r);
  double s = x[r];
  for (Index c = r + 1; c < lu_.rows(); ++c) s -= row[c] * x[c];
  return s;
}

// Substitution over the structure.  A skipped entry is a zero, and with
// finite x its product is a zero that cannot change a nonzero running sum,
// so a nonzero result equals the dense loop's bit for bit.  A zero result
// may differ in sign, so that row is redone densely; a non-finite value
// (0 * inf is NaN in the dense loop) sends the whole solve to it.  A
// non-finite forward value always leaves its own back-substituted value
// non-finite, so the check sits in the back substitution only.
bool LuFactorization::substitute_structured(const Vector& b, double* x) const {
  const Index n = lu_.rows();
  for (Index r = 0; r < n; ++r) {
    const double* row = lu_.row_data(r);
    double s = b[perm_[static_cast<std::size_t>(r)]];
    for (Index j = st_.l_ptr[static_cast<std::size_t>(r)];
         j < st_.l_ptr[static_cast<std::size_t>(r) + 1]; ++j) {
      const Index c = st_.l_cols[static_cast<std::size_t>(j)];
      s -= row[c] * x[c];
    }
    if (s == 0.0) s = forward_row(b, x, r);
    x[r] = s;
  }
  for (Index r = n - 1; r >= 0; --r) {
    const double* row = lu_.row_data(r);
    double s = x[r];
    for (Index j = st_.u_ptr[static_cast<std::size_t>(r)];
         j < st_.u_ptr[static_cast<std::size_t>(r) + 1]; ++j) {
      const Index c = st_.u_cols[static_cast<std::size_t>(j)];
      s -= row[c] * x[c];
    }
    if (s == 0.0) s = backward_row(x, r);
    x[r] = s / row[r];
    if (!std::isfinite(x[r])) return false;
  }
  return true;
}

void LuFactorization::solve_in_place(Vector& b) const {
  assert(factored_);
  const Index n = lu_.rows();
  assert(b.size() == n);
  // The permutation reads b out of order, so substitute into a scratch
  // vector and copy back; the scratch is reused across calls.
  scratch_.resize(static_cast<std::size_t>(n));
  double* x = scratch_.data();
  if (!structured_ || !substitute_structured(b, x)) {
    for (Index r = 0; r < n; ++r) x[r] = forward_row(b, x, r);
    for (Index r = n - 1; r >= 0; --r) {
      x[r] = backward_row(x, r) / lu_(r, r);
    }
  }
  for (Index i = 0; i < n; ++i) b[i] = x[i];
}

std::optional<Vector> solve_dense(const Matrix& a, const Vector& b) {
  LuFactorization lu;
  if (!lu.factor(a)) return std::nullopt;
  return lu.solve(b);
}

}  // namespace fetcam::num
