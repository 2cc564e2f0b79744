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
/// Largest system a structure can describe: flat input indices are 32-bit.
constexpr Index kMaxRecordedSize = 65535;

bool is_plus_zero(double v) { return std::bit_cast<std::uint64_t>(v) == 0; }

}  // namespace

bool LuFactorization::factor(const Matrix& a, double singular_tol) {
  static obs::Counter& factors =
      obs::MetricsRegistry::instance().counter("lu.dense.factors");
  static obs::Counter& replays =
      obs::MetricsRegistry::instance().counter("lu.dense.replays");
  static obs::Counter& records =
      obs::MetricsRegistry::instance().counter("lu.dense.records");
  factors.inc();
  assert(a.rows() == a.cols());
  factored_ = false;
  structured_ = false;
  input_zeroed_ = false;
  failed_row_ = -1;

  for (std::size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].n != a.rows()) continue;
    const Replay r = replay(cache_[i], a, singular_tol);
    if (r == Replay::kInput) break;
    if (r == Replay::kDone) {
      replays.inc();
      use_structure(i);
      structured_ = true;
      factored_ = true;
      return true;
    }
  }
  bool spilled = false;
  if (!factor_dense(a, singular_tol, spilled)) return false;
  // One-shot factorizations and small systems never pay for a structure;
  // a reused one keeps each recorded structure while some pivot sequence
  // and pattern still fit it.
  if (refactored_ && a.rows() >= kMinRecordedSize &&
      a.rows() <= kMaxRecordedSize) {
    std::size_t fit = 0;
    while (fit < cache_.size() &&
           !(cache_[fit].n == a.rows() && cache_[fit].perm == perm_ &&
             admits(cache_[fit], a))) {
      ++fit;
    }
    if (fit == cache_.size()) {
      // Record over the least recently used structure once the cache is
      // full, reusing its buffers.
      if (cache_.size() < kCachedStructures) cache_.emplace_back();
      fit = cache_.size() - 1;
      record_structure(cache_[fit], a);
      records.inc();
    }
    use_structure(fit);
    // A non-finite multiplier smears NaN over structural zeros, which the
    // structured substitution would skip.
    if (!spilled) {
      gather_dense_factors();
      structured_ = true;
    }
  }
  refactored_ = true;
  factored_ = true;
  return true;
}

void LuFactorization::use_structure(std::size_t i) {
  std::rotate(cache_.begin(), cache_.begin() + static_cast<std::ptrdiff_t>(i),
              cache_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
}

void LuFactorization::zero_factored(Matrix& a) {
  // The structure's slots cover every nonzero of the factored matrix.  A
  // second call (say, after an assembly that threw) zeroes everything.
  if (structured_ && !input_zeroed_ && a.rows() == cache_.front().n) {
    double* av = a.row_data(0);
    for (const std::uint32_t i : cache_.front().src) av[i] = 0.0;
  } else {
    a.set_zero();
  }
  input_zeroed_ = true;
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
// entries see the same operations in the same order; the dense algorithm's
// extra updates subtract a zero product from them, which leaves a value
// that is not -0.0 unchanged, and a structural entry is never -0.0 (inputs
// are checked, and a difference is -0.0 only when its minuend is).  Rows
// outside the structure of column k get the multiplier +0.0 * inv_pivot,
// which the replay does not store: the solves rebuild it where the dense
// substitution reads it.  Anything the argument does not cover (a new
// nonzero, a -0.0 input, a different or too small pivot, a non-finite
// multiplier) refuses the structure.
LuFactorization::Replay LuFactorization::replay(const Structure& st,
                                                const Matrix& a,
                                                double singular_tol) {
  if (!admits(st, a)) return Replay::kRefused;
  const Index n = st.n;
  const double* av = a.row_data(0);
  vals_.resize(st.cols.size() + 1);
  vals_.back() = 0.0;
  row_scale_.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    double m = 0.0;
    for (std::uint32_t s = st.row_ptr[static_cast<std::size_t>(i)];
         s < st.row_ptr[static_cast<std::size_t>(i) + 1]; ++s) {
      const double v = av[st.src[s]];
      if (v == 0.0 && std::signbit(v)) return Replay::kInput;
      vals_[s] = v;
      m = std::max(m, std::abs(v));
    }
    if (m == 0.0) return Replay::kInput;
    row_scale_[static_cast<std::size_t>(i)] = 1.0 / m;
  }

  double* const vals = vals_.data();
  const double* const scale = row_scale_.data();
  const std::uint32_t* upd = st.update.data();
  for (Index k = 0; k < n; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    const std::uint32_t c_end = st.cand_ptr[uk + 1];
    std::uint32_t c = st.cand_ptr[uk];
    std::uint32_t pivot = st.cand_row[c];
    double best = std::abs(vals[st.cand_slot[c]]) * scale[pivot];
    for (++c; c != c_end; ++c) {
      const double v = std::abs(vals[st.cand_slot[c]]) * scale[st.cand_row[c]];
      if (v > best) {
        best = v;
        pivot = st.cand_row[c];
      }
    }
    if (pivot != uk || best < singular_tol) return Replay::kRefused;

    const double inv_pivot = 1.0 / vals[st.diag[uk]];
    // Every row below gets a multiplier, structural or not, and one is
    // non-finite exactly when inv_pivot is.
    if (k + 1 < n && !(std::abs(inv_pivot) <= kMaxFinite)) {
      return Replay::kRefused;
    }
    const double* const u_vals = vals + st.diag[uk] + 1;
    const std::uint32_t u_len = st.row_ptr[uk + 1] - st.diag[uk] - 1;
    for (std::uint32_t e = st.elim_ptr[uk]; e < st.elim_ptr[uk + 1];
         ++e, upd += u_len) {
      double& l = vals[st.elim_slot[e]];
      const double m = l * inv_pivot;
      if (!(std::abs(m) <= kMaxFinite)) return Replay::kRefused;
      l = m;
      if (m == 0.0) continue;
      for (std::uint32_t j = 0; j < u_len; ++j) vals[upd[j]] -= m * u_vals[j];
    }
  }
  perm_ = st.perm;
  return Replay::kDone;
}

bool LuFactorization::admits(const Structure& st, const Matrix& a) {
  const double* av = a.row_data(0);
  const std::uint64_t* mask = st.outside.data();
  const std::size_t size = st.outside.size();
  const auto masked = [&](std::size_t i) {
    return std::bit_cast<std::uint64_t>(av[i]) & mask[i];
  };
  // Four independent accumulators: about twice the speed of one.
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    s0 |= masked(i);
    s1 |= masked(i + 1);
    s2 |= masked(i + 2);
    s3 |= masked(i + 3);
  }
  for (; i < size; ++i) s0 |= masked(i);
  return (s0 | s1 | s2 | s3) == 0;
}

void LuFactorization::record_structure(Structure& st, const Matrix& a) {
  const Index n = a.rows();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t words = (un + 63) / 64;
  std::vector<std::uint64_t> bits(un * words, 0);
  const auto has = [&](std::size_t row, std::size_t col) {
    return ((bits[row * words + col / 64] >> (col % 64)) & 1u) != 0;
  };
  const auto set = [&](std::size_t row, std::size_t col) {
    bits[row * words + col / 64] |= std::uint64_t{1} << (col % 64);
  };

  // The input pattern under the pivot order, plus the diagonal (every
  // pivot needs a slot), then symbolic elimination, tracking where the
  // dense algorithm keeps each row: at[p] is the final position of the row
  // at dense position p.
  for (std::size_t i = 0; i < un; ++i) {
    const double* row = a.row_data(perm_[i]);
    for (std::size_t c = 0; c < un; ++c) {
      if (!is_plus_zero(row[c])) set(i, c);
    }
    set(i, i);
  }
  std::vector<std::size_t> at(un);
  for (std::size_t i = 0; i < un; ++i) {
    at[static_cast<std::size_t>(perm_[i])] = i;
  }
  st.cand_ptr.assign(1, 0);
  st.cand_row.clear();
  for (std::size_t k = 0; k < un; ++k) {
    st.cand_row.push_back(static_cast<std::uint32_t>(at[k]));
    for (std::size_t p = k + 1; p < un; ++p) {
      if (has(at[p], k)) {
        st.cand_row.push_back(static_cast<std::uint32_t>(at[p]));
      }
    }
    st.cand_ptr.push_back(static_cast<std::uint32_t>(st.cand_row.size()));
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

  // Slots, row by row, and the dense position of each.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot(un * un, kNone);
  st.n = 0;
  st.perm = perm_;
  st.outside.assign(un * un, ~std::uint64_t{0});
  st.row_ptr.assign(1, 0);
  st.diag.assign(un, 0);
  st.cols.clear();
  st.src.clear();
  for (std::size_t r = 0; r < un; ++r) {
    const std::size_t in_row = static_cast<std::size_t>(perm_[r]) * un;
    for (std::size_t c = 0; c < un; ++c) {
      if (!has(r, c)) continue;
      const auto s = static_cast<std::uint32_t>(st.cols.size());
      if (c == r) st.diag[r] = s;
      slot[r * un + c] = s;
      st.cols.push_back(static_cast<std::uint32_t>(c));
      st.src.push_back(static_cast<std::uint32_t>(in_row + c));
      st.outside[in_row + c] = 0;
    }
    st.row_ptr.push_back(static_cast<std::uint32_t>(st.cols.size()));
  }
  const auto zero_slot = static_cast<std::uint32_t>(st.cols.size());

  st.cand_slot.clear();
  for (std::size_t k = 0; k < un; ++k) {
    for (std::uint32_t c = st.cand_ptr[k]; c < st.cand_ptr[k + 1]; ++c) {
      const std::uint32_t s = slot[st.cand_row[c] * un + k];
      st.cand_slot.push_back(s == kNone ? zero_slot : s);
    }
  }
  st.elim_ptr.assign(1, 0);
  st.elim_slot.clear();
  st.update.clear();
  for (std::size_t k = 0; k < un; ++k) {
    for (std::size_t r = k + 1; r < un; ++r) {
      if (slot[r * un + k] == kNone) continue;
      st.elim_slot.push_back(slot[r * un + k]);
      for (std::uint32_t u = st.diag[k] + 1; u < st.row_ptr[k + 1]; ++u) {
        st.update.push_back(slot[r * un + st.cols[u]]);
      }
    }
    st.elim_ptr.push_back(static_cast<std::uint32_t>(st.elim_slot.size()));
  }
  st.n = n;
}

void LuFactorization::gather_dense_factors() {
  const Structure& st = cache_.front();
  vals_.resize(st.cols.size() + 1);
  vals_.back() = 0.0;
  for (Index r = 0; r < st.n; ++r) {
    const double* row = lu_.row_data(r);
    for (std::uint32_t s = st.row_ptr[static_cast<std::size_t>(r)];
         s < st.row_ptr[static_cast<std::size_t>(r) + 1]; ++s) {
      vals_[s] = row[st.cols[s]];
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

// The dense substitution rows over the compact factors.  They read the
// entries outside the structure as the dense algorithm leaves them: +0.0 in
// U, and +0.0 * inv_pivot in L, which is -0.0 under a negative pivot.  The
// structured factors always have a finite inv_pivot in the columns L uses
// (else a multiplier would be non-finite), so that zero carries the
// pivot's sign.
double LuFactorization::forward_row(const Vector& b, const double* x,
                                    Index r) const {
  const Structure& st = cache_.front();
  double s = b[perm_[static_cast<std::size_t>(r)]];
  std::uint32_t p = st.row_ptr[static_cast<std::size_t>(r)];
  const std::uint32_t end = st.diag[static_cast<std::size_t>(r)];
  for (Index c = 0; c < r; ++c) {
    const double l =
        p < end && st.cols[p] == static_cast<std::uint32_t>(c)
            ? vals_[p++]
            : std::copysign(0.0, vals_[st.diag[static_cast<std::size_t>(c)]]);
    s -= l * x[c];
  }
  return s;
}

double LuFactorization::backward_row(const double* x, Index r) const {
  const Structure& st = cache_.front();
  double s = x[r];
  std::uint32_t p = st.diag[static_cast<std::size_t>(r)] + 1;
  const std::uint32_t end = st.row_ptr[static_cast<std::size_t>(r) + 1];
  for (Index c = r + 1; c < st.n; ++c) {
    const double u =
        p < end && st.cols[p] == static_cast<std::uint32_t>(c) ? vals_[p++]
                                                               : 0.0;
    s -= u * x[c];
  }
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
  const Structure& st = cache_.front();
  const Index n = st.n;
  const double* const vals = vals_.data();
  for (Index r = 0; r < n; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    double s = b[perm_[ur]];
    for (std::uint32_t p = st.row_ptr[ur]; p < st.diag[ur]; ++p) {
      s -= vals[p] * x[st.cols[p]];
    }
    if (s == 0.0) s = forward_row(b, x, r);
    x[r] = s;
  }
  for (Index r = n - 1; r >= 0; --r) {
    const auto ur = static_cast<std::size_t>(r);
    double s = x[r];
    for (std::uint32_t p = st.diag[ur] + 1; p < st.row_ptr[ur + 1]; ++p) {
      s -= vals[p] * x[st.cols[p]];
    }
    if (s == 0.0) s = backward_row(x, r);
    x[r] = s / vals[st.diag[ur]];
    if (!std::isfinite(x[r])) return false;
  }
  return true;
}

void LuFactorization::solve_in_place(Vector& b) const {
  assert(factored_);
  const auto n = static_cast<Index>(perm_.size());
  assert(b.size() == n);
  // The permutation reads b out of order, so substitute into a scratch
  // vector and copy back; the scratch is reused across calls.
  scratch_.resize(static_cast<std::size_t>(n));
  double* x = scratch_.data();
  if (!structured_) {
    for (Index r = 0; r < n; ++r) {
      const double* row = lu_.row_data(r);
      double s = b[perm_[static_cast<std::size_t>(r)]];
      for (Index c = 0; c < r; ++c) s -= row[c] * x[c];
      x[r] = s;
    }
    for (Index r = n - 1; r >= 0; --r) {
      const double* row = lu_.row_data(r);
      double s = x[r];
      for (Index c = r + 1; c < n; ++c) s -= row[c] * x[c];
      x[r] = s / row[r];
    }
  } else if (!substitute_structured(b, x)) {
    const Structure& st = cache_.front();
    for (Index r = 0; r < n; ++r) x[r] = forward_row(b, x, r);
    for (Index r = n - 1; r >= 0; --r) {
      x[r] = backward_row(x, r) / vals_[st.diag[static_cast<std::size_t>(r)]];
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
