#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.hpp"

namespace fetcam::num {

namespace {

/// Reuse accounting shared by every SparseLu instance; the per-instance
/// Stats mirror the same events for tests that must not depend on the
/// process-wide registry state.
struct SparseLuMetrics {
  obs::Counter& factors;
  obs::Counter& refactors;
  obs::Counter& fallbacks;
  obs::Counter& singular;
  obs::Distribution& pivot_growth_ppb;

  static SparseLuMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static SparseLuMetrics m{
        reg.counter("lu.sparse.factors"),
        reg.counter("lu.sparse.refactors"),
        reg.counter("lu.sparse.refactor_fallbacks"),
        reg.counter("lu.sparse.singular"),
        // Min |pivot| / |column max| per refactor, in parts per billion:
        // 1e9 = recorded pivot is still the column's largest entry, small =
        // threshold pivoting is carrying the factorization.
        reg.distribution("lu.sparse.pivot_growth_ppb"),
    };
    return m;
  }
};

}  // namespace

void SparseLu::compute_row_scale(const StampedCsc& a) {
  // Row equilibration factors (1 / row inf-norm): conductance matrices span
  // many orders of magnitude between supply rows and leakage rows, and
  // pivot tests need a common scale.  Values stay raw in the assembly; the
  // scale is applied at scatter time (same product, same rounding as the
  // old scale-in-place conversion).
  const std::size_t nsz = static_cast<std::size_t>(n_);
  row_scale_.assign(nsz, 0.0);
  const auto& rows = a.rows();
  const auto& vals = a.vals();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    auto& m = row_scale_[static_cast<std::size_t>(rows[i])];
    m = std::max(m, std::abs(vals[i]));
  }
  for (auto& m : row_scale_) m = m > 0.0 ? 1.0 / m : 1.0;
  max_abs_ = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    max_abs_ = std::max(
        max_abs_,
        std::abs(vals[i] * row_scale_[static_cast<std::size_t>(rows[i])]));
  }
}

bool SparseLu::factor(const TripletAccumulator& a,
                      const SparseLuOptions& opts) {
  // The triplet form carries no pattern identity, so this path always runs
  // the full factor (one-shot solves and legacy callers).
  StampedCsc csc;
  csc.build(a);
  return full_factor(csc, opts);
}

bool SparseLu::factor(const StampedCsc& a, const SparseLuOptions& opts) {
  if (opts.reuse_symbolic && factored_ && a.pattern_id() != 0 &&
      a.pattern_id() == sym_pattern_id_) {
    if (try_refactor(a, opts)) return true;
    ++stats_.fallbacks;
    SparseLuMetrics::get().fallbacks.inc();
  }
  return full_factor(a, opts);
}

bool SparseLu::full_factor(const StampedCsc& a, const SparseLuOptions& opts) {
  auto& metrics = SparseLuMetrics::get();
  metrics.factors.inc();
  ++stats_.full_factors;

  n_ = a.dim();
  const std::size_t nsz = static_cast<std::size_t>(n_);
  factored_ = false;
  failed_col_ = -1;
  sym_pattern_id_ = 0;  // incomplete until the factor succeeds

  compute_row_scale(a);

  l_ptr_.assign(nsz + 1, 0);
  u_ptr_.assign(nsz + 1, 0);
  l_rows_.clear();
  l_vals_.clear();
  u_rows_.clear();
  u_vals_.clear();
  topo_ptr_.assign(nsz + 1, 0);
  topo_.clear();
  perm_.assign(nsz, -1);
  perm_inv_.assign(nsz, -1);  // orig row -> pivot col

  const double floor = opts.singular_tol * std::max(max_abs_, 1.0);

  // Workspaces for the symbolic DFS + numeric solve (reused across calls).
  x_.assign(nsz, 0.0);
  visited_.assign(nsz, -1);
  std::vector<Index> topo;  // this column's reach set, post-order
  topo.reserve(nsz);

  const auto& a_ptr = a.col_ptr();
  const auto& a_rows = a.rows();
  const auto& a_vals = a.vals();

  for (Index k = 0; k < n_; ++k) {
    // ---- symbolic: rows reachable from A(:,k) through eliminated columns.
    topo.clear();
    const Index a_begin = a_ptr[static_cast<std::size_t>(k)];
    const Index a_end = a_ptr[static_cast<std::size_t>(k) + 1];
    for (Index ai = a_begin; ai < a_end; ++ai) {
      const Index r0 = a_rows[static_cast<std::size_t>(ai)];
      if (visited_[static_cast<std::size_t>(r0)] == static_cast<int>(k)) {
        continue;
      }
      // Iterative DFS emitting nodes in post-order (=> reverse topological).
      dfs_stack_.assign(1, r0);
      dfs_pos_.assign(1, 0);
      visited_[static_cast<std::size_t>(r0)] = static_cast<int>(k);
      while (!dfs_stack_.empty()) {
        const Index r = dfs_stack_.back();
        const Index col = perm_inv_[static_cast<std::size_t>(r)];
        bool descended = false;
        if (col >= 0) {
          const Index lb = l_ptr_[static_cast<std::size_t>(col)];
          const Index le = l_ptr_[static_cast<std::size_t>(col) + 1];
          for (Index& p = dfs_pos_.back(); lb + p < le;) {
            const Index child = l_rows_[static_cast<std::size_t>(lb + p)];
            ++p;
            if (visited_[static_cast<std::size_t>(child)] !=
                static_cast<int>(k)) {
              visited_[static_cast<std::size_t>(child)] = static_cast<int>(k);
              dfs_stack_.push_back(child);
              dfs_pos_.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          topo.push_back(r);
          dfs_stack_.pop_back();
          dfs_pos_.pop_back();
        }
      }
    }
    // topo is in post-order = reverse topological; iterate reversed below.

    // ---- numeric: x = L \ A(:,k) over the reach set.
    for (const Index r : topo) x_[static_cast<std::size_t>(r)] = 0.0;
    for (Index ai = a_begin; ai < a_end; ++ai) {
      const Index r = a_rows[static_cast<std::size_t>(ai)];
      x_[static_cast<std::size_t>(r)] =
          a_vals[static_cast<std::size_t>(ai)] *
          row_scale_[static_cast<std::size_t>(r)];
    }
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const Index r = *it;
      const Index col = perm_inv_[static_cast<std::size_t>(r)];
      if (col < 0) continue;
      const double xr = x_[static_cast<std::size_t>(r)];
      if (xr == 0.0) continue;
      const Index lb = l_ptr_[static_cast<std::size_t>(col)];
      const Index le = l_ptr_[static_cast<std::size_t>(col) + 1];
      for (Index i = lb; i < le; ++i) {
        const double lv = l_vals_[static_cast<std::size_t>(i)];
        if (lv == 0.0) continue;  // kept structural zero: no numeric effect
        x_[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(i)])] -=
            lv * xr;
      }
    }

    // ---- pivot selection among non-eliminated rows.
    Index pivot_row = -1;
    double best = 0.0;
    double diag = 0.0;
    bool diag_present = false;
    for (const Index r : topo) {
      if (perm_inv_[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::abs(x_[static_cast<std::size_t>(r)]);
      if (v > best) {
        best = v;
        pivot_row = r;
      }
      if (r == k) {
        diag = v;
        diag_present = true;
      }
    }
    if (pivot_row < 0 || best < floor) {
      failed_col_ = k;
      metrics.singular.inc();
      return false;
    }
    if (diag_present && diag >= opts.pivot_threshold * best) {
      pivot_row = k;  // prefer the structural diagonal: less fill
    }
    const double pivot = x_[static_cast<std::size_t>(pivot_row)];

    // ---- store U (eliminated rows, permuted indices) and L, and record
    // the reach set for refactor().  All reached positions are kept, so
    // the structure bounds any later value assignment.
    for (const Index r : topo) {
      const Index col = perm_inv_[static_cast<std::size_t>(r)];
      const double v = x_[static_cast<std::size_t>(r)];
      if (col >= 0) {
        u_rows_.push_back(col);
        u_vals_.push_back(v);
      } else if (r != pivot_row) {
        l_rows_.push_back(r);  // original row index; permuted copy built below
        l_vals_.push_back(v / pivot);
      }
      topo_.push_back(r);
    }
    u_rows_.push_back(k);  // U diagonal last
    u_vals_.push_back(pivot);
    perm_inv_[static_cast<std::size_t>(pivot_row)] = k;
    perm_[static_cast<std::size_t>(k)] = pivot_row;
    l_ptr_[static_cast<std::size_t>(k) + 1] =
        static_cast<Index>(l_rows_.size());
    u_ptr_[static_cast<std::size_t>(k) + 1] =
        static_cast<Index>(u_rows_.size());
    topo_ptr_[static_cast<std::size_t>(k) + 1] =
        static_cast<Index>(topo_.size());
  }

  // Permuted copy of L's row indices for solve().
  l_rows_perm_.resize(l_rows_.size());
  for (std::size_t i = 0; i < l_rows_.size(); ++i) {
    l_rows_perm_[i] = perm_inv_[static_cast<std::size_t>(l_rows_[i])];
  }
  sym_pattern_id_ = a.pattern_id();
  factored_ = true;
  return true;
}

bool SparseLu::try_refactor(const StampedCsc& a, const SparseLuOptions& opts) {
  assert(a.dim() == n_);
  compute_row_scale(a);
  const double floor = opts.singular_tol * std::max(max_abs_, 1.0);

  const auto& a_ptr = a.col_ptr();
  const auto& a_rows = a.rows();
  const auto& a_vals = a.vals();

  x_.assign(static_cast<std::size_t>(n_), 0.0);
  double min_growth = 1.0;

  for (Index k = 0; k < n_; ++k) {
    const Index t_begin = topo_ptr_[static_cast<std::size_t>(k)];
    const Index t_end = topo_ptr_[static_cast<std::size_t>(k) + 1];

    // ---- numeric: x = L \ A(:,k) along the recorded reach set.  The
    // recorded post-order IS the order a fresh DFS on this pattern would
    // produce, so the floating-point summation order matches a full factor
    // exactly.
    for (Index t = t_begin; t < t_end; ++t) {
      x_[static_cast<std::size_t>(topo_[static_cast<std::size_t>(t)])] = 0.0;
    }
    const Index a_begin = a_ptr[static_cast<std::size_t>(k)];
    const Index a_end = a_ptr[static_cast<std::size_t>(k) + 1];
    for (Index ai = a_begin; ai < a_end; ++ai) {
      const Index r = a_rows[static_cast<std::size_t>(ai)];
      x_[static_cast<std::size_t>(r)] =
          a_vals[static_cast<std::size_t>(ai)] *
          row_scale_[static_cast<std::size_t>(r)];
    }
    for (Index t = t_end - 1; t >= t_begin; --t) {
      const Index r = topo_[static_cast<std::size_t>(t)];
      const Index col = perm_inv_[static_cast<std::size_t>(r)];
      if (col < 0 || col >= k) continue;  // not yet eliminated at step k
      const double xr = x_[static_cast<std::size_t>(r)];
      if (xr == 0.0) continue;
      const Index lb = l_ptr_[static_cast<std::size_t>(col)];
      const Index le = l_ptr_[static_cast<std::size_t>(col) + 1];
      for (Index i = lb; i < le; ++i) {
        const double lv = l_vals_[static_cast<std::size_t>(i)];
        if (lv == 0.0) continue;
        x_[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(i)])] -=
            lv * xr;
      }
    }

    // ---- pivot re-verification: replay the threshold selection the full
    // factor would perform; any difference from the recorded pivot is a
    // degradation and triggers the fallback.
    Index pivot_row = -1;
    double best = 0.0;
    double diag = 0.0;
    bool diag_present = false;
    for (Index t = t_begin; t < t_end; ++t) {
      const Index r = topo_[static_cast<std::size_t>(t)];
      if (perm_inv_[static_cast<std::size_t>(r)] < k) continue;  // eliminated
      const double v = std::abs(x_[static_cast<std::size_t>(r)]);
      if (v > best) {
        best = v;
        pivot_row = r;
      }
      if (r == k) {
        diag = v;
        diag_present = true;
      }
    }
    if (pivot_row < 0 || best < floor) return false;  // singular drift
    if (diag_present && diag >= opts.pivot_threshold * best) {
      pivot_row = k;
    }
    if (pivot_row != perm_[static_cast<std::size_t>(k)]) return false;
    const double pivot = x_[static_cast<std::size_t>(pivot_row)];
    min_growth = std::min(min_growth, std::abs(pivot) / best);

    // ---- rewrite values in place along the recorded structure.
    Index ui = u_ptr_[static_cast<std::size_t>(k)];
    Index li = l_ptr_[static_cast<std::size_t>(k)];
    for (Index t = t_begin; t < t_end; ++t) {
      const Index r = topo_[static_cast<std::size_t>(t)];
      if (perm_inv_[static_cast<std::size_t>(r)] < k) {
        u_vals_[static_cast<std::size_t>(ui++)] =
            x_[static_cast<std::size_t>(r)];
      } else if (r != pivot_row) {
        l_vals_[static_cast<std::size_t>(li++)] =
            x_[static_cast<std::size_t>(r)] / pivot;
      }
    }
    assert(ui == u_ptr_[static_cast<std::size_t>(k) + 1] - 1);
    assert(li == l_ptr_[static_cast<std::size_t>(k) + 1]);
    u_vals_[static_cast<std::size_t>(
        u_ptr_[static_cast<std::size_t>(k) + 1] - 1)] = pivot;
  }

  last_min_growth_ = min_growth;
  ++stats_.refactors;
  auto& metrics = SparseLuMetrics::get();
  metrics.refactors.inc();
  // min_growth is pivot / best with best >= floor > 0, so it lies in [0, 1].
  if (obs::metrics_on()) {
    metrics.pivot_growth_ppb.record(
        static_cast<std::uint64_t>(std::llround(min_growth * 1e9)));
  }
  failed_col_ = -1;
  return true;
}

Vector SparseLu::solve(const Vector& b) const {
  Vector y = b;
  solve(y);
  return y;
}

void SparseLu::solve(Vector& b) const {
  assert(factored_);
  assert(b.size() == n_);
  const std::size_t nsz = static_cast<std::size_t>(n_);
  solve_scratch_.resize(nsz);
  double* y = solve_scratch_.data();
  for (Index i = 0; i < n_; ++i) {
    const Index orig = perm_[static_cast<std::size_t>(i)];
    y[i] = b[orig] * row_scale_[static_cast<std::size_t>(orig)];
  }
  // Forward: L y = P b (L unit-diagonal, strictly lower in permuted space).
  for (Index j = 0; j < n_; ++j) {
    const double yj = y[j];
    if (yj == 0.0) continue;
    const Index lb = l_ptr_[static_cast<std::size_t>(j)];
    const Index le = l_ptr_[static_cast<std::size_t>(j) + 1];
    for (Index i = lb; i < le; ++i) {
      const double lv = l_vals_[static_cast<std::size_t>(i)];
      if (lv == 0.0) continue;  // kept structural zero
      y[l_rows_perm_[static_cast<std::size_t>(i)]] -= lv * yj;
    }
  }
  // Backward: U x = y (diagonal stored last per column).
  for (Index j = n_ - 1; j >= 0; --j) {
    const Index ub = u_ptr_[static_cast<std::size_t>(j)];
    const Index ue = u_ptr_[static_cast<std::size_t>(j) + 1];
    y[j] /= u_vals_[static_cast<std::size_t>(ue - 1)];
    const double yj = y[j];
    for (Index i = ub; i < ue - 1; ++i) {
      const double uv = u_vals_[static_cast<std::size_t>(i)];
      if (uv == 0.0) continue;  // kept structural zero
      y[u_rows_[static_cast<std::size_t>(i)]] -= uv * yj;
    }
  }
  for (Index i = 0; i < n_; ++i) b[i] = y[i];
}

std::size_t SparseLu::factor_nonzeros() const {
  std::size_t nnz = 0;
  for (const double v : l_vals_) nnz += v != 0.0 ? 1 : 0;
  for (const double v : u_vals_) nnz += v != 0.0 ? 1 : 0;
  return nnz;
}

std::optional<Vector> solve_sparse(const TripletAccumulator& a,
                                   const Vector& b) {
  SparseLu lu;
  if (!lu.factor(a)) return std::nullopt;
  return lu.solve(b);
}

}  // namespace fetcam::num
