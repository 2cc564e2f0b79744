// Dense matrix / vector primitives used by the MNA circuit solver.
//
// The circuit matrices produced by the TCAM netlists in this project are small
// (a few hundred nodes for a 256-bit match-line slice), so a cache-friendly
// row-major dense representation with partial-pivot LU is both simpler and, at
// this size, faster than a general sparse factorization.  Full-array
// simulations switch to the sparse Gilbert-Peierls LU (sparse_lu.hpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace fetcam::num {

using Index = std::ptrdiff_t;

/// Dense column vector of doubles with bounds-checked element access in debug
/// builds.  Semantics are value-like; copies are deep.
class Vector {
 public:
  Vector() = default;
  explicit Vector(Index n, double fill = 0.0) : data_(static_cast<std::size_t>(n), fill) {}

  Index size() const { return static_cast<Index>(data_.size()); }

  double& operator[](Index i) {
    assert(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }
  double operator[](Index i) const {
    assert(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void assign(Index n, double fill) { data_.assign(static_cast<std::size_t>(n), fill); }
  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(Index n) { data_.resize(static_cast<std::size_t>(n), 0.0); }

  /// v += alpha * w (sizes must match).
  void axpy(double alpha, const Vector& w);

  /// Largest absolute entry; 0 for the empty vector.
  double inf_norm() const;

  /// Euclidean norm.
  double two_norm() const;

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  std::vector<double> data_;
};

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), fill) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  double& operator()(Index r, Index c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  double operator()(Index r, Index c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Zero all entries, keeping the shape.  Used once per Newton iteration to
  /// rebuild the Jacobian in place without reallocating.
  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  void resize(Index rows, Index cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows * cols), 0.0);
  }

  /// y = A * x.
  Vector multiply(const Vector& x) const;

  /// Maximum absolute row sum (induced infinity norm).
  double inf_norm() const;

  double* row_data(Index r) { return data_.data() + static_cast<std::size_t>(r * cols_); }
  const double* row_data(Index r) const {
    return data_.data() + static_cast<std::size_t>(r * cols_);
  }

  std::string to_string(int precision = 4) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

}  // namespace fetcam::num
