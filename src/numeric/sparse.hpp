// Sparse Jacobian assembly for array-level experiments.
//
// The dense LU path (lu.hpp) handles the word-slice circuits used by the
// paper's evaluation.  For full M x N array simulations the MNA matrix becomes
// large but stays very sparse (each device touches a handful of nodes).  This
// header holds the stamping interface and the triplet accumulator that feed
// the slot-assembled CSC of stamped_csc.hpp and the Gilbert-Peierls LU of
// sparse_lu.hpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace fetcam::num {

/// Destination for Jacobian entries.  Device stamps write through this
/// interface, so the same stamping code can feed a dense matrix, a triplet
/// accumulator, or the slot-resolved flat CSC of StampedCsc without knowing
/// which solver runs.
class JacobianSink {
 public:
  virtual ~JacobianSink() = default;
  virtual void add(Index r, Index c, double v) = 0;
};

/// Coordinate-format accumulator.  Duplicate (row, col) entries are summed on
/// conversion, matching MNA stamping semantics.
class TripletAccumulator {
 public:
  explicit TripletAccumulator(Index n) : n_(n) {}

  void add(Index r, Index c, double v) {
    assert(r >= 0 && r < n_ && c >= 0 && c < n_);
    rows_.push_back(r);
    cols_.push_back(c);
    vals_.push_back(v);
  }

  Index dim() const { return n_; }
  std::size_t entries() const { return vals_.size(); }
  void clear() {
    rows_.clear();
    cols_.clear();
    vals_.clear();
  }
  /// Re-dimension and clear, keeping the entry capacity (scratch reuse).
  void reset(Index n) {
    n_ = n;
    clear();
  }

  const std::vector<Index>& rows() const { return rows_; }
  const std::vector<Index>& cols() const { return cols_; }
  const std::vector<double>& vals() const { return vals_; }

 private:
  Index n_ = 0;
  std::vector<Index> rows_, cols_;
  std::vector<double> vals_;
};

/// JacobianSink writing into a TripletAccumulator (the pattern-discovery
/// path of the reusable assembly, and the plain sparse-assembly path).
class TripletSink final : public JacobianSink {
 public:
  explicit TripletSink(TripletAccumulator& t) : t_(t) {}
  void add(Index r, Index c, double v) override { t_.add(r, c, v); }

 private:
  TripletAccumulator& t_;
};

}  // namespace fetcam::num
