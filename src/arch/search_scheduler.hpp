// Two-step search scheduler with early termination (paper Sec. III-B3).
//
// Models the 1.5T1Fe array's search control: step 1 raises SeL_a and
// evaluates the cell1 (even-column) digits of every row in parallel; rows
// that already mismatch terminate — their SeL_b stays grounded — and only
// surviving rows evaluate the cell2 (odd-column) digits in step 2.  The
// returned statistics (how many rows ran step 2) drive the energy model:
// the paper assumes >90 % of rows miss in step 1 in real workloads, which
// is where the early-termination energy saving comes from.
#pragma once

#include "arch/behavioral_array.hpp"

namespace fetcam::arch {

struct SearchStats {
  int rows = 0;
  int step1_misses = 0;   ///< rows terminated after step 1
  int step2_evaluated = 0;  ///< rows whose SeL_b was raised
  int matches = 0;

  double step1_miss_rate() const {
    return rows > 0 ? static_cast<double>(step1_misses) / rows : 0.0;
  }
  /// Merge another search's (or mat's) counts into this one.
  SearchStats& operator+=(const SearchStats& s) {
    rows += s.rows;
    step1_misses += s.step1_misses;
    step2_evaluated += s.step2_evaluated;
    matches += s.matches;
    return *this;
  }
};

struct ScheduledSearchResult {
  std::vector<bool> matches;
  SearchStats stats;
};

/// Run one two-step early-terminating search against the array.
/// Functionally identical to TcamArray::search; additionally reports the
/// step statistics.  Requires an even word length.
ScheduledSearchResult two_step_search(const TcamArray& array,
                                      const BitWord& query);

/// Accumulates step statistics across many searches (for energy reporting).
class SearchStatsAccumulator {
 public:
  void add(const SearchStats& s) {
    searches_ += 1;
    rows_ += s.rows;
    step1_misses_ += s.step1_misses;
    step2_ += s.step2_evaluated;
    matches_ += s.matches;
  }
  int searches() const { return searches_; }
  long long rows_searched() const { return rows_; }
  long long step2_evaluations() const { return step2_; }
  long long matches() const { return matches_; }
  double step1_miss_rate() const {
    return rows_ > 0 ? static_cast<double>(step1_misses_) / rows_ : 0.0;
  }

 private:
  int searches_ = 0;
  long long rows_ = 0;
  long long step1_misses_ = 0;
  long long step2_ = 0;
  long long matches_ = 0;
};

}  // namespace fetcam::arch
