// Test helper: expand a search result's sparse `scanned` list into one
// SearchStats per mat, filling every mat the pruning proof skipped with
// the stats the table charges a skipped mat.  Two results are equal per
// mat exactly when their dense forms are equal, whichever mats each
// actually scanned.
#pragma once

#include <vector>

#include "engine/table.hpp"

namespace fetcam::engine {

inline std::vector<arch::SearchStats> dense_per_mat(
    const TcamTable& table, const std::vector<MatStats>& scanned,
    const arch::SearchStats& skipped) {
  std::vector<arch::SearchStats> per_mat(
      static_cast<std::size_t>(table.mats()), skipped);
  for (const MatStats& s : scanned) {
    per_mat[static_cast<std::size_t>(s.mat)] = s.stats;
  }
  return per_mat;
}

inline std::vector<arch::SearchStats> dense_per_mat(const TcamTable& table,
                                                    const TableMatch& m) {
  return dense_per_mat(table, m.scanned, table.skipped_stats());
}

inline std::vector<arch::SearchStats> dense_per_mat(const TcamTable& table,
                                                    const NearestMatch& m) {
  return dense_per_mat(table, m.scanned, table.nearest_skipped_stats());
}

}  // namespace fetcam::engine
