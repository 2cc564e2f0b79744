// Full M x N TCAM arrays at circuit level: 1.5T1Fe (SG/DG) and 2FeFET
// (SG/DG).
//
// Unlike the word harnesses (one row, identical columns grouped onto shared
// nodes), these build EVERY row and EVERY column line as real nodes:
// row-wise MLs, column-wise search lines shared by all rows.  They exist to
// validate the word-slice methodology — per-row match results and cross-row
// interactions (shared column lines!) must agree with the behavioral model —
// and to let users simulate small arrays end to end.
//
// The cells are the word harness's by construction: every pair / cell is
// placed by the harness's own place_pair / place_cell, every ML (RC
// segments, precharge, SA and, for 2FeFET, the write clamp) by
// place_match_line, all at the harness's default WordOptions (n_bits =
// cols).  The arrays keep only their per-column line sources and charge
// each column line rows x the harness's per-row share (column_share()), so
// a 1-row array reproduces the word harness to solver precision
// (FullArray.OneRowIsTheWordHarness).
//
// Cost: the transient switches to the sparse LU above kSparseAutoThreshold
// unknowns (spice/op.hpp), so a 12x16 1.5T1SG array (over 300 unknowns)
// runs in well under a second (Solver.AutoPicksSparseForLargeSystems).
// Past ~1,000 unknowns the sparse LU's missing fill-reducing order makes
// it much slower than the size implies (ROADMAP item 3).
#pragma once

#include "arch/behavioral_array.hpp"
#include "tcam/cell_1p5t1fe.hpp"
#include "tcam/cell_2fefet.hpp"

namespace fetcam::tcam {

struct FullArrayOptions {
  int rows = 4;
  int cols = 8;  ///< must be even for 1.5T1Fe
};

/// Per-row search outcome of a full-array transient.
struct ArraySearchRow {
  bool expected_match = false;
  bool measured_match = false;
  double v_ml_latched = 0.0;
};

struct ArraySearchResult {
  bool ok = false;
  std::string error;
  std::vector<ArraySearchRow> rows;
  double energy_total = 0.0;  ///< all supplies, whole operation
  bool all_correct() const {
    for (const auto& r : rows) {
      if (r.measured_match != r.expected_match) return false;
    }
    return !rows.empty();
  }
};

/// What both arrays share: the circuit, the per-row sense nodes and the
/// one-shot build bookkeeping.
class FullArray {
 public:
  int rows() const { return opts_.rows; }
  int cols() const { return opts_.cols; }
  /// The cells' options: the word harness defaults with n_bits = cols.
  const WordOptions& word_options() const { return word_; }

  spice::Circuit& circuit() { return ckt_; }
  spice::NodeId ml_sense_node(int row) const {
    return ml_sense_[static_cast<std::size_t>(row)];
  }
  spice::NodeId sa_out_node(int row) const {
    return sa_out_[static_cast<std::size_t>(row)];
  }
  double t_stop() const { return t_stop_; }
  double t_latch() const { return t_latch_; }
  double suggested_dt() const { return 2e-12; }

 protected:
  explicit FullArray(FullArrayOptions opts);

  /// One-shot guard and shape check of a search build.
  void begin_build(const std::vector<arch::TernaryWord>& stored,
                   const arch::BitWord& query);
  /// Row r's ML ("ml<r>_<k>", periphery "r<r>") through place_match_line,
  /// precharge programmed; returns the taps.
  std::vector<spice::NodeId> place_row_match_line(const WordHarness& cell,
                                                  int r, int taps,
                                                  int cells_per_tap,
                                                  bool write_clamp,
                                                  const SearchTiming& tm);
  void finish_build(const SearchTiming& tm, int steps);

  FullArrayOptions opts_;
  WordOptions word_;
  spice::Circuit ckt_;

 private:
  std::vector<spice::NodeId> ml_sense_, sa_out_;
  bool built_ = false;
  double t_stop_ = 0.0;
  double t_latch_ = 0.0;
};

/// Full M x N 1.5T1Fe array: per-pair-column SL and Wr/SL lines shared by
/// every row, BLs grouped by query bit (DG) or the merged BL/SeL lines (SG),
/// one SeL_a/SeL_b pair, per-row MLs.
class OnePointFiveArray : public FullArray {
 public:
  OnePointFiveArray(Flavor flavor, FullArrayOptions opts);

  /// Build the netlist with the given stored contents and program a search
  /// for `query` (both steps).  One-shot, like the word harnesses.
  void build_search(const std::vector<arch::TernaryWord>& stored,
                    const arch::BitWord& query, const SearchTiming& timing);

 private:
  /// The cell's one definition — device cards, biases, pitch and
  /// placement; never built itself.
  OnePointFiveWord cell_;
};

/// Convenience: build, simulate, and compare each row against the golden
/// ternary rule.
ArraySearchResult simulate_array_search(
    Flavor flavor, const FullArrayOptions& opts,
    const std::vector<arch::TernaryWord>& stored, const arch::BitWord& query,
    const SearchTiming& timing = {});

/// Full M x N 2FeFET array (SG or DG flavour): per-column SL/SLbar lines
/// shared by every row, per-row MLs — the baseline-design counterpart of
/// OnePointFiveArray, used to validate the 2FeFET word harnesses.
class TwoFefetArray : public FullArray {
 public:
  TwoFefetArray(Flavor flavor, FullArrayOptions opts);

  void build_search(const std::vector<arch::TernaryWord>& stored,
                    const arch::BitWord& query, const SearchTiming& timing);

 private:
  TwoFefetWord cell_;  ///< as OnePointFiveArray::cell_
};

/// Convenience wrapper mirroring simulate_array_search for 2FeFET arrays.
ArraySearchResult simulate_two_fefet_array_search(
    Flavor flavor, const FullArrayOptions& opts,
    const std::vector<arch::TernaryWord>& stored, const arch::BitWord& query,
    const SearchTiming& timing = {});

}  // namespace fetcam::tcam
