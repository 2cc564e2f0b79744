// Run TCAM word operations and extract the paper's figures of merit.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "arch/area_model.hpp"
#include "tcam/word.hpp"

namespace fetcam::tcam {

/// Construct the harness for a design.
std::unique_ptr<WordHarness> make_word_harness(arch::TcamDesign design,
                                               const WordOptions& opts);

/// Search energy split the way Table IV discusses it.
struct EnergyBreakdown {
  double precharge = 0.0;  ///< ML precharge supply
  double sense_amp = 0.0;  ///< SA supply
  double signals = 0.0;    ///< search lines, selects, divider rail
  double total() const { return precharge + sense_amp + signals; }
};

struct SearchMeasurement {
  bool ok = false;
  std::string error;
  bool expected_match = false;  ///< golden (behavioral) result
  bool measured_match = false;  ///< SA output at the end of the operation
  /// SA-output resolution time relative to search start (mismatches only).
  std::optional<double> latency;
  /// ML 50 %-V_DD crossing relative to search start (mismatches only).
  std::optional<double> ml_fall_time;
  EnergyBreakdown energy;       ///< whole-operation energy, joules
  double energy_per_cell = 0.0;
  int newton_iterations = 0;
  int accepted_steps = 0;  ///< transient steps
};

/// Build + simulate one search.  `trace_out`, when non-null, receives the
/// full waveform trace (used by the Fig. 4 bench).
SearchMeasurement measure_search(arch::TcamDesign design,
                                 const WordOptions& opts,
                                 const SearchConfig& cfg,
                                 spice::Trace* trace_out = nullptr);

/// What a latency-only search probe reports: no energy, because its
/// transient ends at the SA decision.
struct LatencyProbe {
  bool ok = false;
  std::string error;
  /// Bit-identical to measure_search(...).latency for the same inputs.
  std::optional<double> latency;
  int accepted_steps = 0;  ///< transient steps, up to the SA decision
};

/// Build + simulate one search up to the SA output's falling crossing
/// after the search start (TransientOptions::stop_at_fall), the sample pair
/// that decides the latency.  A search whose SA never falls runs the whole
/// window and reports no latency.
LatencyProbe measure_search_latency(arch::TcamDesign design,
                                    const WordOptions& opts,
                                    const SearchConfig& cfg);

struct WriteMeasurement {
  bool ok = false;
  std::string error;
  arch::TernaryWord final_state;
  bool data_ok = false;  ///< final state decodes to the written data
  double energy = 0.0;   ///< write-line energy, joules
  double energy_per_cell = 0.0;
};

/// Build + simulate one write (three-phase for 1.5T1Fe, one-phase 2FeFET).
WriteMeasurement measure_write(arch::TcamDesign design, const WordOptions& opts,
                               const WriteConfig& cfg);

}  // namespace fetcam::tcam
