// Figure-of-merit extraction for the five TCAM designs (paper Table IV).
//
// Methodology (following Sec. V-B):
//  * Search latency: worst-case one-cell mismatch.  For the 1.5T1Fe designs
//    both the 1-step (mismatch in a cell1 position) and 2-step (mismatch in
//    a cell2 position) latencies are reported; the slow corner is the
//    stored-'1'-search-'0' case where TML is only partially turned on.
//  * Step-window sizing: a first pass with a generous window measures the
//    worst latency; energies are then measured with t_step = latency * (1 +
//    slack), mirroring the paper's "leave some time slack" sizing.  The
//    divider current of the 1.5T1Fe designs integrates over exactly this
//    window, which is why their search energy rises with word length
//    (Fig. 7b).
//  * Search energy: average case, half the cells storing '0' and half '1';
//    1-step = early-terminated search, 2-step = full search, average assumes
//    a 90 % step-1 miss rate.
//  * Write energy: cell-level, average case half '0' half '1', written over
//    the complementary previous data so every cell switches polarization
//    once (2FeFET cells switch both devices — twice the charge).
#pragma once

#include <optional>
#include <string>

#include "arch/area_model.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::eval {

struct FomOptions {
  /// Word length: >= 1, and >= 2 for the 1.5T1Fe designs, or every entry
  /// point throws std::invalid_argument before it builds a harness.
  int n_bits = 64;
  /// Read by nothing: no harness models the surrounding array's rows.  Kept
  /// only because the benchmark harness (perfbench/sim.cpp) still sets it;
  /// delete it with that line.
  int rows = 64;
  double vdd = 0.8;             ///< array supply (paper: 0.8 V)
  tcam::DeviceTuning tuning;    ///< DSE knobs; identity by default
  double miss1_rate = 0.90;    ///< fraction of rows missing in step 1
  double window_slack = 0.25;  ///< energy-pass window = latency * (1+slack)
  double probe_t_step = 1.5e-9;  ///< generous latency-pass window
  tcam::SearchTiming timing;     ///< precharge/edge/slack template
  tcam::WriteTiming write_timing;
};

struct DesignFom {
  arch::TcamDesign design = arch::TcamDesign::kCmos16T;
  std::string name;
  bool ok = false;
  std::string error;

  // Device-level reporting.
  double write_voltage = 0.0;  ///< |Vw| (0 = N.A.)
  double v_mvt = 0.0;          ///< X-state write voltage (1.5T1Fe only)
  double t_fe_nm = 0.0;        ///< ferroelectric thickness (0 = N.A.)

  // Cell level.
  double cell_area_um2 = 0.0;
  double write_energy_fj = 0.0;  ///< per cell (0 = N.A.)

  // Search.
  double latency_1step_ps = 0.0;  ///< 1.5T1Fe only (0 otherwise)
  double latency_ps = 0.0;        ///< full-operation worst-case latency
  double energy_1step_fj = 0.0;   ///< per cell (1.5T1Fe only)
  double energy_2step_fj = 0.0;   ///< per cell (1.5T1Fe only)
  double energy_avg_fj = 0.0;     ///< per cell, headline number
  tcam::EnergyBreakdown energy_breakdown;  ///< of the headline scenario
};

/// Evaluate one design.  Runs several transient simulations; a 64-bit word
/// takes on the order of a second.
DesignFom evaluate_fom(arch::TcamDesign design, const FomOptions& opts = {});

/// The worst-case one-cell-mismatch search latency (seconds) at the given
/// word length, plus the sized search timing used to measure it.  Exposed
/// separately for the Fig. 7 word-length sweep.
struct LatencyResult {
  bool ok = false;
  std::string error;
  double latency_1step = 0.0;  ///< 1.5T1Fe only
  double latency_full = 0.0;
  tcam::SearchTiming sized_timing;  ///< window sized to the measured latency
  /// 1.5T1Fe only: the full two-step search with a cell2-position mismatch
  /// in `sized_timing`.  It is also the 2-step energy scenario, so
  /// measure_search_energy reuses it instead of simulating it again.
  std::optional<tcam::SearchMeasurement> step2;
};
LatencyResult measure_worst_latency(arch::TcamDesign design,
                                    const FomOptions& opts);

/// Average-case search energy per cell (joules) in `lat.sized_timing`; for
/// 1.5T1Fe designs returns the (1-step, 2-step, miss-weighted average)
/// triple, for others the same single value three times.  The 2-step
/// scenario is taken from `lat.step2` when present and simulated otherwise;
/// both give the same bits.
struct SearchEnergyResult {
  bool ok = false;
  std::string error;
  double e1 = 0.0, e2 = 0.0, avg = 0.0;
  tcam::EnergyBreakdown breakdown;  ///< of the average-dominant scenario
};
SearchEnergyResult measure_search_energy(arch::TcamDesign design,
                                         const FomOptions& opts,
                                         const LatencyResult& lat);

/// Average-case write energy per cell (joules); nullopt for designs whose
/// write path is not modeled (16T CMOS).
std::optional<double> measure_write_energy(arch::TcamDesign design,
                                           const FomOptions& opts);

}  // namespace fetcam::eval
