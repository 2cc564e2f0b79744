// Common interface of the per-design TCAM word testbenches.
//
// A WordHarness owns a SPICE netlist of one N-bit TCAM word — cells, match
// line with wire parasitics, precharge device, sense amplifier, and drive
// sources — plus the waveform programming for one search or write operation.
// The evaluation layer runs transients on these netlists to extract the
// paper's latency/energy figures of merit.
//
// Harnesses are ONE-SHOT: construct, call build_search() or build_write()
// exactly once, run the transient, measure.  This allows an important
// optimization: columns whose cells are electrically identical for the
// configured operation (same stored digit, same drive waveforms) share one
// signal node and one driver source, with the column-line capacitive load
// lumped per column onto the shared node.  Voltages and total energies are
// unchanged (identical parallel subcircuits), while the MNA system stays
// small enough to sweep word lengths up to 256 bits.  Per-cell devices and
// per-cell match-line taps are always kept individual.
//
// Array context: every column line carries this row's fair share of its
// wire (column_share(), one vertical cell pitch per cell on the line); the
// row's own gate loads are devices.  A full M-row array (tcam/full_array.*)
// builds the same cells through the same placement functions and charges
// each column line M x that share, so a 1-row array IS this harness.
#pragma once

#include <string>
#include <vector>

#include "arch/ternary.hpp"
#include "spice/transient.hpp"
#include "tcam/op_program.hpp"
#include "tcam/parasitics.hpp"
#include "devices/tech14.hpp"
#include "tcam/sense_amp.hpp"

namespace fetcam::tcam {

/// Design-space tuning applied by the harnesses on top of the nominal
/// technology cards.  Identity by default — every existing experiment is
/// unchanged — and swept by the DSE subsystem (src/dse/, docs/DSE.md).
struct DeviceTuning {
  /// Ferroelectric thickness scale: t_FE, the coercive voltage (E_c t_FE)
  /// and the FG memory window (P t_FE / eps) all scale linearly with it to
  /// first order, so thinner FE lowers the write voltage/energy at the
  /// price of sense margin.
  double t_fe_scale = 1.0;
  /// TP/TN width scale of the 1.5T1Fe divider (no-op for other designs):
  /// wider control transistors stiffen the divider (and cost area via
  /// AreaParams::control_t_unit) but raise its static current.
  double control_w_scale = 1.0;
  /// Sense-threshold trim, volts.  1.5T1Fe: added to the TML V_T (the
  /// match/mismatch decision level).  2FeFET: added to the search gate
  /// voltage — more overdrive discharges faster but erodes HVT margin.
  double sense_trim_v = 0.0;
};

struct WordOptions {
  int n_bits = 64;
  /// Read by nothing: it does not change the simulated column-line loads.
  /// Kept only because the benchmark harness (perfbench/sim.cpp) still
  /// sets it; delete it with that line.
  int rows_in_array = 64;
  double vdd = 0.8;
  DeviceTuning tuning;     ///< DSE knobs; identity by default
  WireTech wire;
  /// Junction temperature; every device card is retargeted via
  /// dev::tech14::at_temperature (300 K = characterization point).
  double temperature_k = 300.0;
  /// Global process corner applied to every device card.
  dev::tech14::Corner corner = dev::tech14::Corner::kTypical;
};

/// One search operation: stored word, query, timing, and how many of the
/// design's evaluation steps to run (fewer than search_steps() simulates an
/// early-terminated search: the remaining SeL stays grounded).
struct SearchConfig {
  arch::TernaryWord stored;
  arch::BitWord query;
  SearchTiming timing;
  int steps = 0;  ///< 0 = all of the design's steps
};

/// One write operation: target data and the pre-existing stored word the
/// cells hold before the write (writes must work from any prior state).
struct WriteConfig {
  arch::TernaryWord data;
  arch::TernaryWord initial;  ///< empty = all-'0' (erased)
  WriteTiming timing;
};

/// One row's match line as place_match_line builds it.
struct MatchLine {
  std::vector<spice::NodeId> taps;
  PrechargeHandles pre;
  SenseAmpHandles sa;
  spice::VoltageSource* clamp_gate = nullptr;  ///< write clamp, if placed
};

/// Build one row's ML: `taps` RC wire segments of `cells_per_tap` cell
/// pitches each (nodes "ml<row><k>"), the precharge PMOS at tap 0 and the
/// SA at the last tap (both named by `periph`), and, with `write_clamp`, the
/// 2FeFET ML write clamp NMOS at tap 0 (gate grounded; "MMLRST<row>").
/// Every word harness and full array builds its MLs here.
MatchLine place_match_line(spice::Circuit& ckt, const WordOptions& opts,
                           double pitch, int taps, int cells_per_tap,
                           const std::string& row, const std::string& periph,
                           bool write_clamp);

/// Program a search precharge: ML held at VDD during [10 ps,
/// t_precharge], then released.  The ML starts discharged (the common case:
/// the previous search missed), so the supply is billed the full C*V^2.
void program_precharge(const PrechargeHandles& pre, double vdd,
                       const SearchTiming& t);

class WordHarness {
 public:
  virtual ~WordHarness() = default;
  WordHarness(const WordHarness&) = delete;
  WordHarness& operator=(const WordHarness&) = delete;

  virtual std::string design_name() const = 0;
  /// Search evaluation steps: 1 for 2FeFET, 2 for 1.5T1Fe.
  virtual int search_steps() const = 0;
  /// Write phases: 1 for 2FeFET, 3 for 1.5T1Fe.
  virtual int write_phases() const = 0;
  /// Cell pitch along the match line, meters (from the layout area model).
  virtual double cell_pitch() const = 0;

  /// Build the netlist and program all waveforms for one search.  One-shot.
  virtual void build_search(const SearchConfig& cfg) = 0;
  /// Build the netlist and program all waveforms for one write.  One-shot.
  virtual void build_write(const WriteConfig& cfg) = 0;

  /// Decode the stored word from device polarization state (valid after a
  /// build_* call; after a simulated write it reflects the written data).
  virtual arch::TernaryWord read_stored() const = 0;

  /// Simulation end time of the operation programmed by the last build_*.
  double t_stop() const { return t_stop_; }
  /// Suggested transient timestep for the programmed operation.
  double suggested_dt() const { return dt_; }

  int n_bits() const { return opts_.n_bits; }
  const WordOptions& options() const { return opts_; }
  spice::Circuit& circuit() { return ckt_; }
  const spice::Circuit& circuit() const { return ckt_; }

  /// One row's share of a column line: the wire over one vertical cell
  /// pitch.  Column lines serve every row's search at once, and this row's
  /// own gate loads are already devices.
  double column_share() const {
    return wire_for_pitch(opts_.wire, cell_pitch()).capacitance;
  }

  /// ML node at the sense amplifier (search builds only).
  spice::NodeId ml_sense_node() const { return ml_sense_; }
  spice::NodeId sa_out_node() const { return sa_.out; }
  const PrechargeHandles& precharge() const { return pre_; }

 protected:
  explicit WordHarness(WordOptions opts) : opts_(opts) {}

  /// place_match_line into this harness's circuit (periphery "ml"); keeps
  /// the precharge, SA and sense node.
  MatchLine build_match_line(int taps, int cells_per_tap,
                             bool write_clamp = false);

  void program_precharge(const SearchTiming& t) {
    tcam::program_precharge(pre_, opts_.vdd, t);
  }

  void assert_unbuilt() const;
  void mark_built(double t_stop, double dt) {
    built_ = true;
    t_stop_ = t_stop;
    dt_ = dt;
  }

  WordOptions opts_;
  spice::Circuit ckt_;
  PrechargeHandles pre_;
  SenseAmpHandles sa_;
  spice::NodeId ml_sense_ = -1;
  bool built_ = false;
  double t_stop_ = 0.0;
  double dt_ = 2e-12;
};

}  // namespace fetcam::tcam
