// Transient analysis and waveform traces.
//
// Steps sit on a lattice of the nominal timestep: every step lands on each
// source edge, ramps back up to dt after it, and in between grows to k*dt
// (k a power of two) while a backward-Euler local-truncation-error estimate
// and each device's state change (Device::state_change) stay in bound.
// Newton non-convergence halves the step and retries.  History state
// (capacitor charge, ferroelectric polarization) advances via
// Device::commit_step after every accepted step, so devices never see a
// rejected trial solution.  docs/SOLVER.md, "Time-step control", has the
// rules and why the edge grid is kept.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "numeric/newton.hpp"
#include "spice/circuit.hpp"
#include "spice/op.hpp"

namespace fetcam::spice {

/// Recorded waveforms for every unknown of a transient run.
///
/// Self-contained: the node-name and source-name lookup tables are
/// snapshotted at construction, so a Trace stays valid after the Circuit it
/// was recorded from is destroyed (measurement helpers hand traces across
/// harness lifetimes).
class Trace {
 public:
  /// Empty trace, fillable by assignment from a simulation result.
  Trace() = default;
  explicit Trace(const Circuit& ckt);

  void append(double t, const num::Vector& x);

  /// Capacity planning: pre-allocate for `samples` appends so the steady
  /// recording path never reallocates.  The transient engine estimates the
  /// count from t_stop / dt plus breakpoints.
  void reserve(std::size_t samples);
  /// Return over-reserved capacity after recording finished (long MC sweeps
  /// hold many traces alive at once).
  void shrink_to_fit();

  std::size_t size() const { return times_.size(); }
  const std::vector<double>& times() const { return times_; }

  /// Voltage waveform of a named node (empty if unknown).
  std::vector<double> voltage(std::string_view node_name) const;
  /// Branch-current waveform of a named voltage-source-like device (local
  /// branch 0; empty if unknown).  Sign convention: current flowing from
  /// the + terminal through the device to the - terminal.
  std::vector<double> branch_current(std::string_view device_name) const;

  /// Linear interpolation of a node voltage at time t (0 if unknown).
  double voltage_at_time(std::string_view node_name, double t) const;

  /// Source value (not branch current) of a recorded voltage source at t.
  double source_value(std::string_view device_name, double t) const;
  /// Names of all recorded voltage sources.
  std::vector<std::string> source_names() const;

 private:
  num::Index node_index(std::string_view name) const;    // -1 if unknown
  num::Index branch_index(std::string_view name) const;  // -1 if unknown

  std::unordered_map<std::string, num::Index> node_sys_index_;
  /// Voltage-source name -> (system index of its branch, waveform copy).
  std::unordered_map<std::string, std::pair<num::Index, Waveform>> sources_;
  std::vector<double> times_;
  std::vector<num::Vector> samples_;
};

struct TransientOptions {
  double t_stop = 0.0;
  /// Nominal timestep: the lattice unit.  The engine subdivides it near
  /// breakpoints and on convergence trouble, and grows quiet stretches to
  /// power-of-two multiples of it.  dt and dt_min must be finite and
  /// positive and t_stop finite, or run_transient returns ok = false.
  double dt = 1e-12;
  double dt_min = 1e-16;
  bool trapezoidal = false;
  double gmin = 1e-12;
  /// Newton settings of the time steps.
  num::NewtonOptions newton;
  /// The operating point's settings; its `solver` and
  /// `reuse_factorization` also apply to every time step.
  OpOptions op;
  /// Skip the operating point and start from all-zero state (used when the
  /// caller wants a cold power-up transient).
  bool skip_op = false;
  /// Optional external solver workspace, shared by the OP and every step.
  /// Callers running many transients (MC trials, chained pulses) pass the
  /// same workspace so no run allocates its Jacobian and factorization
  /// again and the sparse path keeps its factorization context hot; any
  /// circuit and size may follow any other.  When null the engine uses one
  /// internal workspace for the whole run.
  num::NewtonWorkspace* workspace = nullptr;
};

struct TransientResult {
  bool ok = false;
  std::string error;
  Trace trace;
  int total_newton_iterations = 0;
  int accepted_steps = 0;
  /// Accepted steps longer than dt (grown by the step controller).
  int grown_steps = 0;
  /// Steps retried for Newton non-convergence.
  int rejected_steps = 0;
  /// Grown steps retried at dt because the error estimate or a device
  /// state change exceeded its bound.
  int lte_rejected_steps = 0;
};

/// Run transient analysis.  Device history state is left at t_stop on
/// success, enabling chained runs (e.g. write pulse, then search pulse).
TransientResult run_transient(Circuit& ckt, const TransientOptions& opts);

}  // namespace fetcam::spice
