// Transient analysis and waveform traces.
//
// Steps sit on a lattice of the nominal timestep: every step lands on each
// source edge, ramps back up to dt after it, and in between grows to k*dt
// (k a power of two) while a backward-Euler local-truncation-error estimate
// and each device's state change (Device::state_change) stay in bound.
// Each step's Newton solve starts from the last step's slope extrapolated
// to the step's end, and nonlinear devices may bypass their models inside
// it.  Newton non-convergence halves the step and retries.  History state
// (capacitor charge, ferroelectric polarization) advances via
// Device::commit_step after every accepted step, so devices never see a
// rejected trial solution.  docs/SOLVER.md, "Time-step control", has the
// rules and why the edge grid is kept.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
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
  /// Waveform of a recorded voltage source (null if unknown): look it up
  /// once to evaluate it at many times.
  const Waveform* source_waveform(std::string_view device_name) const;
  /// Names of all recorded voltage sources.
  std::vector<std::string> source_names() const;

 private:
  num::Index node_index(std::string_view name) const;    // -1 if unknown
  num::Index branch_index(std::string_view name) const;  // -1 if unknown

  /// Hashes names as string views, so lookups build no std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <class V>
  using NameMap =
      std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

  NameMap<num::Index> node_sys_index_;
  /// Voltage-source name -> (system index of its branch, waveform copy).
  NameMap<std::pair<num::Index, Waveform>> sources_;
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
  /// A falling crossing of `level` by `node` at or after `t_after`.
  struct FallingCrossing {
    NodeId node = 0;
    double level = 0.0;
    double t_after = 0.0;
  };
  /// Latency-only runs: end the run at the first accepted step that
  /// completes this crossing, the one cross_time(..., Edge::kFalling,
  /// t_after) reports on the full trace.  t_stop, breakpoints and the step
  /// lattice stay those of the full run, so every recorded sample is
  /// bit-identical to it; the trace just ends there, and a run with no
  /// crossing runs to t_stop.
  std::optional<FallingCrossing> stop_at_fall;
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
  /// Nonlinear-device model evaluations in the steps, and the ones bypassed
  /// (docs/SOLVER.md, "Device bypass").
  std::uint64_t device_evaluations = 0;
  std::uint64_t device_bypasses = 0;
  /// The run ended at the TransientOptions::stop_at_fall crossing.
  bool stopped_early = false;
};

/// Run transient analysis.  Device history state is left at t_stop on
/// success, enabling chained runs (e.g. write pulse, then search pulse).
TransientResult run_transient(Circuit& ckt, const TransientOptions& opts);

}  // namespace fetcam::spice
