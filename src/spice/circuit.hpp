// Circuit graph, device interface, and MNA stamping context.
//
// Conventions
// -----------
// * Node 0 is ground.  System unknowns are ordered [node voltages (1..N-1),
//   branch currents].  Ground rows/columns are silently discarded by the
//   Stamper so device code never special-cases ground.
// * The nonlinear system is written in residual form: for every non-ground
//   node n,  f_n(x) = sum of currents *leaving* n through all devices = 0.
//   A device adding current I flowing a -> b contributes +I to f_a, -I to
//   f_b, and the matching dI/dV entries to the Jacobian.
// * Voltage-source-like devices own one branch unknown each: the current
//   flowing from the + terminal through the source to the - terminal.
// * Devices are stateless inside one Newton solve (stamp() is const); all
//   history (capacitor charge, ferroelectric polarization) updates happen in
//   commit_step() after the timestep converged.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "spice/waveform.hpp"

namespace fetcam::spice {

using NodeId = int;
inline constexpr NodeId kGround = 0;

enum class AnalysisMode {
  kOperatingPoint,  ///< capacitors open, inductive/memory state frozen
  kTransient,       ///< companion models active
};

/// Per-evaluation context passed to Device::stamp().
struct EvalContext {
  AnalysisMode mode = AnalysisMode::kOperatingPoint;
  /// End time of the step being solved (seconds); 0 for OP.
  double time = 0.0;
  /// Step size; 0 for OP.
  double dt = 0.0;
  /// Conductance shunted from every nonlinear device node to ground during
  /// gmin continuation; devices with exponential I-V must add it themselves
  /// via Stamper::add_gmin().
  double gmin = 0.0;
  /// Source ramping factor in [0, 1] for source-stepping continuation;
  /// independent sources scale their value by this.
  double source_scale = 1.0;
  /// Integration scheme for charge-storage companion models.
  bool trapezoidal = false;
};

class Circuit;

/// Destination for Jacobian entries on the sparse paths: a triplet
/// accumulator (pattern discovery) or the slot-resolved flat CSC of
/// StampedCsc (replay).  Devices stamp through Stamper and never know which
/// solver runs.  Aliased to the numeric-layer interface so the Newton
/// drivers can hand their own sinks to circuit assembly without a
/// dependency inversion.
using JacobianSink = num::JacobianSink;

/// Write access to the MNA Jacobian and residual for one Newton iteration,
/// plus read access to the candidate solution.  The Jacobian destination is
/// either a dense matrix, written directly, or a JacobianSink; entries are
/// added in the same order either way.
class Stamper {
 public:
  Stamper(const Circuit& ckt, const num::Vector& x, num::Matrix& jac,
          num::Vector& residual)
      : ckt_(ckt), x_(x), dense_(&jac), residual_(residual) {}
  Stamper(const Circuit& ckt, const num::Vector& x, JacobianSink& jac,
          num::Vector& residual)
      : ckt_(ckt), x_(x), sink_(&jac), residual_(residual) {}

  /// Candidate voltage of a node (0 for ground).
  double v(NodeId n) const;
  /// Candidate current of a branch unknown.
  double branch_current(num::Index branch_index) const;

  /// Linear conductance g between nodes a and b: stamps both the Jacobian
  /// and the residual contribution g*(va - vb).
  void stamp_conductance(NodeId a, NodeId b, double g);

  /// Nonlinear current I flowing a -> b with partial derivatives already
  /// linearized by the caller: adds I to the residual and the given
  /// dI/d v(node) entries to rows a (+) and b (-).
  void add_current(NodeId a, NodeId b, double current);
  void add_current_derivative(NodeId a, NodeId b, NodeId wrt, double dIdV);

  /// gmin shunt from node to ground (no residual bias at v = 0).
  void add_gmin(NodeId n, double gmin);

  /// Branch (voltage-source row) helpers.  `branch_index` is the device's
  /// branch base + local index as assigned by Circuit::finalize().
  void stamp_branch_voltage(num::Index branch_index, NodeId plus, NodeId minus,
                            double target_voltage);
  /// Same KVL row but with extra dependence on other node voltages (VCVS):
  /// f_br = v(plus) - v(minus) - gain*(v(cp) - v(cm)).
  void stamp_branch_vcvs(num::Index branch_index, NodeId plus, NodeId minus,
                         NodeId ctrl_plus, NodeId ctrl_minus, double gain);

 private:
  num::Index sys_index_node(NodeId n) const;  // -1 for ground
  num::Index sys_index_branch(num::Index b) const;
  void jac_add(num::Index r, num::Index c, double v) {
    if (dense_ != nullptr) {
      (*dense_)(r, c) += v;
    } else {
      sink_->add(r, c, v);
    }
  }

  const Circuit& ckt_;
  const num::Vector& x_;
  num::Matrix* dense_ = nullptr;
  JacobianSink* sink_ = nullptr;
  num::Vector& residual_;
};

/// Read-only view of a converged solution, used by commit_step() and probes.
class Solution {
 public:
  Solution(const Circuit& ckt, const num::Vector& x) : ckt_(ckt), x_(x) {}
  double v(NodeId n) const;
  double branch_current(num::Index branch_index) const;
  const num::Vector& raw() const { return x_; }

 private:
  const Circuit& ckt_;
  const num::Vector& x_;
};

/// Base class for all circuit elements and device models.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  virtual std::string_view kind() const = 0;

  /// Number of branch-current unknowns this device owns.
  virtual int branch_count() const { return 0; }

  /// Contribute to the Jacobian/residual at candidate solution in `st`.
  virtual void stamp(const EvalContext& ctx, Stamper& st) const = 0;

  /// Called once after the operating point converged, before transient.
  virtual void initialize_state(const EvalContext& ctx, const Solution& sol) {
    (void)ctx;
    (void)sol;
  }

  /// Called after each converged transient step to roll history forward.
  virtual void commit_step(const EvalContext& ctx, const Solution& sol) {
    (void)ctx;
    (void)sol;
  }

  /// History-state change the converged trial step ending at `sol` would
  /// commit, normalised to the state's full scale (e.g. |dP|/Ps).  The
  /// transient step controller keeps grown steps under a fixed bound on it;
  /// devices without non-electrical state report 0.
  virtual double state_change(const EvalContext& ctx,
                              const Solution& sol) const {
    (void)ctx;
    (void)sol;
    return 0.0;
  }

  /// Source breakpoints in [0, t_stop] (edges the transient engine must hit).
  virtual std::vector<double> breakpoints(double t_stop) const {
    (void)t_stop;
    return {};
  }

  /// One-line human-readable netlist entry for debugging dumps.
  virtual std::string describe(const Circuit& ckt) const;

  num::Index branch_base() const { return branch_base_; }
  void set_branch_base(num::Index b) { branch_base_ = b; }

  /// Terminal nodes, for netlist printing and connectivity checks.
  virtual std::vector<NodeId> terminals() const = 0;

 private:
  std::string name_;
  num::Index branch_base_ = -1;
};

/// A flat netlist: named nodes plus an ordered list of devices.
class Circuit {
 public:
  Circuit();

  /// Get or create a named node.
  NodeId node(std::string_view name);
  /// Create a fresh internal node with a unique name derived from `prefix`.
  NodeId internal_node(std::string_view prefix);
  std::optional<NodeId> find_node(std::string_view name) const;
  const std::string& node_name(NodeId n) const;
  /// Total node count including ground.
  int node_count() const { return static_cast<int>(node_names_.size()); }

  /// Add a device; returns a reference with the concrete type preserved.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto dev = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *dev;
    add(std::move(dev));
    return ref;
  }
  Device& add(std::unique_ptr<Device> dev);

  std::span<const std::unique_ptr<Device>> devices() const { return devices_; }

  /// Look up a device by name; nullptr when absent.
  Device* find_device(std::string_view name) const;

  /// Assign branch indices and freeze the system size.  Called automatically
  /// by the analyses; idempotent until the netlist changes.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Unknown count: (nodes - 1) + branches.  Valid after finalize().
  num::Index system_size() const { return system_size_; }
  num::Index branch_count() const { return branch_count_; }

  /// System index of a node's voltage unknown (-1 for ground).
  num::Index node_sys_index(NodeId n) const { return n == kGround ? -1 : n - 1; }
  /// System index of a branch unknown.
  num::Index branch_sys_index(num::Index branch) const {
    return node_count() - 1 + branch;
  }

  /// All device breakpoints merged and sorted, for the transient engine.
  std::vector<double> breakpoints(double t_stop) const;

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_lookup_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, Device*> device_lookup_;
  num::Index branch_count_ = 0;
  num::Index system_size_ = 0;
  bool finalized_ = false;
  int internal_counter_ = 0;
};

// Stamper hot path, inline: device stamp() code calls these for every
// Jacobian entry of every Newton iteration.

inline num::Index Stamper::sys_index_node(NodeId n) const {
  return ckt_.node_sys_index(n);
}

inline num::Index Stamper::sys_index_branch(num::Index b) const {
  return ckt_.branch_sys_index(b);
}

inline double Stamper::v(NodeId n) const {
  const num::Index i = sys_index_node(n);
  return i < 0 ? 0.0 : x_[i];
}

inline double Stamper::branch_current(num::Index branch_index) const {
  return x_[sys_index_branch(branch_index)];
}

inline void Stamper::add_current(NodeId a, NodeId b, double current) {
  const num::Index ia = sys_index_node(a);
  const num::Index ib = sys_index_node(b);
  if (ia >= 0) residual_[ia] += current;
  if (ib >= 0) residual_[ib] -= current;
}

inline void Stamper::add_current_derivative(NodeId a, NodeId b, NodeId wrt,
                                            double dIdV) {
  const num::Index ia = sys_index_node(a);
  const num::Index ib = sys_index_node(b);
  const num::Index iw = sys_index_node(wrt);
  if (iw < 0) return;
  if (ia >= 0) jac_add(ia, iw, dIdV);
  if (ib >= 0) jac_add(ib, iw, -dIdV);
}

inline void Stamper::stamp_conductance(NodeId a, NodeId b, double g) {
  const double i = g * (v(a) - v(b));
  add_current(a, b, i);
  add_current_derivative(a, b, a, g);
  add_current_derivative(a, b, b, -g);
}

inline void Stamper::add_gmin(NodeId n, double gmin) {
  if (gmin <= 0.0) return;
  stamp_conductance(n, kGround, gmin);
}

}  // namespace fetcam::spice
