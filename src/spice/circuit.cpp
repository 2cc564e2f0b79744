#include "spice/circuit.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace fetcam::spice {

// ---------------------------------------------------------------------------
// Stamper
// ---------------------------------------------------------------------------

void Stamper::stamp_branch_voltage(num::Index branch_index, NodeId plus,
                                   NodeId minus, double target_voltage) {
  const num::Index ibr = sys_index_branch(branch_index);
  const num::Index ip = sys_index_node(plus);
  const num::Index im = sys_index_node(minus);
  const double i_br = x_[ibr];

  // KCL contributions of the branch current (leaves `plus`, enters `minus`).
  if (ip >= 0) {
    residual_[ip] += i_br;
    jac_add(ip, ibr, 1.0);
  }
  if (im >= 0) {
    residual_[im] -= i_br;
    jac_add(im, ibr, -1.0);
  }
  // KVL row: v(plus) - v(minus) - target = 0.
  residual_[ibr] += v(plus) - v(minus) - target_voltage;
  if (ip >= 0) jac_add(ibr, ip, 1.0);
  if (im >= 0) jac_add(ibr, im, -1.0);
}

void Stamper::stamp_branch_vcvs(num::Index branch_index, NodeId plus,
                                NodeId minus, NodeId ctrl_plus,
                                NodeId ctrl_minus, double gain) {
  stamp_branch_voltage(branch_index, plus, minus,
                       gain * (v(ctrl_plus) - v(ctrl_minus)));
  // stamp_branch_voltage treated the control term as a constant; add its
  // derivatives to the KVL row.
  const num::Index ibr = sys_index_branch(branch_index);
  const num::Index icp = sys_index_node(ctrl_plus);
  const num::Index icm = sys_index_node(ctrl_minus);
  if (icp >= 0) jac_add(ibr, icp, -gain);
  if (icm >= 0) jac_add(ibr, icm, gain);
}

// ---------------------------------------------------------------------------
// Solution
// ---------------------------------------------------------------------------

double Solution::v(NodeId n) const {
  const num::Index i = ckt_.node_sys_index(n);
  return i < 0 ? 0.0 : x_[i];
}

double Solution::branch_current(num::Index branch_index) const {
  return x_[ckt_.branch_sys_index(branch_index)];
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

std::string Device::describe(const Circuit& ckt) const {
  std::ostringstream os;
  os << kind() << ' ' << name() << " (";
  const auto terms = terminals();
  for (std::size_t i = 0; i < terms.size(); ++i) {
    os << ckt.node_name(terms[i]);
    if (i + 1 != terms.size()) os << ", ";
  }
  os << ')';
  return os.str();
}

// ---------------------------------------------------------------------------
// Circuit
// ---------------------------------------------------------------------------

Circuit::Circuit() {
  node_names_.push_back("0");
  node_lookup_.emplace("0", kGround);
  // Common aliases for ground.
  node_lookup_.emplace("gnd", kGround);
  node_lookup_.emplace("GND", kGround);
}

NodeId Circuit::node(std::string_view name) {
  const std::string key(name);
  const auto it = node_lookup_.find(key);
  if (it != node_lookup_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(key);
  node_lookup_.emplace(key, id);
  finalized_ = false;
  return id;
}

NodeId Circuit::internal_node(std::string_view prefix) {
  std::ostringstream os;
  os << prefix << "#" << internal_counter_++;
  return node(os.str());
}

std::optional<NodeId> Circuit::find_node(std::string_view name) const {
  const auto it = node_lookup_.find(std::string(name));
  if (it == node_lookup_.end()) return std::nullopt;
  return it->second;
}

const std::string& Circuit::node_name(NodeId n) const {
  return node_names_.at(static_cast<std::size_t>(n));
}

Device& Circuit::add(std::unique_ptr<Device> dev) {
  if (device_lookup_.contains(dev->name())) {
    throw std::invalid_argument("duplicate device name: " + dev->name());
  }
  Device& ref = *dev;
  device_lookup_.emplace(dev->name(), dev.get());
  devices_.push_back(std::move(dev));
  finalized_ = false;
  return ref;
}

Device* Circuit::find_device(std::string_view name) const {
  const auto it = device_lookup_.find(std::string(name));
  return it == device_lookup_.end() ? nullptr : it->second;
}

void Circuit::finalize() {
  if (finalized_) return;
  branch_count_ = 0;
  for (const auto& dev : devices_) {
    if (dev->branch_count() > 0) {
      dev->set_branch_base(branch_count_);
      branch_count_ += dev->branch_count();
    }
  }
  system_size_ = static_cast<num::Index>(node_count()) - 1 + branch_count_;
  finalized_ = true;
}

std::vector<double> Circuit::breakpoints(double t_stop) const {
  std::vector<double> all;
  for (const auto& dev : devices_) {
    const auto bps = dev->breakpoints(t_stop);
    all.insert(all.end(), bps.begin(), bps.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace fetcam::spice
