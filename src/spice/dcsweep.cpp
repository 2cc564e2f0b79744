#include "spice/dcsweep.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fetcam::spice {

std::vector<double> DcSweepResult::voltage(const Circuit& ckt,
                                           std::string_view node_name) const {
  std::vector<double> out;
  const auto n = ckt.find_node(node_name);
  if (!n) return out;
  const num::Index idx = ckt.node_sys_index(*n);
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(idx < 0 ? 0.0 : p.x[idx]);
  return out;
}

std::vector<double> DcSweepResult::branch_current(
    const Circuit& ckt, std::string_view device_name) const {
  std::vector<double> out;
  const Device* dev = ckt.find_device(device_name);
  if (dev == nullptr || dev->branch_count() == 0) return out;
  const num::Index idx = ckt.branch_sys_index(dev->branch_base());
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.x[idx]);
  return out;
}

std::vector<double> DcSweepResult::sweep_values() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.sweep_value);
  return out;
}

DcSweepResult dc_sweep(Circuit& ckt, VoltageSource& source, double v_start,
                       double v_stop, int steps, const OpOptions& opts) {
  const obs::ScopedSpan span("spice.dc_sweep", "spice");
  static obs::Counter& sweeps =
      obs::MetricsRegistry::instance().counter("dcsweep.sweeps");
  static obs::Counter& points =
      obs::MetricsRegistry::instance().counter("dcsweep.points");
  static obs::Counter& nonconverged =
      obs::MetricsRegistry::instance().counter("dcsweep.nonconverged");
  sweeps.inc();
  DcSweepResult res;
  res.ok = true;
  res.points.reserve(static_cast<std::size_t>(steps) + 1);
  const Waveform saved = source.waveform();
  num::Vector seed;
  // Every sweep point solves the same topology at a different source value,
  // so one workspace carries the factorization context across all points.
  num::NewtonWorkspace ws;
  for (int k = 0; k <= steps; ++k) {
    const double v =
        v_start + (v_stop - v_start) * static_cast<double>(k) / steps;
    source.set_waveform(Waveform::dc(v));
    const OpResult op = solve_op(
        ckt, opts, seed.size() == ckt.system_size() ? &seed : nullptr, &ws);
    DcSweepPoint pt;
    pt.sweep_value = v;
    pt.converged = op.converged;
    pt.x = op.x;
    if (op.converged) {
      seed = op.x;
    } else {
      res.ok = false;
      nonconverged.inc();
    }
    points.inc();
    res.points.push_back(std::move(pt));
  }
  source.set_waveform(saved);
  return res;
}

}  // namespace fetcam::spice
