#include "spice/measure.hpp"

#include "spice/elements.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fetcam::spice {

namespace {

double interp(double t0, double v0, double t1, double v1, double t) {
  const double span = t1 - t0;
  if (span <= 0.0) return v1;
  return v0 + (v1 - v0) * (t - t0) / span;
}

}  // namespace

std::optional<double> cross_time(std::span<const double> times,
                                 std::span<const double> values, double level,
                                 Edge edge, double t_after) {
  assert(times.size() == values.size());
  for (std::size_t k = 1; k < times.size(); ++k) {
    const auto tc = segment_cross(times[k - 1], values[k - 1], times[k],
                                  values[k], level, edge, t_after);
    if (tc) return tc;
  }
  return std::nullopt;
}

std::optional<double> segment_cross(double t0, double v0, double t1,
                                    double v1, double level, Edge edge,
                                    double t_after) {
  if (t1 < t_after) return std::nullopt;
  const bool rising = v0 < level && v1 >= level;
  const bool falling = v0 > level && v1 <= level;
  const bool hit = (edge == Edge::kRising && rising) ||
                   (edge == Edge::kFalling && falling) ||
                   (edge == Edge::kEither && (rising || falling));
  if (!hit) return std::nullopt;
  const double tc = t0 + (t1 - t0) * (level - v0) / (v1 - v0);
  if (tc >= t_after) return tc;
  return std::nullopt;
}

std::optional<double> rise_time(std::span<const double> times,
                                std::span<const double> values, double v_low,
                                double v_high, double t_after, double lo_frac,
                                double hi_frac) {
  const double lo = v_low + lo_frac * (v_high - v_low);
  const double hi = v_low + hi_frac * (v_high - v_low);
  const auto t_lo = cross_time(times, values, lo, Edge::kRising, t_after);
  if (!t_lo) return std::nullopt;
  const auto t_hi = cross_time(times, values, hi, Edge::kRising, *t_lo);
  if (!t_hi) return std::nullopt;
  return *t_hi - *t_lo;
}

double sample_at(std::span<const double> times, std::span<const double> values,
                 double t) {
  assert(!times.empty() && times.size() == values.size());
  if (t <= times.front()) return values.front();
  if (t >= times.back()) return values.back();
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times.begin());
  return interp(times[hi - 1], values[hi - 1], times[hi], values[hi], t);
}

double integrate(std::span<const double> times, std::span<const double> values,
                 double t0, double t1) {
  assert(times.size() == values.size());
  if (times.empty() || t1 <= t0) return 0.0;
  double acc = 0.0;
  for (std::size_t k = 1; k < times.size(); ++k) {
    double ta = times[k - 1];
    double tb = times[k];
    if (tb <= t0 || ta >= t1) continue;
    double va = values[k - 1];
    double vb = values[k];
    if (ta < t0) {
      va = interp(ta, va, tb, vb, t0);
      ta = t0;
    }
    if (tb > t1) {
      vb = interp(times[k - 1], values[k - 1], times[k], values[k], t1);
      tb = t1;
    }
    acc += 0.5 * (va + vb) * (tb - ta);
  }
  return acc;
}

double window_min(std::span<const double> times,
                  std::span<const double> values, double t0, double t1) {
  double m = sample_at(times, values, t0);
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (times[k] >= t0 && times[k] <= t1) m = std::min(m, values[k]);
  }
  m = std::min(m, sample_at(times, values, t1));
  return m;
}

double window_max(std::span<const double> times,
                  std::span<const double> values, double t0, double t1) {
  double m = sample_at(times, values, t0);
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (times[k] >= t0 && times[k] <= t1) m = std::max(m, values[k]);
  }
  m = std::max(m, sample_at(times, values, t1));
  return m;
}

double source_energy(const Trace& trace, std::string_view vsource_name,
                     double t0, double t1) {
  const auto& times = trace.times();
  const auto ib = trace.branch_current(vsource_name);
  const Waveform* source = trace.source_waveform(vsource_name);
  if (ib.empty() || source == nullptr) return 0.0;
  std::vector<double> power(times.size());
  for (std::size_t k = 0; k < times.size(); ++k) {
    power[k] = -source->value(times[k]) * ib[k];
  }
  return integrate(times, power, t0, t1);
}

double total_source_energy(const Trace& trace, std::string_view prefix,
                           double t0, double t1) {
  double total = 0.0;
  for (const auto& name : trace.source_names()) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    total += source_energy(trace, name, t0, t1);
  }
  return total;
}

double source_charge(const Trace& trace, std::string_view vsource_name,
                     double t0, double t1) {
  const auto& times = trace.times();
  auto ib = trace.branch_current(vsource_name);
  if (ib.empty()) return 0.0;
  for (double& v : ib) v = -v;
  return integrate(times, ib, t0, t1);
}

}  // namespace fetcam::spice
