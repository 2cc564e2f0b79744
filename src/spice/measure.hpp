// Waveform measurements: threshold crossings, rise/fall times, integrals,
// and source-energy accounting.
//
// These implement the paper's metrics: search latency = ML crossing of the
// sense threshold relative to the SeL edge; search/write energy = integral of
// source power over an operation window.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "spice/transient.hpp"

namespace fetcam::spice {

enum class Edge { kRising, kFalling, kEither };

/// First time after `t_after` where `values` crosses `level` with the given
/// edge direction; linearly interpolated between samples.
std::optional<double> cross_time(std::span<const double> times,
                                 std::span<const double> values, double level,
                                 Edge edge, double t_after = 0.0);

/// The crossing cross_time reports for the sample pair (t0, v0) -> (t1, v1)
/// when it gets that far: nullopt when the pair does not complete one.
std::optional<double> segment_cross(double t0, double v0, double t1,
                                    double v1, double level, Edge edge,
                                    double t_after);

/// 10%-90% rise time between `lo_frac` and `hi_frac` of [v_low, v_high].
std::optional<double> rise_time(std::span<const double> times,
                                std::span<const double> values, double v_low,
                                double v_high, double t_after = 0.0,
                                double lo_frac = 0.1, double hi_frac = 0.9);

/// Trapezoidal integral of `values` dt over [t0, t1] (clamped to the trace).
double integrate(std::span<const double> times, std::span<const double> values,
                 double t0, double t1);

/// Minimum / maximum over a window.
double window_min(std::span<const double> times,
                  std::span<const double> values, double t0, double t1);
double window_max(std::span<const double> times,
                  std::span<const double> values, double t0, double t1);

/// Value at time t (linear interpolation).
double sample_at(std::span<const double> times, std::span<const double> values,
                 double t);

/// Energy *delivered by* a voltage source over [t0, t1], joules.
/// With the branch current defined + -> (source) -> -, delivered power is
/// -V * I_branch.
double source_energy(const Trace& trace, std::string_view vsource_name,
                     double t0, double t1);

/// Total energy delivered by every voltage source whose name starts with
/// `prefix` ("" = all sources).  This is the per-operation energy metric.
double total_source_energy(const Trace& trace, std::string_view prefix,
                           double t0, double t1);

/// Charge delivered by a source over the window (integral of -I_branch).
double source_charge(const Trace& trace, std::string_view vsource_name,
                     double t0, double t1);

}  // namespace fetcam::spice
