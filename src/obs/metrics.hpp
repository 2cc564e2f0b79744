// Thread-safe solver-health and service metrics: counters, gauges, and
// log-linear distributions (obs/latency.hpp) in a process-wide registry
// with deterministic ordered export.
//
// Usage pattern at an instrumentation site (one magic-static registration,
// then lock-free relaxed atomics on the hot path):
//
//   static obs::Counter& solves =
//       obs::MetricsRegistry::instance().counter("newton.solves");
//   if (obs::metrics_on()) solves.add();
//
// Determinism: count-valued metrics (iterations, rejections, fallbacks) are
// pure sums of schedule-independent work, so their totals are identical at
// any thread count; only wall-time distributions vary run to run.  Export
// iterates a std::map, so the JSON / table ordering is byte-stable
// regardless of registration order.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.hpp"
#include "obs/obs.hpp"

namespace fetcam::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// add(1) gated on metrics_on() — for sites without their own guard.
  void inc() {
    if (metrics_on()) add(1);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins double value (thread counts, configured sizes, ...).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// One registered distribution as export sees it.
struct NamedDistribution {
  std::string name;
  Unit unit;
  DistributionSnapshot snap;
};

/// Process-wide metric registry.  Registration takes a mutex (once per call
/// site thanks to magic statics); the returned references are stable for the
/// process lifetime, and value access is lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Distribution of nanosecond timings, exported in microseconds.
  Distribution& latency(std::string_view name);
  /// Distribution of dimensionless counts (iterations, ratios in ppb).
  /// Both kinds share one name space; the first registration's unit wins.
  Distribution& distribution(std::string_view name);

  /// All counter name/value pairs in name order (used by run manifests to
  /// assemble the solver-health summary).
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  /// All gauge name/value pairs in name order.
  std::vector<std::pair<std::string, double>> gauge_values() const;
  /// Merged snapshots of every distribution, in name order.
  std::vector<NamedDistribution> distribution_snapshots() const;

  /// Deterministic JSON export: top-level {"counters", "gauges",
  /// "distributions"}, each object sorted by metric name.
  std::string to_json() const;
  /// Human-readable aligned table of every metric.
  std::string to_table() const;
  bool write_json(const std::string& path) const;

  /// Zero every value (registrations survive).  Test / per-run isolation.
  void reset();

 private:
  MetricsRegistry() = default;
  Distribution& register_distribution(std::string_view name, Unit unit);

  struct Registered {
    Unit unit;
    std::unique_ptr<Distribution> dist;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, Registered, std::less<>> distributions_;
};

}  // namespace fetcam::obs
