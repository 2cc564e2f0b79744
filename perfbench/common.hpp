// Shared plumbing of the benchmark program: the report every workload fills,
// wall-clock helpers, and order statistics.
//
// A workload measures from OUTSIDE the program: it times calls into each
// layer's public functions and never reads the program's own telemetry.
// Wall times come from std::chrono::steady_clock.  The gated figures are
// CPU times (CLOCK_PROCESS_CPUTIME_ID / CLOCK_THREAD_CPUTIME_ID): on a
// virtual machine whose kernel accounts steal time, they leave out the time
// the host runs other guests, which moves wall times by up to 2.5x.
// Numbers marked modelled are deterministic outputs of the simulated
// hardware.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU seconds used so far by the whole process (all threads).
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds used so far by the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// A pipeline's end-to-end figure split into layer parts plus an explicit
/// unattributed residue: parts + unattributed == total by construction.
struct Decomposition {
  std::string total_metric;
  std::string unit;
  double total = 0.0;
  std::vector<std::pair<std::string, double>> parts;
  double unattributed() const {
    double s = 0.0;
    for (const auto& p : parts) s += p.second;
    return total - s;
  }
};

/// Everything one workload run reports.
struct Report {
  std::string workload;
  bool traced = false;
  long long attempted = 0;
  long long failed = 0;
  /// Output checks: name -> passed.  A failed check also counts in
  /// `failed`.
  std::vector<std::pair<std::string, bool>> checks;
  /// The workload's own end-to-end rows, by name (qps, rtt_p50_us,
  /// commit_p90_ms, ...).
  std::map<std::string, Metric> rows;
  /// The cross-workload end-to-end metrics of the result line.
  std::map<std::string, Metric> e2e;
  /// Per-layer metrics (traced pass only).
  std::map<std::string, Metric> layers;
  std::vector<Decomposition> pipelines;

  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    ++attempted;
    if (!ok) ++failed;
  }
  void row(const std::string& name, double v, const std::string& unit) {
    rows[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    layers[name] = {v, unit};
  }
};

/// Workload size: the benchmark's sizes, or a tiny pass for the self-test.
enum class Size { kFull, kTiny };

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Size size = Size::kFull;
  int threads = 1;  ///< pinned pool size (util::set_thread_count)
};

/// Runs one pass of a workload.  `traced` adds the per-layer probes and
/// wrappers; the untraced pass measures the end-to-end metrics only.
Report run_lpm_serve(const RunArgs& args, bool traced);
Report run_rule_churn(const RunArgs& args, bool traced);
Report run_knn_embed(const RunArgs& args, bool traced);
Report run_dse_sweep(const RunArgs& args, bool traced);

/// Offered load of lpm_serve's open-loop wire phase, 64-query frames per
/// second: about a quarter of the wire capacity of the commit that defined
/// the benchmark, so queueing does not amplify host noise into the RTT.
inline constexpr double kLpmOfferedFps = 200.0;

}  // namespace perfbench
