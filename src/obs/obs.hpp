// Process-wide observability level control.
//
// Every instrumentation site in the simulator is gated on obs::level():
//   kOff      no metrics, no spans — the hot paths pay one relaxed atomic
//             load per guarded block and nothing else (the default, so
//             baseline performance is untouched);
//   kMetrics  counters / gauges / distributions accumulate (obs/metrics.hpp);
//   kTrace    metrics plus Chrome-trace spans (obs/trace.hpp).
//
// The level starts from the FETCAM_OBS environment variable ("off",
// "metrics", "trace"; default off) and can be overridden programmatically
// (the fetcam_cli --obs-level flag).  Compiling with -DFETCAM_OBS_DISABLED
// (cmake -DFETCAM_OBS=OFF) pins level() to kOff as a compile-time constant
// so the optimizer removes every guarded block — the reference build for
// measuring off-mode overhead (see docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace fetcam::obs {

enum class Level : int { kOff = 0, kMetrics = 1, kTrace = 2 };

namespace detail {
extern std::atomic<int> g_level;
}

#ifdef FETCAM_OBS_DISABLED
inline Level level() { return Level::kOff; }
#else
inline Level level() {
  return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
}
#endif

/// True when counters/distributions should accumulate.
inline bool metrics_on() { return level() >= Level::kMetrics; }
/// True when ScopedSpan should record trace events.
inline bool trace_on() { return level() >= Level::kTrace; }

/// Set the process-wide level (no-op observable effect under
/// FETCAM_OBS_DISABLED).
void set_level(Level l);

/// Parse "off" / "metrics" / "trace".  Returns false on anything else.
bool parse_level(std::string_view s, Level& out);

std::string_view to_string(Level l);

/// Monotonic microseconds since the process's trace epoch (first call).
/// Shared clock for span timestamps and wall-clock reports.
double now_us();

/// Monotonic integer nanoseconds since the same trace epoch — the
/// fixed-point clock for every latency distribution (no doubles on the hot
/// path).
std::uint64_t now_ns();

}  // namespace fetcam::obs
