// Lock-free log-linear distributions: the one histogram type behind every
// percentile the obs layer reports (solver iteration counts, LU / chunk
// timings, engine stage latencies; docs/OBSERVABILITY.md).
//
// A Distribution is a fixed-point log2-bucketed histogram of dimensionless
// u64 values sharded across cache-line-aligned slots: record() is a
// handful of relaxed atomic RMWs on the calling thread's shard — no
// doubles, no mutex, no allocation — so it is safe on the million-qps hot
// path at any level.  snapshot() merges the shards into exact integer
// counts and extracts p50 / p95 / p99 / p99.9 by cumulative walk over the
// bucket bounds.  The unit is carried by the registration
// (MetricsRegistry::latency() = nanoseconds, distribution() = counts), not
// by the recorder.
//
// Bucketing: values below 2^kSubBits land in exact unit buckets; above
// that each power-of-two octave is split into 2^kSubBits linear
// sub-buckets (HdrHistogram-style), bounding the relative quantization
// error of a reported percentile to one sub-bucket (< 2^-kSubBits of the
// value).  The bucket layout is a pure function of the value, so merged
// counts are bit-identical regardless of which thread recorded what.
//
//   static obs::Distribution& lat =
//       obs::MetricsRegistry::instance().latency("engine.stage.apply");
//   if (obs::metrics_on()) {
//     const std::uint64_t t0 = obs::now_ns();
//     ...  // timed region
//     lat.record(obs::now_ns() - t0);
//   }
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace fetcam::obs {

/// Merged view of a Distribution at one instant, in recorded units.
struct DistributionSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

/// What a distribution's recorded values mean; set at registration.
enum class Unit {
  kNanoseconds,  ///< exported in microseconds under `*_us` keys
  kCount,        ///< exported as-is under bare keys
};

class Distribution {
 public:
  /// Linear sub-buckets per octave = 2^kSubBits.
  static constexpr int kSubBits = 3;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
  /// Bucket count covering the full uint64 range: unit buckets
  /// [0, 2^kSubBits) plus (64 - kSubBits) octaves x 2^kSubBits sub-buckets.
  static constexpr std::size_t kBucketCount =
      ((64 - kSubBits) << kSubBits) + kSubCount;
  /// Shards threads hash into (power of two).  More shards = less false
  /// sharing under concurrent recording; merged counts are unaffected.
  static constexpr std::size_t kShards = 8;

  Distribution() = default;
  Distribution(const Distribution&) = delete;
  Distribution& operator=(const Distribution&) = delete;

  /// Hot path: relaxed fetch_adds on this thread's shard.  Never blocks.
  void record(std::uint64_t v) {
    Shard& s = shards_[shard_index()];
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = s.max.load(std::memory_order_relaxed);
    while (prev < v && !s.max.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }

  /// Merge every shard and extract count / sum / max / percentiles.
  DistributionSnapshot snapshot() const;

  /// Merged per-bucket counts (tests: bit-exactness under concurrency).
  std::vector<std::uint64_t> bucket_counts() const;

  /// Zero every shard (not atomic with respect to concurrent recorders —
  /// test / per-run isolation only, like MetricsRegistry::reset()).
  void reset();

  // Bucket layout (static so tests can cross-check the mapping).
  static std::size_t bucket_index(std::uint64_t v);
  /// Smallest value mapping to bucket i.
  static std::uint64_t bucket_lower(std::size_t i);
  /// Largest value mapping to bucket i (the reported percentile value —
  /// conservative: a percentile never under-reports its bucket).
  static std::uint64_t bucket_upper(std::size_t i);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  static std::size_t shard_index();

  std::array<Shard, kShards> shards_{};
};

/// The one percentile JSON formatter: `{"count": N<extra>, "p50": ...,
/// "p95", "p99", "p999", "max", "mean"}`.  kNanoseconds values are printed
/// in microseconds with a `_us` key suffix; kCount values print bare.
/// `extra` (already formatted `, "key": value` pairs) lands after count.
std::string distribution_json(const DistributionSnapshot& s, Unit unit,
                              std::string_view extra = {});

/// Periodic deterministic JSON exporter over the process registry: each
/// capture reports the DELTA window since the previous capture (totals,
/// per-window deltas, rates) for counters and distributions, plus current
/// gauge values.  Keys iterate sorted registry maps, so the JSON key order
/// is byte-stable run to run; only the rate values (wall-clock dependent)
/// vary.  Not thread-safe: callers serialize captures (the CLI sampler
/// thread and the server completion thread each own one).
class WindowedSnapshot {
 public:
  WindowedSnapshot();

  /// Capture a window ending now.  `now_s` overrides the clock for tests
  /// (< 0 = use obs::now_us()).  First capture windows from construction.
  std::string capture_json(double now_s = -1.0);

 private:
  double prev_s_ = 0.0;
  std::uint64_t windows_ = 0;
  std::map<std::string, std::uint64_t> prev_counters_;
  std::map<std::string, std::uint64_t> prev_distribution_counts_;
};

}  // namespace fetcam::obs
