#include "obs/latency.hpp"

#include <bit>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"

namespace fetcam::obs {

std::size_t Distribution::bucket_index(std::uint64_t v) {
  if (v < kSubCount) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const std::uint64_t sub = (v >> (msb - kSubBits)) & (kSubCount - 1);
  return ((static_cast<std::size_t>(msb) - kSubBits + 1) << kSubBits) +
         static_cast<std::size_t>(sub);
}

std::uint64_t Distribution::bucket_lower(std::size_t i) {
  if (i < kSubCount) return i;
  const std::size_t group = i >> kSubBits;
  const std::uint64_t sub = i & (kSubCount - 1);
  const int msb = static_cast<int>(group) + kSubBits - 1;
  return (1ull << msb) + (sub << (msb - kSubBits));
}

std::uint64_t Distribution::bucket_upper(std::size_t i) {
  if (i + 1 >= kBucketCount) return ~0ull;
  return bucket_lower(i + 1) - 1;
}

std::size_t Distribution::shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id & (kShards - 1);
}

std::vector<std::uint64_t> Distribution::bucket_counts() const {
  std::vector<std::uint64_t> merged(kBucketCount, 0);
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      merged[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

namespace {

/// Smallest recorded value with at least `rank` observations at or below
/// it, reported as its bucket's upper bound (clamped to the observed max).
std::uint64_t percentile_from(const std::vector<std::uint64_t>& buckets,
                              std::uint64_t count, std::uint64_t max,
                              std::uint64_t q_num, std::uint64_t q_den) {
  if (count == 0) return 0;
  // rank = ceil(count * q) in [1, count]; 128-bit so count can't overflow.
  unsigned __int128 prod =
      static_cast<unsigned __int128>(count) * q_num + (q_den - 1);
  std::uint64_t rank = static_cast<std::uint64_t>(prod / q_den);
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const std::uint64_t upper = Distribution::bucket_upper(i);
      return upper < max ? upper : max;
    }
  }
  return max;
}

}  // namespace

DistributionSnapshot Distribution::snapshot() const {
  DistributionSnapshot snap;
  const std::vector<std::uint64_t> merged = bucket_counts();
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    const std::uint64_t m = s.max.load(std::memory_order_relaxed);
    if (m > snap.max) snap.max = m;
  }
  snap.p50 = percentile_from(merged, snap.count, snap.max, 50, 100);
  snap.p95 = percentile_from(merged, snap.count, snap.max, 95, 100);
  snap.p99 = percentile_from(merged, snap.count, snap.max, 99, 100);
  snap.p999 = percentile_from(merged, snap.count, snap.max, 999, 1000);
  return snap;
}

void Distribution::reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

std::string distribution_json(const DistributionSnapshot& s, Unit unit,
                              std::string_view extra) {
  const bool ns = unit == Unit::kNanoseconds;
  const double scale = ns ? 1e3 : 1.0;
  const char* key_end = ns ? "_us\": " : "\": ";
  std::string out = "{\"count\": " + std::to_string(s.count);
  out += extra;
  const auto field = [&](const char* key, double v) {
    out += std::string(", \"") + key + key_end + detail::json_number(v);
  };
  field("p50", static_cast<double>(s.p50) / scale);
  field("p95", static_cast<double>(s.p95) / scale);
  field("p99", static_cast<double>(s.p99) / scale);
  field("p999", static_cast<double>(s.p999) / scale);
  field("max", static_cast<double>(s.max) / scale);
  field("mean", s.count == 0 ? 0.0
                             : static_cast<double>(s.sum) /
                                   (scale * static_cast<double>(s.count)));
  out += "}";
  return out;
}

WindowedSnapshot::WindowedSnapshot() : prev_s_(now_us() / 1e6) {}

std::string WindowedSnapshot::capture_json(double now_s) {
  using detail::json_escape;
  using detail::json_number;
  if (now_s < 0.0) now_s = now_us() / 1e6;
  double window_s = now_s - prev_s_;
  if (window_s <= 0.0) window_s = 0.0;
  const double inv_window = window_s > 0.0 ? 1.0 / window_s : 0.0;
  auto& reg = MetricsRegistry::instance();

  std::string out = "{\n  \"schema\": \"fetcam.window.v2\",\n";
  out += "  \"window\": " + std::to_string(++windows_) + ",\n";
  out += "  \"window_s\": " + json_number(window_s) + ",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, total] : reg.counter_values()) {
    const std::uint64_t prev = prev_counters_[name];
    const std::uint64_t delta = total - prev;
    prev_counters_[name] = total;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"total\": " +
           std::to_string(total) + ", \"delta\": " + std::to_string(delta) +
           ", \"rate_per_s\": " +
           json_number(static_cast<double>(delta) * inv_window) + "}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : reg.gauge_values()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + json_number(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"distributions\": {";
  first = true;
  for (const auto& d : reg.distribution_snapshots()) {
    const std::uint64_t prev = prev_distribution_counts_[d.name];
    const std::uint64_t delta = d.snap.count - prev;
    prev_distribution_counts_[d.name] = d.snap.count;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(d.name) + "\": " +
           distribution_json(
               d.snap, d.unit,
               ", \"delta\": " + std::to_string(delta) + ", \"rate_per_s\": " +
                   json_number(static_cast<double>(delta) * inv_window));
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";

  prev_s_ = now_s;
  return out;
}

}  // namespace fetcam::obs
