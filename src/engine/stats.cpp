#include "engine/stats.hpp"

#include <cstdio>

#include "engine/engine.hpp"
#include "engine/packed_kernel.hpp"
#include "obs/json_util.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace fetcam::engine {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string stats_snapshot_json(const SearchEngine& engine,
                                const ServerStatsView* server,
                                const ConnectionStatsView* conn) {
  using obs::detail::json_number;
  std::string out = "{\n  \"schema\": \"fetcam.stats.v1\",\n";
  out += "  \"kernel_tier\": \"";
  out += kernel_tier_name(best_kernel_tier());
  out += "\",\n";

  out += "  \"engine\": {";
  out += "\"batches\": " + u64(engine.batches());
  out += ", \"requests\": " + u64(engine.requests());
  out += ", \"searches\": " + u64(engine.searches());
  out += ", \"writes\": " + u64(engine.writes());
  out += ", \"driver_stalls\": " + std::to_string(engine.driver_stalls());
  out += ", \"driver_cycles\": " + std::to_string(engine.driver_cycles());
  out += ", \"model_time_s\": " + json_number(engine.model_time_s());
  out += ", \"queue_depth\": " + u64(engine.queue_depth());
  out += ", \"queue_capacity\": " + u64(engine.queue_capacity());
  out += ", \"queue_high_watermark\": " + u64(engine.queue_high_watermark());
  out += ", \"in_flight\": " + u64(engine.in_flight());
  // Phase A runs on the shared pool, so its size is the dispatcher count.
  out += ", \"dispatch_threads\": " + std::to_string(util::thread_count());
  out += ", \"query_block\": " + std::to_string(engine.query_block());
  const long long considered = engine.mats_considered();
  const long long skipped = engine.mats_skipped();
  out += ", \"mats_considered\": " + std::to_string(considered);
  out += ", \"mats_skipped\": " + std::to_string(skipped);
  out += ", \"mat_skip_rate\": " +
         json_number(considered > 0 ? static_cast<double>(skipped) /
                                          static_cast<double>(considered)
                                    : 0.0);
  out += "},\n";

  // Only the engine's own stage timings: the registry is process-wide and
  // also holds simulator and test distributions.
  out += "  \"stages\": {";
  bool first = true;
  for (const auto& d :
       obs::MetricsRegistry::instance().distribution_snapshots()) {
    if (d.unit != obs::Unit::kNanoseconds || !d.name.starts_with("engine.")) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + obs::detail::json_escape(d.name) +
           "\": " + obs::distribution_json(d.snap, d.unit);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"slow_queries\": [";
  first = true;
  for (const SlowQuery& q : engine.slow_queries()) {
    out += first ? "\n" : ",\n";
    first = false;
    char fp[32];
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(q.fingerprint));
    out += "    {\"seq\": " + u64(q.seq) +
           ", \"trace_id\": " + u64(q.trace_id) + ", \"total_us\": " +
           json_number(static_cast<double>(q.total_ns) / 1e3) +
           ", \"requests\": " + std::to_string(q.requests) +
           ", \"searches\": " + std::to_string(q.searches) +
           ", \"fingerprint\": \"" + fp + "\"}";
  }
  out += first ? "],\n" : "\n  ],\n";

  if (server != nullptr) {
    out += "  \"server\": {";
    out += "\"connections_accepted\": " + u64(server->connections_accepted);
    out += ", \"connections_open\": " + u64(server->connections_open);
    out += ", \"frames_served\": " + u64(server->frames_served);
    out += ", \"frames_rejected\": " + u64(server->frames_rejected);
    out += ", \"stats_served\": " + u64(server->stats_served);
    out += ", \"backpressure_stalls\": " + u64(server->backpressure_stalls);
    out += ", \"force_closes\": " + u64(server->force_closes);
    out += "},\n";
  } else {
    out += "  \"server\": null,\n";
  }

  if (conn != nullptr) {
    out += "  \"connection\": {";
    out += "\"id\": " + u64(conn->id);
    out += ", \"frames\": " + u64(conn->frames);
    out += ", \"rejected\": " + u64(conn->rejected);
    out += ", \"backpressure_stalls\": " + u64(conn->backpressure_stalls);
    out += ", \"in_flight\": " + u64(conn->in_flight);
    out += "}\n";
  } else {
    out += "  \"connection\": null\n";
  }

  out += "}\n";
  return out;
}

}  // namespace fetcam::engine
