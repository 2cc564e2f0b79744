// Service stats snapshot: one deterministic JSON document assembled from
// the engine's lifetime totals, the obs registry's `engine.`-prefixed
// latency distributions, the slow-query log, and (when scraped over the
// wire) the server's and the requesting connection's counters.
//
// The same renderer backs every consumer so the schema cannot drift:
//   * SearchServer's kStats opcode (engine/server.cpp),
//   * fetcam_cli engine --stats-interval/--stats-out,
//   * bench_engine_throughput's stats artifact.
//
// Schema (keys always present, sorted sections; "fetcam.stats.v1"):
//   { "schema", "kernel_tier",
//     "engine":  {totals, queue gauges, in_flight, config},
//     "stages":  {"engine.<stage>": {count, p50_us, p95_us, p99_us,
//                                      p999_us, max_us, mean_us}, ...},
//     "slow_queries": [{seq, trace_id, total_us, requests, searches,
//                       fingerprint}, ...]  // worst first, top-8
//     "server", "connection" }              // null unless provided
//
// Stage percentiles populate only while the obs level is >= metrics (the
// distributions are hot-path-gated); the document itself is always valid.
#pragma once

#include <cstdint>
#include <string>

namespace fetcam::engine {

class SearchEngine;

/// Server-level counters for the "server" section of the snapshot.
struct ServerStatsView {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t stats_served = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t force_closes = 0;
};

/// Counters of the connection a scrape arrived on ("connection" section).
struct ConnectionStatsView {
  std::uint64_t id = 0;  ///< server-assigned connection ordinal
  std::uint64_t frames = 0;
  std::uint64_t rejected = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t in_flight = 0;
};

std::string stats_snapshot_json(const SearchEngine& engine,
                                const ServerStatsView* server = nullptr,
                                const ConnectionStatsView* conn = nullptr);

}  // namespace fetcam::engine
