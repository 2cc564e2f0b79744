// Service-telemetry tests for the engine request path: queue/in-flight
// gauges drain back to zero, the slow-query log ranks worst-first, the
// stats snapshot JSON carries every documented section, and — the
// determinism contract — results are bit-identical with telemetry off,
// at metrics level, and in a FETCAM_OBS=OFF build.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/stats.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fetcam::engine {
namespace {

constexpr int kCols = 16;

TableConfig test_config() {
  TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = 4;
  cfg.rows_per_mat = 32;
  cfg.cols = kCols;
  cfg.subarrays_per_mat = 4;
  return cfg;
}

Trace test_trace() {
  TraceSpec spec;
  spec.kind = TraceKind::kIpPrefix;
  spec.cols = kCols;
  spec.rules = 64;
  spec.queries = 160;
  spec.match_rate = 0.5;
  spec.seed = 21;
  return generate_trace(spec);
}

/// Scoped obs level override that restores the prior level (and clears
/// per-run registry state) on exit, so tests compose in one process.
struct ScopedObsLevel {
  obs::Level prior;
  explicit ScopedObsLevel(obs::Level l) : prior(obs::level()) {
    obs::set_level(l);
  }
  ~ScopedObsLevel() { obs::set_level(prior); }
};

std::vector<Request> search_batch(const Trace& trace, std::size_t offset,
                                  std::size_t n) {
  std::vector<Request> batch;
  for (std::size_t k = 0; k < n; ++k) {
    batch.push_back(
        make_search(trace.queries[(offset + k) % trace.queries.size()]));
  }
  return batch;
}

TEST(EngineStats, GaugesReturnToZeroAfterDrain) {
  ScopedObsLevel metrics(obs::Level::kMetrics);
  const Trace trace = test_trace();
  TcamTable table(test_config());
  load_rules(table, trace);
  SearchEngine eng(table);

  std::vector<std::future<BatchResult>> futures;
  for (int b = 0; b < 12; ++b) {
    futures.push_back(
        eng.submit(search_batch(trace, static_cast<std::size_t>(b) * 8, 8)));
  }
  for (auto& f : futures) f.get();

  // Every future has resolved: nothing may still be queued or in flight,
  // and the high watermark proves the queue actually filled at some point.
  EXPECT_EQ(eng.queue_depth(), 0u);
  EXPECT_EQ(eng.in_flight(), 0u);
  EXPECT_GE(eng.queue_high_watermark(), 1u);
  EXPECT_LE(eng.queue_high_watermark(), eng.queue_capacity());
  EXPECT_EQ(eng.batches(), 12u);
}

TEST(EngineStats, SlowQueryLogRanksWorstFirstAndKeepsTopK) {
#ifdef FETCAM_OBS_DISABLED
  GTEST_SKIP() << "slow-query log is compiled out under FETCAM_OBS=OFF";
#endif
  ScopedObsLevel metrics(obs::Level::kMetrics);
  const Trace trace = test_trace();
  TcamTable table(test_config());
  load_rules(table, trace);
  SearchEngine eng(table);

  for (int b = 0; b < 20; ++b) {
    eng.execute(search_batch(trace, static_cast<std::size_t>(b) * 4, 4));
  }
  const std::vector<SlowQuery> slow = eng.slow_queries();
  ASSERT_FALSE(slow.empty());
  EXPECT_LE(slow.size(), 8u);  // top-K bound
  for (std::size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GE(slow[i - 1].total_ns, slow[i].total_ns)
        << "entry " << i << " out of order";
  }
  for (const SlowQuery& q : slow) {
    EXPECT_GT(q.total_ns, 0u);
    EXPECT_EQ(q.requests, 4u);
    EXPECT_EQ(q.searches, 4u);
    EXPECT_NE(q.fingerprint, 0u);
  }
}

TEST(EngineStats, SnapshotJsonCarriesEverySection) {
  ScopedObsLevel metrics(obs::Level::kMetrics);
  const Trace trace = test_trace();
  TcamTable table(test_config());
  load_rules(table, trace);
  SearchEngine eng(table);
  eng.execute(search_batch(trace, 0, 16));

  const std::string json = stats_snapshot_json(eng);
  EXPECT_NE(json.find("\"schema\": \"fetcam.stats.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel_tier\""), std::string::npos);
  EXPECT_NE(json.find("\"batches\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"queue_capacity\""), std::string::npos);
  EXPECT_NE(json.find("\"in_flight\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_queries\""), std::string::npos);
  // No server attached: those sections are explicit nulls, not absent.
  EXPECT_NE(json.find("\"server\": null"), std::string::npos);
  EXPECT_NE(json.find("\"connection\": null"), std::string::npos);
#ifndef FETCAM_OBS_DISABLED
  // At metrics level the per-stage recorders must have fired.
  EXPECT_NE(json.find("engine.stage.queue_wait"), std::string::npos);
  EXPECT_NE(json.find("engine.batch.total"), std::string::npos);
#endif
}

TEST(EngineStats, StagesListOnlyEngineTimings) {
  // The registry is process-wide: recorders that are not the engine's
  // (simulator timings, counts, other components) must not show up as
  // engine stages.
  ScopedObsLevel metrics(obs::Level::kMetrics);
  auto& reg = obs::MetricsRegistry::instance();
  reg.latency("test.foreign").record(1234);
  reg.distribution("engine.test_count").record(5);
  const Trace trace = test_trace();
  TcamTable table(test_config());
  load_rules(table, trace);
  SearchEngine eng(table);
  eng.execute(search_batch(trace, 0, 4));

  const std::string json = stats_snapshot_json(eng);
  EXPECT_EQ(json.find("test.foreign"), std::string::npos);
  EXPECT_EQ(json.find("engine.test_count"), std::string::npos);
#ifndef FETCAM_OBS_DISABLED
  EXPECT_NE(json.find("\"engine.batch.total\": {\"count\": "),
            std::string::npos);
#endif
}

/// Results must be bit-identical whatever the telemetry level: run the
/// same trace slice with obs off and at metrics level and compare every
/// result field (in a FETCAM_OBS=OFF build both arms compile to the same
/// thing, which is exactly the claim).
TEST(EngineStats, ResultsBitIdenticalWithTelemetryOnAndOff) {
  const Trace trace = test_trace();
  auto run_at = [&](obs::Level level) {
    ScopedObsLevel scoped(level);
    obs::MetricsRegistry::instance().reset();
    TcamTable table(test_config());
    load_rules(table, trace);
    SearchEngine eng(table);
    std::vector<BatchResult> out;
    for (int b = 0; b < 10; ++b) {
      out.push_back(
          eng.execute(search_batch(trace, static_cast<std::size_t>(b) * 7,
                                   7)));
    }
    return out;
  };
  const std::vector<BatchResult> off = run_at(obs::Level::kOff);
  const std::vector<BatchResult> on = run_at(obs::Level::kMetrics);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t b = 0; b < off.size(); ++b) {
    ASSERT_EQ(off[b].results.size(), on[b].results.size()) << "batch " << b;
    EXPECT_EQ(off[b].seq, on[b].seq);
    EXPECT_EQ(off[b].model_latency_s, on[b].model_latency_s)
        << "batch " << b;
    EXPECT_EQ(off[b].driver_stalls, on[b].driver_stalls);
    EXPECT_EQ(off[b].write_cycles, on[b].write_cycles);
    for (std::size_t i = 0; i < off[b].results.size(); ++i) {
      EXPECT_EQ(off[b].results[i].hit, on[b].results[i].hit)
          << "batch " << b << " result " << i;
      EXPECT_EQ(off[b].results[i].entry, on[b].results[i].entry);
      EXPECT_EQ(off[b].results[i].priority, on[b].results[i].priority);
    }
  }
}

TEST(EngineStats, SubmitTraceIdFlowsIntoSlowQueryLog) {
#ifdef FETCAM_OBS_DISABLED
  GTEST_SKIP() << "slow-query log is compiled out under FETCAM_OBS=OFF";
#endif
  ScopedObsLevel metrics(obs::Level::kMetrics);
  const Trace trace = test_trace();
  TcamTable table(test_config());
  load_rules(table, trace);
  SearchEngine eng(table);
  eng.submit(search_batch(trace, 0, 8), /*trace_id=*/777).get();
  const std::vector<SlowQuery> slow = eng.slow_queries();
  ASSERT_FALSE(slow.empty());
  EXPECT_EQ(slow.front().trace_id, 777u);
}

}  // namespace
}  // namespace fetcam::engine
