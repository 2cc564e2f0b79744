// SearchEngine thread-count-invariance golden tests (same contract as
// eval/variability_determinism_test): batch results, table contents,
// energy/endurance totals, and search statistics must be BIT-IDENTICAL
// for 1, 2, and 8 worker threads at a fixed seed — and for every
// combination of pool thread count (1, 2, 8) and query block size, for
// exact traffic and for nearest-only (kSearchNearest) batches, also with
// two engines sharing the pool.  wall_us is the only field outside the
// contract.
//
// All comparisons are exact (EXPECT_EQ on doubles, deliberately): any
// schedule-ordered accumulation in the engine would fail here.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compiler/applier.hpp"
#include "compiler/compile.hpp"
#include "compiler/planner.hpp"
#include "dense_stats.hpp"
#include "engine/engine.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

const std::vector<int> kThreadCounts = {1, 2, 8};

TableConfig test_config() {
  TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = 4;
  cfg.rows_per_mat = 32;
  cfg.cols = 16;
  cfg.subarrays_per_mat = 4;
  return cfg;
}

TraceSpec test_spec() {
  TraceSpec spec;
  spec.kind = TraceKind::kIpPrefix;
  spec.cols = 16;
  spec.rules = 96;
  spec.queries = 600;
  spec.match_rate = 0.4;
  spec.seed = 42;
  return spec;
}

struct RunOutcome {
  std::vector<BatchResult> batches;
  double table_energy_j = 0.0;
  long long write_pulses = 0;
  std::vector<std::uint64_t> mat_writes;
  double step1_miss_rate = 0.0;
  long long driver_stalls = 0;
  long long driver_cycles = 0;
  double model_time_s = 0.0;
};

/// Build a fresh table + engine, drive the same batched workload, and
/// capture everything the determinism contract covers.
RunOutcome run_workload(EngineOptions opts = {}) {
  const Trace trace = generate_trace(test_spec());
  TcamTable table(test_config());
  const auto ids = load_rules(table, trace);

  RunOutcome out;
  {
    opts.queue_capacity = 4;
    SearchEngine engine(table, opts);
    std::vector<std::future<BatchResult>> futures;
    std::vector<Request> batch;
    for (std::size_t q = 0; q < trace.queries.size(); ++q) {
      batch.push_back(make_search(trace.queries[q]));
      // Sprinkle writes/erases to exercise the driver-multiplex path and
      // the serial apply order.
      if (q % 37 == 5) {
        const std::size_t r = q % ids.size();
        batch.push_back(make_update(ids[r], trace.rules[r].entry));
      }
      if (batch.size() >= 64) {
        futures.push_back(engine.submit(std::move(batch)));
        batch.clear();
      }
    }
    if (!batch.empty()) futures.push_back(engine.submit(std::move(batch)));
    for (auto& f : futures) out.batches.push_back(f.get());
    out.driver_stalls = engine.driver_stalls();
    out.driver_cycles = engine.driver_cycles();
    out.model_time_s = engine.model_time_s();
  }
  out.table_energy_j = table.total_energy_j();
  out.write_pulses = table.write_pulses();
  for (int m = 0; m < table.mats(); ++m) {
    out.mat_writes.push_back(table.endurance(m).total_writes());
  }
  out.step1_miss_rate = table.search_stats().step1_miss_rate();
  return out;
}

void expect_identical(const RunOutcome& a, const RunOutcome& golden,
                      int threads) {
  ASSERT_EQ(a.batches.size(), golden.batches.size()) << threads << " threads";
  for (std::size_t b = 0; b < a.batches.size(); ++b) {
    const auto& ba = a.batches[b];
    const auto& bg = golden.batches[b];
    EXPECT_EQ(ba.seq, bg.seq) << threads << " threads, batch " << b;
    ASSERT_EQ(ba.results.size(), bg.results.size())
        << threads << " threads, batch " << b;
    for (std::size_t r = 0; r < ba.results.size(); ++r) {
      EXPECT_EQ(ba.results[r].hit, bg.results[r].hit)
          << threads << " threads, batch " << b << ", req " << r;
      EXPECT_EQ(ba.results[r].entry, bg.results[r].entry)
          << threads << " threads, batch " << b << ", req " << r;
      EXPECT_EQ(ba.results[r].priority, bg.results[r].priority)
          << threads << " threads, batch " << b << ", req " << r;
    }
    EXPECT_EQ(ba.stats.rows, bg.stats.rows);
    EXPECT_EQ(ba.stats.step1_misses, bg.stats.step1_misses)
        << threads << " threads, batch " << b;
    EXPECT_EQ(ba.stats.step2_evaluated, bg.stats.step2_evaluated)
        << threads << " threads, batch " << b;
    EXPECT_EQ(ba.stats.matches, bg.stats.matches)
        << threads << " threads, batch " << b;
    EXPECT_EQ(ba.driver_stalls, bg.driver_stalls)
        << threads << " threads, batch " << b;
    EXPECT_EQ(ba.write_cycles, bg.write_cycles)
        << threads << " threads, batch " << b;
    EXPECT_EQ(ba.model_latency_s, bg.model_latency_s)
        << threads << " threads, batch " << b;
  }
  EXPECT_EQ(a.table_energy_j, golden.table_energy_j) << threads << " threads";
  EXPECT_EQ(a.write_pulses, golden.write_pulses) << threads << " threads";
  EXPECT_EQ(a.mat_writes, golden.mat_writes) << threads << " threads";
  EXPECT_EQ(a.step1_miss_rate, golden.step1_miss_rate)
      << threads << " threads";
  EXPECT_EQ(a.driver_stalls, golden.driver_stalls) << threads << " threads";
  EXPECT_EQ(a.driver_cycles, golden.driver_cycles) << threads << " threads";
  EXPECT_EQ(a.model_time_s, golden.model_time_s) << threads << " threads";
}

/// Pins the shared pool (phase A runs on it) and restores automatic
/// resolution on exit, so one test can't leak its pool size into the next.
class ThreadSweep {
 public:
  ThreadSweep() = default;
  explicit ThreadSweep(int threads) { util::set_thread_count(threads); }
  ~ThreadSweep() { util::set_thread_count(0); }
  template <typename Fn>
  void check(Fn&& run_and_compare) {
    for (const int threads : kThreadCounts) {
      util::set_thread_count(threads);
      run_and_compare(threads);
    }
  }
};

TEST(EngineDeterminism, BatchResultsInvariantAcrossThreadCounts) {
  util::set_thread_count(1);
  const RunOutcome golden = run_workload();
  ASSERT_FALSE(golden.batches.empty());
  ThreadSweep sweep;
  sweep.check(
      [&](int threads) { expect_identical(run_workload(), golden, threads); });
}

TEST(EngineDeterminism, ProducerInterleavingDoesNotChangeBatchResults) {
  // Two producers racing distinct batches: each batch's RESULT depends only
  // on the submission order (seq), which submit() hands out atomically.
  // Here every batch is a pure search batch against a frozen table, so
  // results must equal the serial single-producer run regardless of which
  // producer won each seq slot.
  const Trace trace = generate_trace(test_spec());
  TcamTable table(test_config());
  load_rules(table, trace);

  // Golden: serial submission.
  std::vector<BatchResult> golden;
  {
    SearchEngine engine(table);
    for (std::size_t q = 0; q + 4 <= trace.queries.size(); q += 4) {
      std::vector<Request> batch;
      for (std::size_t k = 0; k < 4; ++k) {
        batch.push_back(make_search(trace.queries[q + k]));
      }
      golden.push_back(engine.execute(std::move(batch)));
    }
  }

  // Racy: two producers, batches land in some interleaved seq order.
  std::vector<std::future<BatchResult>> futures(golden.size());
  {
    SearchEngine engine(table);
    std::mutex mu;  // protects futures slot assignment only
    auto produce = [&](std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) {
        std::vector<Request> batch;
        for (std::size_t k = 0; k < 4; ++k) {
          batch.push_back(make_search(trace.queries[b * 4 + k]));
        }
        auto f = engine.submit(std::move(batch));
        const std::lock_guard<std::mutex> lock(mu);
        futures[b] = std::move(f);
      }
    };
    std::thread t1(produce, 0, golden.size() / 2);
    std::thread t2(produce, golden.size() / 2, golden.size());
    t1.join();
    t2.join();
    for (std::size_t b = 0; b < golden.size(); ++b) {
      const BatchResult res = futures[b].get();
      ASSERT_EQ(res.results.size(), golden[b].results.size());
      for (std::size_t r = 0; r < res.results.size(); ++r) {
        EXPECT_EQ(res.results[r].hit, golden[b].results[r].hit)
            << "batch " << b << ", req " << r;
        EXPECT_EQ(res.results[r].entry, golden[b].results[r].entry)
            << "batch " << b << ", req " << r;
      }
    }
  }
}

TEST(EngineDeterminism, InvariantAcrossDispatchersAndQueryBlocks) {
  // The dispatch contract: the pool's thread count and the query block
  // size are pure parallelism/bandwidth knobs.  Sweep both and require
  // byte-identical outcomes against the fully serial configuration.
  EngineOptions serial;
  serial.query_block = 1;  // the single-query scalar reference path
  ThreadSweep sweep(1);
  const RunOutcome golden = run_workload(serial);
  ASSERT_FALSE(golden.batches.empty());
  sweep.check([&](int threads) {
    for (const int qblock : {1, 5, 8}) {
      EngineOptions opts;
      opts.query_block = qblock;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " query_block=" + std::to_string(qblock));
      expect_identical(run_workload(opts), golden, threads);
    }
  });
}

/// Everything a nearest-only run must reproduce at every dispatch shape.
struct NearestOutcome {
  std::vector<BatchResult> batches;
  long long mats_considered = 0;
  long long mats_skipped = 0;
  double table_energy_j = 0.0;
  arch::SearchStatsAccumulator search_stats;
};

TraceSpec nearest_only_spec() {
  TraceSpec spec;
  spec.kind = TraceKind::kEmbedding;
  spec.cols = 64;
  spec.digit_bits = 2;
  spec.rules = 400;
  spec.queries = 146;  // 1 + 7 + 9 + 64 + 65
  spec.match_rate = 0.6;
  spec.seed = 97;
  return spec;
}

TableConfig nearest_only_config() {
  TableConfig cfg;
  cfg.mats = 8;
  cfg.rows_per_mat = 64;
  cfg.cols = 64;
  cfg.subarrays_per_mat = 2;
  cfg.digit_bits = 2;
  return cfg;
}

constexpr int kNearestDefaultK = 3;
constexpr int kNearestDefaultThreshold = 1;

/// Request i's k: 0 defers to the engine default.
int nearest_k(std::size_t i) {
  return i % 5 == 0 ? 0 : 1 + static_cast<int>(i % 6);
}

/// Request i's threshold: -1 defers to the engine default; 32 (every
/// digit) makes every row a candidate, so k decides the result.
int nearest_threshold(std::size_t i) {
  constexpr int kMenu[4] = {0, 2, 6, 32};
  return i % 7 == 0 ? -1 : kMenu[i % 4];
}

/// Nearest-only batches of 1, 7, 9, 64 and 65 requests (block tails,
/// exact multiples and single lanes) on a clustered d = 2 table, with
/// per-request (k, threshold) overrides mixed with engine defaults.  Runs
/// at whatever size the shared pool has.
NearestOutcome run_nearest_workload(const Trace& trace, int query_block) {
  TcamTable table(nearest_only_config());
  load_rules_clustered(table, trace);

  NearestOutcome out;
  {
    EngineOptions opts;
    opts.query_block = query_block;
    opts.k = kNearestDefaultK;
    opts.distance_threshold = kNearestDefaultThreshold;
    SearchEngine engine(table, opts);
    std::size_t next = 0;
    for (const std::size_t size : {1, 7, 9, 64, 65}) {
      std::vector<Request> batch;
      for (std::size_t i = 0; i < size; ++i, ++next) {
        batch.push_back(make_search_nearest(
            trace.queries[next], nearest_k(next), nearest_threshold(next)));
      }
      out.batches.push_back(engine.execute(std::move(batch)));
    }
  }
  out.mats_considered = table.mats_considered();
  out.mats_skipped = table.mats_skipped();
  out.table_energy_j = table.total_energy_j();
  out.search_stats = table.search_stats();
  return out;
}

/// Everything NearestOutcome covers must match the golden exactly.
void expect_nearest_identical(const NearestOutcome& got,
                              const NearestOutcome& golden) {
  ASSERT_EQ(got.batches.size(), golden.batches.size());
  for (std::size_t b = 0; b < golden.batches.size(); ++b) {
    const BatchResult& gb = got.batches[b];
    const BatchResult& wb = golden.batches[b];
    ASSERT_EQ(gb.results.size(), wb.results.size()) << "batch " << b;
    for (std::size_t r = 0; r < wb.results.size(); ++r) {
      const RequestResult& g = gb.results[r];
      const RequestResult& w = wb.results[r];
      EXPECT_EQ(g.hit, w.hit) << "batch " << b << " req " << r;
      EXPECT_EQ(g.entry, w.entry) << "batch " << b << " req " << r;
      EXPECT_EQ(g.priority, w.priority) << "batch " << b << " req " << r;
      EXPECT_EQ(g.distance, w.distance) << "batch " << b << " req " << r;
      ASSERT_EQ(g.neighbors.size(), w.neighbors.size())
          << "batch " << b << " req " << r;
      for (std::size_t i = 0; i < w.neighbors.size(); ++i) {
        EXPECT_EQ(g.neighbors[i].entry, w.neighbors[i].entry);
        EXPECT_EQ(g.neighbors[i].priority, w.neighbors[i].priority);
        EXPECT_EQ(g.neighbors[i].distance, w.neighbors[i].distance);
      }
    }
    EXPECT_EQ(gb.stats.rows, wb.stats.rows) << "batch " << b;
    EXPECT_EQ(gb.stats.step1_misses, wb.stats.step1_misses);
    EXPECT_EQ(gb.stats.step2_evaluated, wb.stats.step2_evaluated);
    EXPECT_EQ(gb.stats.matches, wb.stats.matches) << "batch " << b;
    EXPECT_EQ(gb.model_latency_s, wb.model_latency_s) << "batch " << b;
  }
  EXPECT_EQ(got.mats_considered, golden.mats_considered);
  EXPECT_EQ(got.mats_skipped, golden.mats_skipped);
  EXPECT_EQ(got.table_energy_j, golden.table_energy_j);
  EXPECT_EQ(got.search_stats.searches(), golden.search_stats.searches());
  EXPECT_EQ(got.search_stats.rows_searched(),
            golden.search_stats.rows_searched());
  EXPECT_EQ(got.search_stats.step2_evaluations(),
            golden.search_stats.step2_evaluations());
  EXPECT_EQ(got.search_stats.matches(), golden.search_stats.matches());
  EXPECT_EQ(got.search_stats.step1_miss_rate(),
            golden.search_stats.step1_miss_rate());
}

TEST(EngineDeterminism, NearestOnlyBatchesInvariantAcrossBlocksAndDispatchers) {
  const Trace trace = generate_trace(nearest_only_spec());
  ThreadSweep pool(1);
  const NearestOutcome golden = run_nearest_workload(trace, 1);
  ASSERT_EQ(golden.batches.size(), 5u);
  ASSERT_GT(golden.mats_skipped, 0) << "the sweep must exercise pruning";
  // The golden itself must be right: each request resolves its own (k,
  // threshold) and gets the serial table search's neighbours.
  TcamTable ref(nearest_only_config());
  load_rules_clustered(ref, trace);
  std::size_t next = 0;
  long long hits = 0;
  for (const auto& b : golden.batches) {
    for (const auto& r : b.results) {
      const int k = nearest_k(next) > 0 ? nearest_k(next) : kNearestDefaultK;
      const int t = nearest_threshold(next) >= 0 ? nearest_threshold(next)
                                                 : kNearestDefaultThreshold;
      const NearestMatch want = ref.search_nearest(trace.queries[next], k, t);
      ASSERT_EQ(r.neighbors.size(), want.top.size()) << "req " << next;
      for (std::size_t i = 0; i < want.top.size(); ++i) {
        EXPECT_EQ(r.neighbors[i].entry, want.top[i].entry) << "req " << next;
        EXPECT_EQ(r.neighbors[i].distance, want.top[i].distance);
      }
      hits += r.hit ? 1 : 0;
      ++next;
    }
  }
  ASSERT_GT(hits, 0);
  for (const int threads : {1, 2, 4}) {
    util::set_thread_count(threads);
    for (const int qblock : {1, 3, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " query_block=" + std::to_string(qblock));
      expect_nearest_identical(run_nearest_workload(trace, qblock), golden);
    }
  }
}

TEST(EngineDeterminism, EngineOptionsValidation) {
  TcamTable table(test_config());
  auto expect_throws = [&](EngineOptions opts, const char* field) {
    try {
      SearchEngine engine(table, opts);
      FAIL() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message: " << e.what();
    }
  };
  EngineOptions opts;
  opts.queue_capacity = 0;
  expect_throws(opts, "queue_capacity");
  opts = {};
  opts.query_block = 0;
  expect_throws(opts, "query_block");
  opts = {};
  opts.query_block = kMaxQueryBlock + 1;
  expect_throws(opts, "query_block");
  // The defaults are valid and run a batch.
  opts = {};
  SearchEngine ok(table, opts);
  EXPECT_EQ(ok.query_block(), 8);
  EXPECT_EQ(ok.execute({make_search(arch::BitWord(16, 0))}).results.size(),
            1u);
}

TEST(EngineDeterminism, PhaseARunsOnTheSharedPool) {
  // Phase A is one util::parallel_for_chunks region per batch with one
  // chunk per query block, so the pool's own counters see every engine
  // round: one job, and 3 exact + 2 nearest blocks for 20 exact and 9
  // nearest lanes at query_block 8.  Results match the serial golden.
  const Trace trace = generate_trace(test_spec());
  std::vector<Request> batch;
  for (std::size_t q = 0; q < 29; ++q) {
    batch.push_back(q < 20 ? make_search(trace.queries[q])
                           : make_search_nearest(trace.queries[q], 2, 3));
  }
  const auto run = [&] {
    TcamTable table(test_config());
    load_rules(table, trace);
    SearchEngine engine(table);
    return engine.execute(batch);
  };
  ThreadSweep pool(1);
  const BatchResult golden = run();
  const obs::Level prior = obs::level();
  obs::set_level(obs::Level::kMetrics);
  auto& reg = obs::MetricsRegistry::instance();
  pool.check([&](int threads) {
    [[maybe_unused]] const std::uint64_t jobs0 =
        reg.counter("parallel.jobs").value();
    [[maybe_unused]] const std::uint64_t chunks0 =
        reg.counter("parallel.chunks").value();
    const BatchResult got = run();
#ifndef FETCAM_OBS_DISABLED  // the counters are compiled out otherwise
    EXPECT_EQ(reg.counter("parallel.jobs").value() - jobs0, 1u) << threads;
    EXPECT_EQ(reg.counter("parallel.chunks").value() - chunks0, 5u)
        << threads;
#endif
    ASSERT_EQ(got.results.size(), golden.results.size());
    for (std::size_t r = 0; r < golden.results.size(); ++r) {
      EXPECT_EQ(got.results[r].hit, golden.results[r].hit) << r;
      EXPECT_EQ(got.results[r].entry, golden.results[r].entry) << r;
      EXPECT_EQ(got.results[r].distance, golden.results[r].distance) << r;
    }
    EXPECT_EQ(got.stats.rows, golden.stats.rows) << threads;
    EXPECT_EQ(got.stats.matches, golden.stats.matches) << threads;
  });
  obs::set_level(prior);
}

TEST(EngineDeterminism, ConcurrentEnginesShareThePool) {
  // Two engines on two tables, each fed by its own producer thread, start
  // top-level regions on the one shared pool from two coordinators at
  // once.  Each must still reproduce its own serial (pool = 1) golden:
  // the exact engine with writes in its batches, the nearest engine with
  // its pruning totals.
  const Trace near_trace = generate_trace(nearest_only_spec());
  ThreadSweep pool(1);
  const RunOutcome exact_golden = run_workload();
  const NearestOutcome near_golden = run_nearest_workload(near_trace, 8);
  util::set_thread_count(4);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    RunOutcome exact;
    NearestOutcome near;
    std::thread exact_producer([&] { exact = run_workload(); });
    std::thread near_producer(
        [&] { near = run_nearest_workload(near_trace, 8); });
    exact_producer.join();
    near_producer.join();
    expect_identical(exact, exact_golden, 4);
    expect_nearest_identical(near, near_golden);
  }
}

TEST(EngineDeterminism, StressConcurrentCompilerUpdatesOldNewOrShadow) {
  // Stress (run under TSan in CI): searcher threads hammer a
  // multi-dispatcher engine (pool of 8, small queue to force
  // backpressure) while the main thread applies a compiler update plan.
  // Every observed result must be the OLD winner, the NEW winner, or a
  // newly inserted entry still at its shadow priority — the same
  // acceptance as the make-before-break applier tests, now crossing the
  // query-block dispatch.
  namespace cc = fetcam::compiler;
  TraceSpec spec = test_spec();
  spec.rules = 48;
  spec.queries = 256;
  const Trace trace = generate_trace(spec);
  ChurnSpec churn;
  churn.seed = 29;
  churn.hot_fraction = 0.25;
  churn.hot_modify_rate = 0.9;
  churn.modify_rate = 0.3;
  churn.add_remove_rate = 0.15;
  churn.priority_jitter_rate = 0.1;
  const auto rules_b =
      churn_rules(trace.rules, spec.kind, spec.cols, churn, 1);
  const auto setA =
      cc::compile_rules(cc::rule_set_from_rules(spec.cols, trace.rules));
  const auto setB =
      cc::compile_rules(cc::rule_set_from_rules(spec.cols, rules_b));

  TcamTable table(test_config());
  const ThreadSweep pool(8);
  EngineOptions opts;
  opts.queue_capacity = 2;
  SearchEngine eng(table, opts);
  const cc::UpdatePlan planA = cc::plan_update({}, setA, table);
  const cc::Installation installedA =
      cc::apply_plan(eng, planA, setA).installed;
  eng.drain();
  const cc::UpdatePlan planB = cc::plan_update(installedA, setB, table);

  struct Observed {
    std::size_t query = 0;
    RequestResult result;
  };
  std::atomic<bool> stop{false};
  std::vector<std::vector<Observed>> seen(2);
  auto searcher = [&](int who) {
    std::size_t at = static_cast<std::size_t>(who);
    // Floor of rounds: under scheduler starvation the apply can finish
    // before a searcher runs once; the settled-state rounds still satisfy
    // the acceptance (they see the new winner).
    int rounds = 0;
    while (rounds++ < 4 || !stop.load(std::memory_order_relaxed)) {
      std::vector<Request> batch;
      std::vector<std::size_t> keys;
      for (int k = 0; k < 8; ++k) {
        keys.push_back(at % trace.queries.size());
        batch.push_back(make_search(trace.queries[keys.back()]));
        at += 2;
      }
      const auto res = eng.execute(std::move(batch));
      for (std::size_t r = 0; r < res.results.size(); ++r) {
        seen[static_cast<std::size_t>(who)].push_back(
            {keys[r], res.results[r]});
      }
    }
  };
  std::thread s0(searcher, 0);
  std::thread s1(searcher, 1);

  cc::ApplyOptions aopts;
  aopts.chunk = 2;  // many small batches: maximum interleaving
  const cc::Installation installedB =
      cc::apply_plan(eng, planB, setB, aopts).installed;
  eng.drain();
  stop.store(true, std::memory_order_relaxed);
  s0.join();
  s1.join();

  // Quiescent winner for `key` under a (compiled, installed) pair.
  auto expected = [](const cc::CompiledRuleSet& compiled,
                     const cc::Installation& installed,
                     const arch::BitWord& key) {
    RequestResult e;
    const int w = cc::reference_winner(compiled, key);
    if (w < 0) return e;
    e.hit = true;
    e.entry = installed.entries[static_cast<std::size_t>(w)].id;
    e.priority = installed.entries[static_cast<std::size_t>(w)].priority;
    return e;
  };

  // Inserted entries (id, word, shadow priority) for the mid-make case.
  struct Shadow {
    EntryId id;
    const arch::TernaryWord* word;
    int shadow_priority;
  };
  std::vector<Shadow> shadows;
  for (const cc::PlanOp& op : planB.ops) {
    if (op.kind != cc::PlanOpKind::kInsert) continue;
    const auto& e =
        installedB.entries[static_cast<std::size_t>(op.compiled_index)];
    shadows.push_back(
        {e.id,
         &setB.entries[static_cast<std::size_t>(op.compiled_index)].word,
         e.priority + planB.shadow_priority_offset});
  }
  auto matches_key = [](const arch::TernaryWord& word,
                        const arch::BitWord& key) {
    for (std::size_t c = 0; c < word.size(); ++c) {
      if (word[c] == arch::Ternary::kX) continue;
      const bool one = word[c] == arch::Ternary::kOne;
      if (one != (key[c] != 0)) return false;
    }
    return true;
  };

  std::size_t checked = 0;
  for (const auto& lane : seen) {
    for (const auto& obs : lane) {
      const arch::BitWord& key = trace.queries[obs.query];
      const RequestResult old_w = expected(setA, installedA, key);
      const RequestResult new_w = expected(setB, installedB, key);
      const auto& got = obs.result;
      const bool is_old = got.hit == old_w.hit && got.entry == old_w.entry &&
                          (!old_w.hit || got.priority == old_w.priority);
      const bool is_new = got.hit == new_w.hit && got.entry == new_w.entry &&
                          (!new_w.hit || got.priority == new_w.priority);
      bool is_shadow = false;
      if (!is_old && !is_new && got.hit && !old_w.hit) {
        for (const Shadow& s : shadows) {
          if (got.entry == s.id && got.priority == s.shadow_priority &&
              matches_key(*s.word, key)) {
            is_shadow = true;
            break;
          }
        }
      }
      EXPECT_TRUE(is_old || is_new || is_shadow)
          << "query " << obs.query << ": hit=" << got.hit << " entry="
          << got.entry << " priority=" << got.priority;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(EngineDeterminism, SubmitAfterShutdownFailsCleanly) {
  TcamTable table(test_config());
  auto engine = std::make_unique<SearchEngine>(table);
  engine->drain();
  // Destroy and rebuild: futures from a dead engine must not hang.
  engine.reset();
  SearchEngine fresh(table);
  const auto res =
      fresh.execute({make_search(arch::BitWord(16, 0))});
  EXPECT_EQ(res.results.size(), 1u);
}

TEST(EngineDeterminism, TelemetryCountsRequests) {
  const Trace trace = generate_trace(test_spec());
  TcamTable table(test_config());
  const auto ids = load_rules(table, trace);
  SearchEngine engine(table);
  std::vector<Request> batch;
  batch.push_back(make_search(trace.queries[0]));
  batch.push_back(make_search(trace.queries[1]));
  batch.push_back(make_update(ids[0], trace.rules[0].entry));
  const auto res = engine.execute(std::move(batch));
  EXPECT_EQ(engine.batches(), 1u);
  EXPECT_EQ(engine.requests(), 3u);
  EXPECT_EQ(engine.searches(), 2u);
  EXPECT_EQ(engine.writes(), 1u);
  EXPECT_GT(engine.model_time_s(), 0.0);
  EXPECT_GT(res.write_cycles, 0) << "the update costs write cycles";
  EXPECT_GT(res.model_latency_s, 0.0);
  for (int m = 0; m < table.mats(); ++m) {
    EXPECT_GE(engine.mat_utilization(m), 0.0);
    EXPECT_LE(engine.mat_utilization(m), 1.0);
  }
}

/// The apply-phase accounting as it stood before the search broadcast and
/// the search energy became closed forms, kept as the reference: every
/// search charges a dense per-mat ArrayEnergyModel::on_search, every
/// broadcast cycle is one submit() per mat, and writes wait in per-mat
/// deques.  Its table runs with mat_skip off, so every mat's stats come
/// from a kernel scan rather than from the skip proof.
class PerCycleReference {
 public:
  PerCycleReference(const TableConfig& cfg, EngineOptions opts)
      : table_(unpruned(cfg)), opts_(opts) {
    arch::MatGeometry geom;
    geom.rows = cfg.rows_per_mat / cfg.subarrays_per_mat;
    geom.cols = cfg.cols;
    geom.subarrays = cfg.subarrays_per_mat;
    for (int m = 0; m < cfg.mats; ++m) {
      energy_.emplace_back(cfg.design, cfg.rows_per_mat, cfg.cols);
      writes_.emplace_back(cfg.design, cfg.rows_per_mat, cfg.cols);
      sched_.emplace_back(geom, arch::HvDriverParams{});
    }
    terminated_.assign(static_cast<std::size_t>(cfg.mats), 0);
    step2_.assign(static_cast<std::size_t>(cfg.mats), 0);
  }

  static TableConfig unpruned(TableConfig cfg) {
    cfg.mat_skip = false;
    return cfg;
  }

  const TcamTable& table() const { return table_; }
  const arch::SearchStatsAccumulator& stats() const { return stats_; }
  double utilization(int mat) const {
    return sched_[static_cast<std::size_t>(mat)].utilization();
  }
  /// The old total: per-mat models fed searches and writes in order.
  double float_sum_energy_j() const {
    double e = 0.0;
    for (const auto& model : energy_) e += model.total_energy_j();
    return e;
  }
  /// The count closed form the table must reproduce bit for bit.
  double closed_form_energy_j() const {
    const arch::OpCosts c = arch::default_op_costs(table_.config().design);
    const int cols = table_.config().cols;
    double e = 0.0;
    for (std::size_t m = 0; m < writes_.size(); ++m) {
      const double search_e =
          c.two_step ? terminated_[m] * cols * c.search_e1 +
                           static_cast<double>(step2_[m]) * cols * c.search_e2
                     : static_cast<double>(terminated_[m] + step2_[m]) *
                           cols * c.search_e2;
      e += writes_[m].total_energy_j() + search_e;
    }
    return e;
  }

  BatchResult apply(const std::vector<Request>& batch) {
    // Phase A against the pre-batch state, as the engine does.
    std::vector<TableMatch> matches(batch.size());
    std::vector<NearestMatch> nears(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& req = batch[i];
      if (req.kind == RequestKind::kSearch) {
        MatchScratch scratch;
        table_.match(req.query, scratch, matches[i]);
      } else if (req.kind == RequestKind::kSearchNearest) {
        NearestScratch scratch;
        table_.nearest_mats(PackedQuery::pack(req.query),
                            req.k > 0 ? req.k : opts_.k,
                            req.distance_threshold >= 0
                                ? req.distance_threshold
                                : opts_.distance_threshold,
                            scratch, nears[i]);
      }
    }
    BatchResult res;
    res.results.resize(batch.size());
    struct PendingWrite {
      int mat = 0;
      int subarray = 0;
      int phases = 0;
    };
    std::vector<PendingWrite> pending;
    const auto written = [&](EntryId id, int cells) {
      const EntryLocation loc = *table_.locate(id);
      if (cells > 0) {
        writes_[static_cast<std::size_t>(loc.mat)].on_write(cells);
        energy_[static_cast<std::size_t>(loc.mat)].on_write(cells);
      }
      if (table_.last_write_phases() > 0) {
        pending.push_back({loc.mat, loc.subarray, table_.last_write_phases()});
      }
    };
    std::size_t n_search = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& req = batch[i];
      RequestResult& out = res.results[i];
      switch (req.kind) {
        case RequestKind::kSearch:
        case RequestKind::kSearchNearest: {
          ++n_search;
          const bool exact = req.kind == RequestKind::kSearch;
          const arch::SearchStats& merged =
              exact ? matches[i].stats : nears[i].stats;
          const std::vector<arch::SearchStats> per_mat =
              exact ? dense_per_mat(table_, matches[i])
                    : dense_per_mat(table_, nears[i]);
          for (std::size_t m = 0; m < per_mat.size(); ++m) {
            energy_[m].on_search(per_mat[m]);
            terminated_[m] += per_mat[m].rows - per_mat[m].step2_evaluated;
            step2_[m] += per_mat[m].step2_evaluated;
          }
          stats_.add(merged);
          res.stats.rows += merged.rows;
          res.stats.step1_misses += merged.step1_misses;
          res.stats.step2_evaluated += merged.step2_evaluated;
          res.stats.matches += merged.matches;
          if (exact) {
            out.hit = matches[i].hit;
            out.entry = matches[i].entry;
          } else if (!nears[i].top.empty()) {
            out.hit = true;
            out.entry = nears[i].top.front().entry;
          }
          break;
        }
        case RequestKind::kInsert: {
          const int cells = table_.cost_write(req.entry, nullptr).cells;
          const EntryId id = table_.insert(req.entry, req.priority, req.mat);
          if (id == kInvalidEntry) break;
          written(id, cells);
          out.hit = true;
          out.entry = id;
          break;
        }
        case RequestKind::kUpdate: {
          if (!table_.contains(req.target)) break;
          const arch::TernaryWord prev = table_.entry_word(req.target);
          int cells = 0;
          if (req.incremental) {
            cells = table_.cost_rewrite(req.entry, prev).cells;
            table_.rewrite_digits(req.target, req.entry);
          } else {
            cells = table_.cost_write(req.entry, &prev).cells;
            table_.update(req.target, req.entry);
          }
          written(req.target, cells);
          out.hit = true;
          out.entry = req.target;
          break;
        }
        case RequestKind::kRelocate: {
          if (!table_.contains(req.target)) break;
          const int cells =
              table_.cost_write(table_.entry_word(req.target), nullptr).cells;
          if (!table_.relocate(req.target, req.mat)) break;
          written(req.target, cells);
          out.hit = true;
          out.entry = req.target;
          break;
        }
        case RequestKind::kErase:
          if (!table_.contains(req.target)) break;
          table_.erase(req.target);
          out.hit = true;
          out.entry = req.target;
          break;
        case RequestKind::kSetPriority:
          if (!table_.contains(req.target)) break;
          table_.set_priority(req.target, req.priority);
          out.hit = true;
          out.entry = req.target;
          break;
      }
    }

    long long stalls_before = 0;
    for (const auto& s : sched_) stalls_before += s.stalls();
    const int subarrays = table_.config().subarrays_per_mat;
    std::vector<std::deque<PendingWrite>> mat_queue(sched_.size());
    for (const auto& w : pending) {
      mat_queue[static_cast<std::size_t>(w.mat)].push_back(w);
    }
    std::vector<arch::MatOp> cycle_req(static_cast<std::size_t>(subarrays));
    bool writes_pending = !pending.empty();
    while (writes_pending) {
      writes_pending = false;
      for (std::size_t m = 0; m < sched_.size(); ++m) {
        auto& q = mat_queue[m];
        if (q.empty()) continue;
        PendingWrite& head = q.front();
        std::fill(cycle_req.begin(), cycle_req.end(), arch::MatOp::kIdle);
        cycle_req[static_cast<std::size_t>(head.subarray)] =
            arch::MatOp::kWrite;
        if (n_search > 0) {
          cycle_req[static_cast<std::size_t>(head.subarray ^ 1)] =
              arch::MatOp::kSearch;
        }
        const std::uint64_t granted = sched_[m].submit(cycle_req);
        if ((granted >> head.subarray & 1) != 0 && --head.phases == 0) {
          q.pop_front();
        }
        if (!q.empty()) writes_pending = true;
      }
      ++res.write_cycles;
    }
    std::fill(cycle_req.begin(), cycle_req.end(), arch::MatOp::kSearch);
    for (std::size_t c = 0; c < n_search; ++c) {
      for (auto& sched : sched_) sched.submit(cycle_req);
    }
    long long stalls_after = 0;
    for (const auto& s : sched_) stalls_after += s.stalls();
    res.driver_stalls = stalls_after - stalls_before;
    res.model_latency_s =
        static_cast<double>(res.write_cycles) * opts_.write_pulse_s +
        static_cast<double>(n_search) *
            arch::default_op_costs(table_.config().design).latency_full;
    return res;
  }

 private:
  TcamTable table_;
  EngineOptions opts_;
  std::vector<arch::ArrayEnergyModel> energy_;
  std::vector<arch::ArrayEnergyModel> writes_;
  std::vector<long long> terminated_;
  std::vector<long long> step2_;
  std::vector<arch::SharedDriverScheduler> sched_;
  arch::SearchStatsAccumulator stats_;
};

TEST(EngineDeterminism, AccountingMatchesPerCycleReference) {
  // Mixed batches — exact and nearest searches, inserts, full updates,
  // zero-pulse delta rewrites, changed rewrites, relocations, erases —
  // through the engine (closed-form broadcast, count-based energy over
  // scanned mats only) and through the per-cycle reference must agree on
  // the whole admission model and on the energy.
  const Trace trace = generate_trace(test_spec());
  const ThreadSweep pool(2);
  for (const arch::TcamDesign design :
       {arch::TcamDesign::k1p5DgFe, arch::TcamDesign::k2DgFefet}) {
    for (const int subarrays : {2, 4}) {
      const std::string where =
          "design=" + std::to_string(static_cast<int>(design)) +
          " subarrays=" + std::to_string(subarrays);
      TableConfig cfg = test_config();
      cfg.design = design;
      cfg.subarrays_per_mat = subarrays;
      // Two mats start empty, so the skip proof fires from the first
      // search, and sparsely filled mats keep it firing afterwards.
      cfg.mats = 6;
      EngineOptions opts;
      opts.k = 3;
      opts.distance_threshold = 1;
      TcamTable table(cfg);
      PerCycleReference ref(cfg, opts);
      SearchEngine engine(table, opts);
      std::mt19937 rng = util::trial_rng(
          0xACC0u, static_cast<std::uint64_t>(
                       10 * static_cast<int>(design) + subarrays));
      std::uniform_real_distribution<double> u(0.0, 1.0);
      std::vector<EntryId> live;
      long long stalls = 0;
      long long zero_pulse_rewrites = 0;

      const auto run_batch = [&](const std::vector<Request>& batch,
                                 std::size_t b) {
        const BatchResult want = ref.apply(batch);
        const BatchResult got = engine.execute(batch);
        ASSERT_EQ(got.results.size(), want.results.size()) << where;
        for (std::size_t r = 0; r < want.results.size(); ++r) {
          ASSERT_EQ(got.results[r].hit, want.results[r].hit)
              << where << " batch " << b << " req " << r;
          ASSERT_EQ(got.results[r].entry, want.results[r].entry)
              << where << " batch " << b << " req " << r;
          if (batch[r].kind == RequestKind::kInsert && got.results[r].hit) {
            live.push_back(got.results[r].entry);
          }
        }
        EXPECT_EQ(got.stats.rows, want.stats.rows) << where << " batch " << b;
        EXPECT_EQ(got.stats.step1_misses, want.stats.step1_misses)
            << where << " batch " << b;
        EXPECT_EQ(got.stats.step2_evaluated, want.stats.step2_evaluated)
            << where << " batch " << b;
        EXPECT_EQ(got.stats.matches, want.stats.matches)
            << where << " batch " << b;
        EXPECT_EQ(got.driver_stalls, want.driver_stalls)
            << where << " batch " << b;
        EXPECT_EQ(got.write_cycles, want.write_cycles)
            << where << " batch " << b;
        EXPECT_EQ(got.model_latency_s, want.model_latency_s)
            << where << " batch " << b;
        stalls += got.driver_stalls;
      };

      // Batch 0 loads the rules onto mats 0-3 (writes only); the rest mix
      // everything.
      std::vector<Request> load;
      for (std::size_t i = 0; i < trace.rules.size(); ++i) {
        load.push_back(make_insert(trace.rules[i].entry,
                                   trace.rules[i].priority,
                                   static_cast<int>(i % 4)));
      }
      run_batch(load, 0);
      if (HasFailure()) return;
      for (std::size_t b = 1; b <= 16; ++b) {
        std::vector<Request> batch;
        for (int r = 0; r < 40; ++r) {
          const double op = u(rng);
          const arch::BitWord& q =
              trace.queries[static_cast<std::size_t>(rng()) %
                            trace.queries.size()];
          const EntryId id =
              live[static_cast<std::size_t>(rng()) % live.size()];
          const arch::TernaryWord& word =
              trace.rules[static_cast<std::size_t>(rng()) %
                          trace.rules.size()]
                  .entry;
          if (op < 0.45) {
            batch.push_back(make_search(q));
          } else if (op < 0.60) {
            batch.push_back(make_search_nearest(q, static_cast<int>(b % 4),
                                                static_cast<int>(r % 3) - 1));
          } else if (op < 0.68) {
            batch.push_back(make_insert(word, static_cast<int>(rng() % 50),
                                        r % 3 == 0 ? r % cfg.mats : -1));
          } else if (op < 0.76) {
            batch.push_back(make_update(id, word));
          } else if (op < 0.84) {
            // Unchanged word: a delta rewrite of zero pulses, which must
            // stay out of the admission model.
            if (ref.table().contains(id)) {
              batch.push_back(make_rewrite(id, ref.table().entry_word(id)));
              ++zero_pulse_rewrites;
            }
          } else if (op < 0.90) {
            batch.push_back(make_rewrite(id, word));
          } else if (op < 0.96) {
            batch.push_back(
                make_relocate(id, static_cast<int>(rng() % 6)));
          } else {
            batch.push_back(make_erase(id));
          }
        }
        run_batch(batch, b);
        if (HasFailure()) return;
      }
      engine.drain();

      for (int m = 0; m < cfg.mats; ++m) {
        EXPECT_EQ(engine.mat_utilization(m), ref.utilization(m))
            << where << " mat " << m;
      }
      const auto& got = table.search_stats();
      const auto& want = ref.stats();
      EXPECT_EQ(got.searches(), want.searches()) << where;
      EXPECT_EQ(got.rows_searched(), want.rows_searched()) << where;
      EXPECT_EQ(got.step2_evaluations(), want.step2_evaluations()) << where;
      EXPECT_EQ(got.matches(), want.matches()) << where;
      EXPECT_EQ(got.step1_miss_rate(), want.step1_miss_rate()) << where;
      EXPECT_EQ(table.total_energy_j(), ref.closed_form_energy_j()) << where;
      const double old_sum = ref.float_sum_energy_j();
      EXPECT_NEAR(table.total_energy_j(), old_sum, 1e-12 * old_sum) << where;
      // The sweep must reach the paths it exists to pin.
      EXPECT_GT(stalls, 0) << where;
      EXPECT_GT(zero_pulse_rewrites, 0) << where;
      EXPECT_GT(table.mats_skipped(), 0) << where;
    }
  }
}

}  // namespace
}  // namespace fetcam::engine
