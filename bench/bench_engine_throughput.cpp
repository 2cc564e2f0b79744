// TCAM service-engine throughput study (no paper counterpart): the
// bit-packed shard kernel vs the behavioral byte-per-digit array, and the
// end-to-end trace-driven engine (sharded table + batch queue + driver
// admission model).
//
// Usage:
//   bench_engine_throughput                      # google-benchmark kernels
//   bench_engine_throughput --engine-json=PATH   # machine-readable report
//                           [--stats-json=PATH]  # + live kStats scrape
//
// The JSON mode feeds BENCH_engine.json consumed by CI's engine perf smoke
// guard (tools/check_engine_throughput.py).  The headline gate is the
// kernel section: packed full-match throughput must be >= 4x the unpacked
// TcamArray::search at 4096 rows x 128 cols, single thread.  The wire
// section reports per-frame RTT p50/p99 and, with --stats-json, archives a
// "fetcam.stats.v1" snapshot scraped from the live loopback server.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "arch/behavioral_array.hpp"
#include "arch/search_scheduler.hpp"
#include "engine/client.hpp"
#include "engine/engine.hpp"
#include "engine/packed_kernel.hpp"
#include "engine/server.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#include <mutex>

using namespace fetcam;

namespace {

constexpr int kKernelRows = 4096;
constexpr int kKernelCols = 128;

/// Populate paired behavioral/packed arrays with identical random content
/// (~25 % 'X' digits, routing-table-ish).
void fill_pair(std::uint64_t seed, int rows, int cols, arch::TcamArray* a,
               engine::PackedShard* p) {
  for (int r = 0; r < rows; ++r) {
    auto rng = util::trial_rng(seed, static_cast<std::uint64_t>(r), 0);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> bit(0, 1);
    arch::TernaryWord w;
    w.reserve(static_cast<std::size_t>(cols));
    for (int c = 0; c < cols; ++c) {
      if (u(rng) < 0.25) {
        w.push_back(arch::Ternary::kX);
      } else {
        w.push_back(bit(rng) != 0 ? arch::Ternary::kOne
                                  : arch::Ternary::kZero);
      }
    }
    if (a != nullptr) a->write(r, w);
    if (p != nullptr) p->write(r, w);
  }
}

std::vector<arch::BitWord> make_queries(std::uint64_t seed, int count,
                                        int cols) {
  std::vector<arch::BitWord> qs;
  qs.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) {
    auto rng = util::trial_rng(seed, static_cast<std::uint64_t>(j), 1);
    std::uniform_int_distribution<int> bit(0, 1);
    arch::BitWord q(static_cast<std::size_t>(cols));
    for (auto& b : q) b = static_cast<std::uint8_t>(bit(rng));
    qs.push_back(std::move(q));
  }
  return qs;
}

// ---------------------------------------------------------------------------
// google-benchmark kernels
// ---------------------------------------------------------------------------

void BM_UnpackedSearch(benchmark::State& state) {
  arch::TcamArray a(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, &a, nullptr);
  const auto qs = make_queries(5, 64, kKernelCols);
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.search(qs[j++ % qs.size()]));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_UnpackedSearch)->Unit(benchmark::kMicrosecond);

void BM_PackedFullMatch(benchmark::State& state) {
  engine::PackedShard p(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, nullptr, &p);
  const auto qs = make_queries(5, 64, kKernelCols);
  std::vector<engine::PackedQuery> packed;
  for (const auto& q : qs) packed.push_back(engine::PackedQuery::pack(q));
  std::vector<std::uint64_t> mask;
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.full_match(packed[j++ % packed.size()], mask));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_PackedFullMatch)->Unit(benchmark::kMicrosecond);

void BM_PackedTwoStep(benchmark::State& state) {
  engine::PackedShard p(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, nullptr, &p);
  const auto qs = make_queries(5, 64, kKernelCols);
  std::vector<engine::PackedQuery> packed;
  for (const auto& q : qs) packed.push_back(engine::PackedQuery::pack(q));
  std::vector<std::uint64_t> mask;
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.two_step_match(packed[j++ % packed.size()], mask));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_PackedTwoStep)->Unit(benchmark::kMicrosecond);

/// Same packed kernel pinned to one implementation tier (0 = scalar,
/// 1 = AVX2); skipped when the tier is not available on this build/CPU.
void BM_PackedFullMatchTier(benchmark::State& state) {
  const auto tier = static_cast<engine::KernelTier>(state.range(0));
  if (!engine::kernel_tier_available(tier)) {
    state.SkipWithError("kernel tier unavailable");
    return;
  }
  engine::PackedShard p(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, nullptr, &p);
  const auto qs = make_queries(5, 64, kKernelCols);
  std::vector<engine::PackedQuery> packed;
  for (const auto& q : qs) packed.push_back(engine::PackedQuery::pack(q));
  std::vector<std::uint64_t> mask;
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.full_match(packed[j++ % packed.size()], mask, tier));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
  state.SetLabel(engine::kernel_tier_name(tier));
}
BENCHMARK(BM_PackedFullMatchTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_PackedTwoStepTier(benchmark::State& state) {
  const auto tier = static_cast<engine::KernelTier>(state.range(0));
  if (!engine::kernel_tier_available(tier)) {
    state.SkipWithError("kernel tier unavailable");
    return;
  }
  engine::PackedShard p(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, nullptr, &p);
  const auto qs = make_queries(5, 64, kKernelCols);
  std::vector<engine::PackedQuery> packed;
  for (const auto& q : qs) packed.push_back(engine::PackedQuery::pack(q));
  std::vector<std::uint64_t> mask;
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.two_step_match(packed[j++ % packed.size()], mask, tier));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
  state.SetLabel(engine::kernel_tier_name(tier));
}
BENCHMARK(BM_PackedTwoStepTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineBatch(benchmark::State& state) {
  engine::TraceSpec spec;
  spec.cols = 64;
  spec.rules = 512;
  spec.queries = 256;
  spec.match_rate = 0.25;
  const auto trace = engine::generate_trace(spec);
  engine::TableConfig cfg;
  cfg.mats = 8;
  cfg.rows_per_mat = 64;
  cfg.cols = 64;
  engine::TcamTable table(cfg);
  engine::load_rules(table, trace);
  engine::SearchEngine eng(table);
  for (auto _ : state) {
    std::vector<engine::Request> batch;
    batch.reserve(trace.queries.size());
    for (const auto& q : trace.queries) {
      batch.push_back(engine::make_search(q));
    }
    benchmark::DoNotOptimize(eng.execute(std::move(batch)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.queries.size()));
}
BENCHMARK(BM_EngineBatch)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Machine-readable report (--engine-json=PATH)
// ---------------------------------------------------------------------------

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    fn();
    t.push_back(now_us() - t0);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

struct KernelReport {
  int rows = 0;
  int cols = 0;
  int queries = 0;
  double unpacked_us = 0.0;         ///< TcamArray::search, per query batch
  double unpacked_two_step_us = 0.0;
  double packed_us = 0.0;           ///< PackedShard::full_match
  double packed_two_step_us = 0.0;
  double speedup = 0.0;             ///< unpacked / packed, full match
  double two_step_speedup = 0.0;
};

KernelReport measure_kernel() {
  KernelReport rep;
  rep.rows = kKernelRows;
  rep.cols = kKernelCols;
  rep.queries = 32;

  arch::TcamArray a(kKernelRows, kKernelCols);
  engine::PackedShard p(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, &a, &p);
  const auto qs = make_queries(5, rep.queries, kKernelCols);
  std::vector<engine::PackedQuery> packed;
  for (const auto& q : qs) packed.push_back(engine::PackedQuery::pack(q));

  const int reps = 15;
  rep.unpacked_us = median_us(reps, [&] {
    for (const auto& q : qs) benchmark::DoNotOptimize(a.search(q));
  });
  rep.unpacked_two_step_us = median_us(reps, [&] {
    for (const auto& q : qs) {
      benchmark::DoNotOptimize(arch::two_step_search(a, q));
    }
  });
  std::vector<std::uint64_t> mask;
  rep.packed_us = median_us(reps, [&] {
    for (const auto& q : packed) {
      benchmark::DoNotOptimize(p.full_match(q, mask));
    }
  });
  rep.packed_two_step_us = median_us(reps, [&] {
    for (const auto& q : packed) {
      benchmark::DoNotOptimize(p.two_step_match(q, mask));
    }
  });
  rep.speedup = rep.packed_us > 0.0 ? rep.unpacked_us / rep.packed_us : 0.0;
  rep.two_step_speedup = rep.packed_two_step_us > 0.0
                             ? rep.unpacked_two_step_us / rep.packed_two_step_us
                             : 0.0;
  return rep;
}

struct SimdReport {
  bool available = false;        ///< AVX2 compiled in AND CPU supports it
  std::string active_tier;       ///< tier the default path dispatches to
  double scalar_us = 0.0;        ///< full_match pinned to kScalar
  double simd_us = 0.0;          ///< full_match pinned to kAvx2
  double scalar_two_step_us = 0.0;
  double simd_two_step_us = 0.0;
  double speedup = 0.0;          ///< scalar / simd, full match
  double two_step_speedup = 0.0;
};

/// SIMD-vs-scalar on the SAME packed representation at the gate shape;
/// this isolates the vector kernel from the packing win measured above.
SimdReport measure_simd() {
  SimdReport rep;
  rep.available = engine::kernel_tier_available(engine::KernelTier::kAvx2);
  rep.active_tier = engine::kernel_tier_name(engine::active_kernel_tier());

  engine::PackedShard p(kKernelRows, kKernelCols);
  fill_pair(3, kKernelRows, kKernelCols, nullptr, &p);
  const auto qs = make_queries(5, 32, kKernelCols);
  std::vector<engine::PackedQuery> packed;
  for (const auto& q : qs) packed.push_back(engine::PackedQuery::pack(q));

  const int reps = 15;
  std::vector<std::uint64_t> mask;
  rep.scalar_us = median_us(reps, [&] {
    for (const auto& q : packed) {
      benchmark::DoNotOptimize(
          p.full_match(q, mask, engine::KernelTier::kScalar));
    }
  });
  rep.scalar_two_step_us = median_us(reps, [&] {
    for (const auto& q : packed) {
      benchmark::DoNotOptimize(
          p.two_step_match(q, mask, engine::KernelTier::kScalar));
    }
  });
  if (rep.available) {
    rep.simd_us = median_us(reps, [&] {
      for (const auto& q : packed) {
        benchmark::DoNotOptimize(
            p.full_match(q, mask, engine::KernelTier::kAvx2));
      }
    });
    rep.simd_two_step_us = median_us(reps, [&] {
      for (const auto& q : packed) {
        benchmark::DoNotOptimize(
            p.two_step_match(q, mask, engine::KernelTier::kAvx2));
      }
    });
    rep.speedup = rep.simd_us > 0.0 ? rep.scalar_us / rep.simd_us : 0.0;
    rep.two_step_speedup = rep.simd_two_step_us > 0.0
                               ? rep.scalar_two_step_us / rep.simd_two_step_us
                               : 0.0;
  }
  return rep;
}

struct MulticoreConfig {
  int rules = 0;
  int mats = 0;
  int dispatch_threads = 1;
  double qps = 0.0;
};

/// Search-only trace through the engine at 1, 2 and 4 dispatcher threads
/// (query blocks spread across dispatchers, each block over every mat) on
/// two tables: the 2,048-rule / 8-mat / 64-bit bench table (32 KiB of
/// planar words: it fits in cache, so it mostly measures dispatch
/// overhead), and a 65,536-rule / 64-mat / 128-bit table (2 MiB of planar
/// words plus row metadata: larger than a 2 MiB L2, so matching
/// dominates).  Results are identical by the engine's determinism
/// contract; only the throughput moves.
std::vector<MulticoreConfig> measure_multicore(double* best_qps) {
  struct Table {
    int rules;
    int mats;
    int rows_per_mat;
    int cols;
  };
  const Table tables[] = {{2048, 8, 256, 64}, {65536, 64, 1024, 128}};
  std::vector<MulticoreConfig> configs;
  *best_qps = 0.0;
  for (const Table& t : tables) {
    engine::TraceSpec spec;
    spec.kind = engine::TraceKind::kIpPrefix;
    spec.cols = t.cols;
    spec.rules = t.rules;
    spec.queries = 20000;
    spec.match_rate = 0.25;
    spec.seed = 11;
    const auto trace = engine::generate_trace(spec);

    engine::TableConfig cfg;
    cfg.mats = t.mats;
    cfg.rows_per_mat = t.rows_per_mat;
    cfg.cols = t.cols;
    cfg.subarrays_per_mat = 4;
    engine::TcamTable table(cfg);
    const auto ids = engine::load_rules(table, trace);
    for (const int dispatchers : {1, 2, 4}) {
      engine::EngineOptions eopts;
      eopts.dispatch_threads = dispatchers;
      engine::SearchEngine eng(table, eopts);
      engine::RunOptions ropts;
      ropts.batch_size = 512;
      ropts.update_rate = 0.0;  // pure search: the table never changes
      ropts.seed = 11;
      const engine::RunSummary s =
          engine::run_trace(eng, table, trace, ids, ropts);
      MulticoreConfig c;
      c.rules = t.rules;
      c.mats = t.mats;
      c.dispatch_threads = dispatchers;
      c.qps = s.qps;
      configs.push_back(c);
      *best_qps = std::max(*best_qps, c.qps);
      std::cerr << "multicore rules=" << c.rules << " mats=" << c.mats
                << " dispatch=" << c.dispatch_threads << ": " << c.qps
                << " qps\n";
    }
  }
  return configs;
}

struct ApproxReport {
  int digit_bits = 0;
  int k = 0;
  int threshold = 0;
  std::uint64_t rules = 0;
  std::uint64_t searches = 0;
  double hit_rate = 0.0;
  double recall_at_k = 0.0;
  std::uint64_t recall_queries = 0;
  double qps = 0.0;
  double energy_per_search_j = 0.0;        ///< threshold kNN (single step)
  double exact_energy_per_search_j = 0.0;  ///< exact two-step, same table
  double energy_ratio = 0.0;  ///< approx / exact: the early-term saving lost
  std::vector<std::uint64_t> distance_histogram;
};

/// Approximate-match arm: an embedding trace with planted near-duplicates
/// through the kSearchNearest path, recall-checked against the brute-force
/// reference, plus an exact-search A/B on the SAME table for the energy
/// story (threshold search cannot use two-step early termination, so it
/// pays the full-word evaluation energy on every row).
ApproxReport measure_approx() {
  ApproxReport rep;
  rep.digit_bits = 2;
  rep.k = 4;
  rep.threshold = 2;

  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kEmbedding;
  spec.cols = 64;
  spec.rules = 2048;
  spec.queries = 20000;
  spec.match_rate = 0.5;
  spec.digit_bits = rep.digit_bits;
  spec.seed = 17;
  const auto trace = engine::generate_trace(spec);
  rep.rules = trace.rules.size();

  engine::TableConfig cfg;
  cfg.mats = 8;
  cfg.rows_per_mat = 256;
  cfg.cols = 64;
  cfg.subarrays_per_mat = 4;
  cfg.digit_bits = rep.digit_bits;
  engine::TcamTable table(cfg);
  const auto ids = engine::load_rules(table, trace);

  engine::EngineOptions eopts;
  eopts.k = rep.k;
  eopts.distance_threshold = rep.threshold;
  engine::SearchEngine eng(table, eopts);

  // Exact A/B first: the same queries as plain searches (two-step early
  // termination active).  Planted duplicates with >= 1 flipped digit miss
  // here — that gap is what the approximate path exists to close.
  engine::RunOptions exact_opts;
  exact_opts.batch_size = 512;
  exact_opts.update_rate = 0.0;
  exact_opts.seed = 17;
  const engine::RunSummary exact =
      engine::run_trace(eng, table, trace, ids, exact_opts);
  rep.exact_energy_per_search_j = exact.energy_per_search_j;

  engine::NearestRunOptions nopts;
  nopts.batch_size = 512;
  nopts.k = rep.k;
  nopts.threshold = rep.threshold;
  const engine::NearestRunSummary s =
      engine::run_nearest_trace(eng, table, trace, ids, nopts);
  rep.searches = s.searches;
  rep.hit_rate = s.hit_rate;
  rep.recall_at_k = s.recall_at_k;
  rep.recall_queries = s.recall_queries;
  rep.qps = s.qps;
  rep.energy_per_search_j = s.energy_per_search_j;
  rep.energy_ratio = rep.exact_energy_per_search_j > 0.0
                         ? rep.energy_per_search_j /
                               rep.exact_energy_per_search_j
                         : 0.0;
  rep.distance_histogram = s.distance_histogram;
  std::cerr << "approx (d=" << rep.digit_bits << ", k=" << rep.k
            << ", t=" << rep.threshold << "): " << s.searches
            << " searches -> " << s.qps << " qps, recall@" << rep.k << "="
            << s.recall_at_k << " (" << s.recall_queries
            << " scored), hit_rate=" << s.hit_rate
            << ", exact hit_rate=" << exact.hit_rate
            << ", energy_ratio=" << rep.energy_ratio << "\n";
  return rep;
}

struct WireReport {
  int clients = 0;
  int frames_per_client = 0;
  int queries_per_frame = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  std::uint64_t frames_served = 0;
  double rtt_p50_us = 0.0;  ///< per-frame send->reply round trip
  double rtt_p99_us = 0.0;
  std::string stats_json;   ///< live kStats scrape taken before stop()
};

double sorted_percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size()) + 0.999999);
  if (idx < 1) idx = 1;
  if (idx > v.size()) idx = v.size();
  return v[idx - 1];
}

/// Over-the-wire mode: loopback SearchServer, pipelined binary-protocol
/// clients.  Measures the full path (framing + epoll + engine + framing).
/// Stage attribution rides along: the section runs at obs metrics level and
/// finishes with a live kStats scrape off the still-running server, which
/// CI archives next to BENCH_engine.json.
WireReport measure_wire() {
  WireReport rep;
  rep.clients = 2;
  rep.frames_per_client = 100;
  rep.queries_per_frame = 64;

  // Per-stage recorders only fill at metrics level; restore the prior
  // level on exit so the wire section is self-contained.
  const obs::Level prior_level = obs::level();
  if (!obs::metrics_on()) obs::set_level(obs::Level::kMetrics);

  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kIpPrefix;
  spec.cols = 64;
  spec.rules = 2048;
  spec.queries = 1024;
  spec.match_rate = 0.25;
  spec.seed = 13;
  const auto trace = engine::generate_trace(spec);

  engine::TableConfig cfg;
  cfg.mats = 8;
  cfg.rows_per_mat = 256;
  cfg.cols = 64;
  cfg.subarrays_per_mat = 4;
  engine::TcamTable table(cfg);
  engine::load_rules(table, trace);

  engine::SearchEngine eng(table);
  engine::SearchServer server(eng, cfg.cols);
  server.start();

  constexpr int kPipelineDepth = 8;
  std::mutex rtt_mu;
  std::vector<double> rtts;  // per-frame round trips, all clients merged
  const double t0 = now_us();
  std::vector<std::thread> threads;
  for (int c = 0; c < rep.clients; ++c) {
    threads.emplace_back([&, c] {
      engine::SearchClient client;
      client.connect("127.0.0.1", server.port());
      std::vector<arch::BitWord> frame;
      frame.reserve(static_cast<std::size_t>(rep.queries_per_frame));
      for (int k = 0; k < rep.queries_per_frame; ++k) {
        frame.push_back(trace.queries[static_cast<std::size_t>(
            (c * 509 + k) % static_cast<int>(trace.queries.size()))]);
      }
      // The server answers in request order, so reply k closes the RTT
      // opened by send k even with pipelining.
      std::vector<double> send_ts(
          static_cast<std::size_t>(rep.frames_per_client), 0.0);
      std::vector<double> local_rtts;
      local_rtts.reserve(send_ts.size());
      int sent = 0;
      int received = 0;
      while (received < rep.frames_per_client) {
        while (sent < rep.frames_per_client &&
               sent - received < kPipelineDepth) {
          send_ts[static_cast<std::size_t>(sent)] = now_us();
          client.send_batch(frame, cfg.cols);
          ++sent;
        }
        const auto reply = client.recv_reply();
        if (!reply.ok) return;  // surfaces as a frames_served shortfall
        local_rtts.push_back(now_us() -
                             send_ts[static_cast<std::size_t>(received)]);
        ++received;
      }
      const std::lock_guard<std::mutex> lock(rtt_mu);
      rtts.insert(rtts.end(), local_rtts.begin(), local_rtts.end());
    });
  }
  for (auto& t : threads) t.join();
  rep.wall_s = (now_us() - t0) / 1e6;
  rep.frames_served = server.frames_served();
  rep.rtt_p50_us = sorted_percentile(rtts, 0.50);
  rep.rtt_p99_us = sorted_percentile(rtts, 0.99);
  // Scrape the live server before stopping it: the artifact shows queue /
  // stage percentiles and per-connection counters for this exact run.
  try {
    engine::SearchClient scraper;
    scraper.connect("127.0.0.1", server.port());
    rep.stats_json = scraper.stats();
  } catch (const std::exception& e) {
    std::cerr << "stats scrape failed: " << e.what() << "\n";
  }
  server.stop();
  obs::set_level(prior_level);
  const double total_queries = static_cast<double>(rep.clients) *
                               rep.frames_per_client * rep.queries_per_frame;
  rep.qps = rep.wall_s > 0.0 ? total_queries / rep.wall_s : 0.0;
  std::cerr << "wire: " << rep.clients << " clients x "
            << rep.frames_per_client << " frames x " << rep.queries_per_frame
            << " queries in " << rep.wall_s << "s -> " << rep.qps
            << " qps, rtt p50=" << rep.rtt_p50_us << "us p99="
            << rep.rtt_p99_us << "us\n";
  return rep;
}

int emit_engine_json(const std::string& path, const std::string& stats_path) {
  // The kernel gate is defined single-thread: pin the pool so a parallel
  // environment cannot flatter (or starve) either arm.
  util::set_thread_count(1);
  const KernelReport k = measure_kernel();
  std::cerr << "kernel " << k.rows << "x" << k.cols << ": unpacked="
            << k.unpacked_us << "us packed=" << k.packed_us
            << "us speedup=" << k.speedup << " (two-step "
            << k.two_step_speedup << ")\n";
  const SimdReport simd = measure_simd();
  std::cerr << "simd (" << (simd.available ? "avx2" : "unavailable")
            << ", active=" << simd.active_tier << "): scalar="
            << simd.scalar_us << "us simd=" << simd.simd_us
            << "us speedup=" << simd.speedup << " (two-step "
            << simd.two_step_speedup << ")\n";

  // Engine run: default thread resolution (FETCAM_THREADS / cores).
  util::set_thread_count(0);
  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kIpPrefix;
  spec.cols = 64;
  spec.rules = 2048;
  spec.queries = 50000;
  spec.match_rate = 0.25;
  spec.seed = 7;
  const auto trace = engine::generate_trace(spec);

  engine::TableConfig cfg;
  cfg.mats = 8;
  cfg.rows_per_mat = 256;
  cfg.cols = 64;
  cfg.subarrays_per_mat = 4;
  engine::RunOptions ropts;
  ropts.batch_size = 512;
  ropts.update_rate = 0.01;
  ropts.seed = 7;

  // Baseline arm — the PR 7 search path: insertion-order placement,
  // pruning off, query_block 1 (every lane takes the single-query path).
  engine::TableConfig base_cfg = cfg;
  base_cfg.mat_skip = false;
  engine::RunSummary sb;
  {
    engine::TcamTable base_table(base_cfg);
    const auto base_ids = engine::load_rules(base_table, trace);
    engine::EngineOptions base_opts;
    base_opts.query_block = 1;
    engine::SearchEngine base_eng(base_table, base_opts);
    sb = engine::run_trace(base_eng, base_table, trace, base_ids, ropts);
  }
  std::cerr << "engine baseline (block=1, skip off): " << sb.searches
            << " searches in " << sb.wall_s << "s -> " << sb.qps
            << " qps, hit_rate=" << sb.hit_rate << "\n";

  // Blocked arm — this PR: pruning-aware clustered placement, mat-skip
  // pruning, blocked kernels at the default query_block.
  engine::TcamTable table(cfg);
  const auto ids = engine::load_rules_clustered(table, trace);
  engine::SearchEngine eng(table);
  const engine::RunSummary s =
      engine::run_trace(eng, table, trace, ids, ropts);
  const long long considered = eng.mats_considered();
  const long long skipped = eng.mats_skipped();
  const double skip_rate =
      considered > 0
          ? static_cast<double>(skipped) / static_cast<double>(considered)
          : 0.0;
  const double block_speedup = sb.qps > 0.0 ? s.qps / sb.qps : 0.0;
  std::cerr << "engine blocked (block=" << eng.query_block()
            << ", skip on): " << s.searches << " searches in " << s.wall_s
            << "s -> " << s.qps << " qps, hit_rate=" << s.hit_rate
            << " step1_miss_rate=" << s.step1_miss_rate
            << " mat_skip_rate=" << skip_rate
            << " block_speedup=" << block_speedup << "\n";

  double best_qps = 0.0;
  const std::vector<MulticoreConfig> configs = measure_multicore(&best_qps);
  const WireReport wire = measure_wire();
  const ApproxReport approx = measure_approx();

  std::ostringstream os;
  os << "{\n  \"kernel\": {\n"
     << "    \"rows\": " << k.rows << ",\n"
     << "    \"cols\": " << k.cols << ",\n"
     << "    \"queries_per_rep\": " << k.queries << ",\n"
     << "    \"unpacked_us\": " << k.unpacked_us << ",\n"
     << "    \"unpacked_two_step_us\": " << k.unpacked_two_step_us << ",\n"
     << "    \"packed_us\": " << k.packed_us << ",\n"
     << "    \"packed_two_step_us\": " << k.packed_two_step_us << ",\n"
     << "    \"speedup\": " << k.speedup << ",\n"
     << "    \"two_step_speedup\": " << k.two_step_speedup << "\n"
     << "  },\n";
  os << "  \"simd\": {\n"
     << "    \"available\": " << (simd.available ? "true" : "false") << ",\n"
     << "    \"active_tier\": \"" << simd.active_tier << "\",\n"
     << "    \"scalar_us\": " << simd.scalar_us << ",\n"
     << "    \"simd_us\": " << simd.simd_us << ",\n"
     << "    \"scalar_two_step_us\": " << simd.scalar_two_step_us << ",\n"
     << "    \"simd_two_step_us\": " << simd.simd_two_step_us << ",\n"
     << "    \"speedup\": " << simd.speedup << ",\n"
     << "    \"two_step_speedup\": " << simd.two_step_speedup << "\n"
     << "  },\n";
  os << "  \"multicore\": {\n    \"configs\": [\n";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const MulticoreConfig& c = configs[i];
    os << "      {\"rules\": " << c.rules << ", \"mats\": " << c.mats
       << ", \"dispatch_threads\": " << c.dispatch_threads
       << ", \"qps\": " << c.qps << "}"
       << (i + 1 < configs.size() ? "," : "") << "\n";
  }
  os << "    ],\n    \"best_qps\": " << best_qps << "\n  },\n";
  os << "  \"wire\": {\n"
     << "    \"clients\": " << wire.clients << ",\n"
     << "    \"frames_per_client\": " << wire.frames_per_client << ",\n"
     << "    \"queries_per_frame\": " << wire.queries_per_frame << ",\n"
     << "    \"frames_served\": " << wire.frames_served << ",\n"
     << "    \"wall_s\": " << wire.wall_s << ",\n"
     << "    \"qps\": " << wire.qps << ",\n"
     << "    \"rtt_p50_us\": " << wire.rtt_p50_us << ",\n"
     << "    \"rtt_p99_us\": " << wire.rtt_p99_us << "\n"
     << "  },\n";
  os << "  \"approx\": {\n"
     << "    \"digit_bits\": " << approx.digit_bits << ",\n"
     << "    \"k\": " << approx.k << ",\n"
     << "    \"threshold\": " << approx.threshold << ",\n"
     << "    \"rules\": " << approx.rules << ",\n"
     << "    \"searches\": " << approx.searches << ",\n"
     << "    \"hit_rate\": " << approx.hit_rate << ",\n"
     << "    \"recall_at_k\": " << approx.recall_at_k << ",\n"
     << "    \"recall_queries\": " << approx.recall_queries << ",\n"
     << "    \"qps\": " << approx.qps << ",\n"
     << "    \"energy_per_search_j\": " << approx.energy_per_search_j << ",\n"
     << "    \"exact_energy_per_search_j\": "
     << approx.exact_energy_per_search_j << ",\n"
     << "    \"energy_ratio\": " << approx.energy_ratio << ",\n"
     << "    \"distance_histogram\": [";
  for (std::size_t i = 0; i < approx.distance_histogram.size(); ++i) {
    os << (i ? ", " : "") << approx.distance_histogram[i];
  }
  os << "]\n  },\n";
  os << "  \"engine\": {\n"
     << "    \"trace_kind\": \"" << engine::trace_kind_name(spec.kind)
     << "\",\n"
     << "    \"mats\": " << cfg.mats << ",\n"
     << "    \"rows_per_mat\": " << cfg.rows_per_mat << ",\n"
     << "    \"cols\": " << cfg.cols << ",\n"
     << "    \"rules\": " << trace.rules.size() << ",\n"
     << "    \"requests\": " << s.requests << ",\n"
     << "    \"searches\": " << s.searches << ",\n"
     << "    \"writes\": " << s.writes << ",\n"
     << "    \"batches\": " << s.batches << ",\n"
     << "    \"hit_rate\": " << s.hit_rate << ",\n"
     << "    \"step1_miss_rate\": " << s.step1_miss_rate << ",\n"
     << "    \"query_block\": " << eng.query_block() << ",\n"
     << "    \"baseline_qps\": " << sb.qps << ",\n"
     << "    \"block_speedup\": " << block_speedup << ",\n"
     << "    \"mats_considered\": " << considered << ",\n"
     << "    \"mats_skipped\": " << skipped << ",\n"
     << "    \"mat_skip_rate\": " << skip_rate << ",\n"
     << "    \"energy_per_search_j\": " << s.energy_per_search_j << ",\n"
     << "    \"driver_stalls\": " << s.driver_stalls << ",\n"
     << "    \"write_cycles\": " << s.write_cycles << ",\n"
     << "    \"model_time_s\": " << s.model_time_s << ",\n"
     << "    \"wall_s\": " << s.wall_s << ",\n"
     << "    \"qps\": " << s.qps << ",\n"
     << "    \"p50_batch_us\": " << s.p50_batch_us << ",\n"
     << "    \"p99_batch_us\": " << s.p99_batch_us << ",\n"
     << "    \"queue_high_watermark\": " << eng.queue_high_watermark() << "\n"
     << "  }\n}\n";

  std::ofstream f(path);
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  f << os.str();
  std::cerr << "wrote " << path << "\n";

  if (!stats_path.empty()) {
    if (wire.stats_json.empty()) {
      std::cerr << "no stats snapshot captured; skipping " << stats_path
                << "\n";
      return 1;
    }
    std::ofstream sf(stats_path);
    if (!sf) {
      std::cerr << "cannot write " << stats_path << "\n";
      return 1;
    }
    sf << wire.stats_json;
    std::cerr << "wrote " << stats_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string stats_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--engine-json=", 14) == 0) {
      json_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_path = argv[i] + 13;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return emit_engine_json(json_path, stats_path);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
