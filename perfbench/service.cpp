// Service-pipeline workloads: lpm_serve, rule_churn and knn_embed.
//
// Each builds its inputs from the seed (engine::generate_trace), times the
// program's set-up, runs its timed window, then checks outputs outside the
// window.  A traced pass adds per-layer probes, each timing direct calls
// into one layer's public functions.
#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "compiler/applier.hpp"
#include "compiler/compile.hpp"
#include "compiler/planner.hpp"
#include "compiler/rules.hpp"
#include "engine/client.hpp"
#include "engine/engine.hpp"
#include "engine/server.hpp"
#include "engine/table.hpp"
#include "engine/wire.hpp"
#include "engine/workload.hpp"

namespace perfbench {
namespace {

using namespace fetcam;
using engine::EntryId;

constexpr int kFrameQueries = 64;  ///< queries per wire frame / small batch

/// A serving stack.  Members are declared so the implicit destructor stops
/// the server, then drains the engine, then frees the table.
struct Stack {
  std::unique_ptr<engine::TcamTable> table;
  std::vector<EntryId> ids;
  std::unique_ptr<engine::SearchEngine> engine;
  std::unique_ptr<engine::SearchServer> server;

  void reset() {
    server.reset();
    engine.reset();
    table.reset();
    ids.clear();
  }
};

/// Build the stack `setups` times with `build`, keeping the last one;
/// reports the median set-up CPU time as setup_s and the median wall time
/// as the row setup_wall_s.
template <typename Build>
void timed_setup(Stack& stack, int setups, Report& rep, Build&& build) {
  std::vector<double> cpu, wall;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    build(stack);
    wall.push_back(seconds_since(t0));
    cpu.push_back(process_cpu_s() - c0);
  }
  rep.row("setup_s", median(cpu), "s");
  rep.row("setup_wall_s", median(wall), "s");
}

std::vector<engine::Request> search_batch(const std::vector<arch::BitWord>& qs,
                                          std::size_t start, std::size_t n) {
  std::vector<engine::Request> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(engine::make_search(qs[(start + i) % qs.size()]));
  }
  return batch;
}

std::vector<engine::Request> nearest_batch(const std::vector<arch::BitWord>& qs,
                                           std::size_t start, std::size_t n,
                                           int k, int threshold) {
  std::vector<engine::Request> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(engine::make_search_nearest(qs[(start + i) % qs.size()], k,
                                                threshold));
  }
  return batch;
}

/// Result of a closed loop: wall and process CPU time of the measured
/// window and the submit-to-result latency of every batch.
struct LoopResult {
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_us;
  long long attempted = 0;  ///< searches, warm-up included
  long long searches = 0;   ///< searches completed after the warm-up
  long long failed = 0;
};

/// One producer keeps up to `depth` batches in flight through submit()
/// for `warmup` + `seconds`, then collects the stragglers.  Only batches
/// completing after the warm-up are measured.  `make(i)` builds the i-th
/// batch.
template <typename Make>
LoopResult closed_loop(engine::SearchEngine& eng, double warmup, double seconds,
                       int depth, Make&& make) {
  LoopResult out;
  std::deque<std::pair<std::future<engine::BatchResult>, Clock::time_point>>
      inflight;
  const auto start = Clock::now();
  const auto t0 = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(warmup));
  std::size_t next = 0;
  double cpu0 = -1.0;
  for (;;) {
    if (cpu0 < 0.0 && Clock::now() >= t0) cpu0 = process_cpu_s();
    if (seconds_since(start) < warmup + seconds &&
        inflight.size() < static_cast<std::size_t>(depth)) {
      const auto at = Clock::now();
      inflight.emplace_back(eng.submit(make(next++)), at);
      continue;
    }
    if (inflight.empty()) break;
    auto [fut, at] = std::move(inflight.front());
    inflight.pop_front();
    long long searches = 0;
    try {
      searches = static_cast<long long>(fut.get().results.size());
    } catch (const std::exception&) {
      ++out.failed;
    }
    const auto done = Clock::now();
    out.attempted += searches;
    if (done < t0) continue;
    out.searches += searches;
    out.latency_us.push_back(us_between(at, done));
  }
  out.window_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

/// Rows of a closed loop's rates: searches per wall second (qps) and per
/// CPU second of the whole process (ops_per_cpu_s, returned).
double loop_rates(Report& rep, const LoopResult& loop) {
  const double searches = static_cast<double>(loop.searches);
  rep.row("qps", searches / loop.window_s, "1/s");
  rep.row("ops_per_cpu_s", searches / loop.cpu_s, "1/s");
  return searches / loop.cpu_s;
}

// ---- lpm_serve ----------------------------------------------------------

struct LpmSize {
  int rules, mats, rows_per_mat, queries, setups, sample;
};

LpmSize lpm_size(Size s) {
  if (s == Size::kTiny) return {3000, 8, 512, 2048, 2, 32};
  return {122880, 256, 512, 32768, 3, 256};
}

struct Winner {
  bool hit = false;
  EntryId entry = engine::kInvalidEntry;
  int priority = 0;
};

/// Reference LPM resolution: the matching rule with the lowest
/// (priority, id), by a scan over every rule.
Winner brute_force_winner(const engine::Trace& trace,
                          const std::vector<EntryId>& ids,
                          const arch::BitWord& q) {
  Winner w;
  for (std::size_t r = 0; r < trace.rules.size(); ++r) {
    if (!arch::word_matches(trace.rules[r].entry, q)) continue;
    const int prio = trace.rules[r].priority;
    if (!w.hit || prio < w.priority ||
        (prio == w.priority && ids[r] < w.entry)) {
      w = {true, ids[r], prio};
    }
  }
  return w;
}

/// Open-loop wire client: one sender thread (the caller) paced by a seeded
/// Poisson schedule and one receiver thread on a single connection.
struct WireRun {
  std::vector<double> rtt_us;   ///< reply time minus due time
  std::vector<double> late_us;  ///< send time minus due time
  long long errors = 0;
  /// (frame index, records) of every `sample_every`-th frame.
  std::vector<std::pair<std::size_t, std::vector<engine::wire::ResultRecord>>>
      sampled;
};

WireRun open_loop(engine::SearchServer& server, int cols,
                  const std::vector<std::vector<arch::BitWord>>& frames,
                  double fps, double seconds, std::uint64_t seed,
                  std::size_t sample_every) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::exponential_distribution<double> gap(fps);
  std::vector<double> due;
  for (double t = 0.01; t < seconds; t += gap(rng)) due.push_back(t);

  WireRun run;
  run.late_us.resize(due.size());
  std::vector<double> recv_at(due.size(), 0.0);
  std::atomic<bool> receiver_failed{false};
  engine::SearchClient client;
  client.connect("127.0.0.1", server.port());
  const auto t0 = Clock::now();
  std::thread receiver([&] {
    for (std::size_t i = 0; i < due.size(); ++i) {
      try {
        engine::SearchClient::Reply reply = client.recv_reply();
        recv_at[i] = seconds_since(t0);
        if (!reply.ok || reply.records.size() != frames[i % frames.size()].size()) {
          ++run.errors;
        } else if (i % sample_every == 0) {
          run.sampled.emplace_back(i, std::move(reply.records));
        }
      } catch (const std::exception&) {
        run.errors += static_cast<long long>(due.size() - i);
        receiver_failed = true;
        return;
      }
    }
  });
  for (std::size_t i = 0; i < due.size() && !receiver_failed; ++i) {
    const auto target = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(target - std::chrono::microseconds(100));
    while (Clock::now() < target) {
    }
    run.late_us[i] = us_between(target, Clock::now());
    try {
      client.send_batch(frames[i % frames.size()], cols);
    } catch (const std::exception&) {
      server.stop();  // closes the connection, so the receiver returns
      break;
    }
  }
  receiver.join();
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (recv_at[i] > 0.0) run.rtt_us.push_back((recv_at[i] - due[i]) * 1e6);
  }
  return run;
}

bool same_result(const engine::RequestResult& a,
                 const engine::wire::ResultRecord& b) {
  return a.hit == (b.hit != 0) && a.entry == b.entry &&
         a.priority == b.priority;
}

/// Single-thread TcamTable::match cost per query over `n` queries.
double probe_match_us(const engine::TcamTable& table,
                      const std::vector<arch::BitWord>& qs, std::size_t n) {
  engine::MatchScratch scratch;
  engine::TableMatch out;
  for (std::size_t i = 0; i < 64; ++i) table.match(qs[i % qs.size()], scratch, out);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) table.match(qs[i % qs.size()], scratch, out);
  return us_between(t0, Clock::now()) / static_cast<double>(n);
}

/// PackedShard::full_match_block on mat 0 with an 8-query block:
/// row-query comparisons per microsecond.
double probe_kernel_rows_per_us(const engine::TcamTable& table,
                                const std::vector<arch::BitWord>& qs) {
  const engine::PackedShard& shard = table.shard(0);
  constexpr int kBlock = engine::kMaxQueryBlock;
  std::vector<engine::PackedQuery> packed;
  for (int q = 0; q < kBlock; ++q) packed.push_back(engine::PackedQuery::pack(qs[q]));
  std::vector<const engine::PackedQuery*> qptr;
  std::vector<std::vector<std::uint64_t>> masks(
      kBlock, std::vector<std::uint64_t>(shard.mask_words()));
  std::vector<std::uint64_t*> mptr;
  for (int q = 0; q < kBlock; ++q) {
    qptr.push_back(&packed[q]);
    mptr.push_back(masks[q].data());
  }
  arch::SearchStats stats[kBlock];
  long long reps = 0;
  const auto t0 = Clock::now();
  while (reps < 64 || seconds_since(t0) < 0.05) {
    shard.full_match_block(qptr.data(), kBlock, mptr.data(), stats);
    ++reps;
  }
  const double us = us_between(t0, Clock::now());
  return static_cast<double>(shard.rows()) * kBlock * static_cast<double>(reps) / us;
}

/// SearchEngine::execute latency per 64-query batch, median of `batches`.
double probe_execute_us(engine::SearchEngine& eng,
                        const std::vector<arch::BitWord>& qs, int batches) {
  std::vector<double> lat;
  for (int b = 0; b < batches; ++b) {
    auto batch = search_batch(qs, static_cast<std::size_t>(b) * kFrameQueries,
                              kFrameQueries);
    const auto t0 = Clock::now();
    eng.execute(std::move(batch));
    lat.push_back(us_between(t0, Clock::now()));
  }
  return median(lat);
}

/// Wire codec cost of one 64-query frame: encode + decode of the request
/// and of its result, per frame.
double probe_codec_us(const std::vector<arch::BitWord>& frame, int cols,
                      const std::vector<engine::wire::ResultRecord>& records) {
  namespace wire = engine::wire;
  wire::SearchBatchFrame req;
  req.words_per_query = static_cast<std::uint32_t>((cols + 63) / 64);
  req.bits.assign(frame.size() * req.words_per_query, 0);
  for (std::size_t q = 0; q < frame.size(); ++q) {
    for (int c = 0; c < cols; ++c) {
      if (frame[q][static_cast<std::size_t>(c)] != 0) {
        req.bits[q * req.words_per_query + (c >> 6)] |= 1ull << (c & 63);
      }
    }
  }
  constexpr int kReps = 2000;
  std::vector<std::uint8_t> a, b;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    a.clear();
    wire::encode_search_batch(a, req);
    auto dreq = wire::decode_search_batch(a.data() + wire::kHeaderSize,
                                          a.size() - wire::kHeaderSize);
    b.clear();
    wire::encode_search_result(b, records);
    auto dres = wire::decode_search_result(b.data() + wire::kHeaderSize,
                                           b.size() - wire::kHeaderSize);
    sink += (dreq ? dreq->bits.size() : 0) + (dres ? dres->size() : 0);
  }
  const double us = us_between(t0, Clock::now()) / kReps;
  if (sink == 0) throw std::runtime_error("codec probe decoded nothing");
  return us;
}

/// Modelled statistics of one fixed pass over `qs` (deterministic for a
/// given seed): step-1 miss rate, mat-skip rate, energy per search.
void modelled_pass(Stack& st, const std::vector<arch::BitWord>& qs,
                   Report& rep) {
  const long long considered0 = st.engine->mats_considered();
  const long long skipped0 = st.engine->mats_skipped();
  const double e0 = st.table->total_energy_j();
  long long rows = 0, step1 = 0;
  for (std::size_t s = 0; s < qs.size(); s += 512) {
    const auto res = st.engine->execute(
        search_batch(qs, s, std::min<std::size_t>(512, qs.size() - s)));
    rows += res.stats.rows;
    step1 += res.stats.step1_misses;
  }
  const double considered =
      static_cast<double>(st.engine->mats_considered() - considered0);
  const double skipped = static_cast<double>(st.engine->mats_skipped() - skipped0);
  rep.layer("engine.table.step1_miss_rate",
            rows > 0 ? static_cast<double>(step1) / static_cast<double>(rows) : 0.0,
            "ratio");
  rep.layer("engine.table.mat_skip_rate", considered > 0 ? skipped / considered : 0.0,
            "ratio");
  rep.layer("arch.energy_per_search_fj",
            (st.table->total_energy_j() - e0) / static_cast<double>(qs.size()) * 1e15,
            "fJ");
}

}  // namespace

Report run_lpm_serve(const RunArgs& args, bool traced) {
  const LpmSize sz = lpm_size(args.size);
  Report rep;
  rep.workload = "lpm_serve";
  rep.traced = traced;

  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kIpPrefix;
  spec.cols = 128;
  spec.rules = sz.rules;
  spec.queries = sz.queries;
  spec.seed = args.seed;
  const engine::Trace trace = engine::generate_trace(spec);
  std::vector<std::vector<arch::BitWord>> frames;
  for (std::size_t s = 0; s + kFrameQueries <= trace.queries.size(); s += kFrameQueries) {
    frames.emplace_back(trace.queries.begin() + static_cast<std::ptrdiff_t>(s),
                        trace.queries.begin() + static_cast<std::ptrdiff_t>(s + kFrameQueries));
  }

  engine::TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = sz.mats;
  cfg.rows_per_mat = sz.rows_per_mat;
  cfg.cols = spec.cols;
  Stack st;
  timed_setup(st, sz.setups, rep, [&](Stack& s) {
    s.table = std::make_unique<engine::TcamTable>(cfg);
    s.ids = engine::load_rules_clustered(*s.table, trace);
    s.engine = std::make_unique<engine::SearchEngine>(*s.table);
    s.server = std::make_unique<engine::SearchServer>(*s.engine, spec.cols);
    s.server->start();
  });

  // Right after set-up the table's energy total is the same on every run,
  // so the modelled figures of this pass repeat bit for bit.
  if (traced) modelled_pass(st, trace.queries, rep);

  // Phase 1 (half the run): in-process closed loop, 512-query batches,
  // 4 in flight, after a 10% warm-up.
  const double phase_s = 0.5 * args.seconds;
  const LoopResult loop =
      closed_loop(*st.engine, 0.1 * phase_s, 0.9 * phase_s, 4,
                  [&](std::size_t i) { return search_batch(trace.queries, i * 512, 512); });
  rep.attempted += loop.attempted + loop.failed;
  rep.failed += loop.failed;
  const double per_cpu = loop_rates(rep, loop);
  const double batch_p50 = percentile(loop.latency_us, 50.0);
  rep.row("batch_p50_us", batch_p50, "us");

  // Phase 2 (the other half): open-loop wire traffic at a fixed offered rate.
  const double fps = kLpmOfferedFps;
  const WireRun wire = open_loop(*st.server, spec.cols, frames, fps,
                                 args.seconds - phase_s, args.seed, 16);
  rep.attempted += static_cast<long long>(wire.late_us.size());
  rep.failed += wire.errors;
  const double rtt_p50 = percentile(wire.rtt_us, 50.0);
  const double rtt_p99 = percentile(wire.rtt_us, 99.0);
  rep.row("rtt_p50_us", rtt_p50, "us");
  rep.row("rtt_p99_us", rtt_p99, "us");
  rep.row("rtt_p95_us", percentile(wire.rtt_us, 95.0), "us");
  rep.row("rtt_frames", static_cast<double>(wire.rtt_us.size()), "count");
  rep.row("offered_fps", fps, "1/s");
  rep.e2e["ops_per_cpu_s"] = {per_cpu, "1/s"};

  // Checks (outside the timed windows).
  {
    std::mt19937_64 rng(args.seed + 101);
    std::vector<arch::BitWord> sample;
    for (int i = 0; i < sz.sample; ++i) {
      sample.push_back(trace.queries[rng() % trace.queries.size()]);
    }
    const auto res = st.engine->execute(search_batch(sample, 0, sample.size()));
    bool ok = true;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const Winner w = brute_force_winner(trace, st.ids, sample[i]);
      const auto& r = res.results[i];
      if (r.hit != w.hit || (w.hit && (r.entry != w.entry || r.priority != w.priority))) {
        ok = false;
      }
    }
    rep.check("lpm_winners_match_brute_force", ok);
    bool wire_ok = !wire.sampled.empty();
    for (const auto& [idx, records] : wire.sampled) {
      const auto& fq = frames[idx % frames.size()];
      const auto in = st.engine->execute(search_batch(fq, 0, fq.size()));
      for (std::size_t q = 0; q < fq.size(); ++q) {
        if (!same_result(in.results[q], records[q])) wire_ok = false;
      }
    }
    rep.check("wire_replies_match_in_process", wire_ok);
  }

  if (traced) {
    const double match_us = probe_match_us(*st.table, trace.queries, 2048);
    const double execute_us = probe_execute_us(*st.engine, trace.queries, 512);
    std::vector<engine::wire::ResultRecord> records;
    for (const auto& r : st.engine->execute(search_batch(frames[0], 0, frames[0].size())).results) {
      records.push_back({static_cast<std::uint8_t>(r.hit ? 1 : 0), r.entry, r.priority});
    }
    const double codec_us = probe_codec_us(frames[0], spec.cols, records);
    const double dispatch_us = execute_us - kFrameQueries * match_us;
    const double residue_us = rtt_p50 - execute_us - codec_us;
    rep.layer("engine.table.match_us", match_us, "us");
    rep.layer("engine.kernel.rows_per_us", probe_kernel_rows_per_us(*st.table, trace.queries),
              "1/us");
    rep.layer("engine.execute_us", execute_us, "us");
    rep.layer("engine.dispatch_us", dispatch_us, "us");
    rep.layer("engine.wire.codec_us", codec_us, "us");
    rep.layer("engine.server.residue_us", residue_us, "us");
    rep.layer("bench.loadgen_late_p99_us", percentile(wire.late_us, 99.0), "us");
    Decomposition d{"rtt_p50_us", "us", rtt_p50, {}};
    d.parts = {{"engine.table.match_us x64", kFrameQueries * match_us},
               {"engine.dispatch_us", dispatch_us},
               {"engine.wire.codec_us", codec_us}};
    rep.pipelines.push_back(d);
  }
  return rep;
}

// ---- rule_churn ---------------------------------------------------------

Report run_rule_churn(const RunArgs& args, bool traced) {
  const bool tiny = args.size == Size::kTiny;
  const int min_commits = tiny ? 5 : 100;
  Report rep;
  rep.workload = "rule_churn";
  rep.traced = traced;

  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kClassifier;
  spec.cols = 64;
  spec.rules = tiny ? 128 : 2048;
  spec.queries = 4096;
  spec.match_rate = 0.5;
  spec.seed = args.seed;
  const engine::Trace trace = engine::generate_trace(spec);
  engine::ChurnSpec churn;
  churn.seed = args.seed;

  engine::TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = tiny ? 4 : 16;
  cfg.rows_per_mat = tiny ? 64 : 256;
  cfg.cols = spec.cols;

  Stack st;
  compiler::Installation installed;
  timed_setup(st, 5, rep, [&](Stack& s) {
    s.table = std::make_unique<engine::TcamTable>(cfg);
    s.engine = std::make_unique<engine::SearchEngine>(*s.table);
    const auto compiled = compiler::compile_rules(
        compiler::rule_set_from_rules(spec.cols, trace.rules));
    installed = compiler::apply_plan(*s.engine,
                                     compiler::plan_update({}, compiled, *s.table),
                                     compiled)
                    .installed;
  });

  // Searcher: one closed-loop client keeping 4 64-query batches in flight,
  // so the engine never idles between batches.
  std::atomic<bool> stop{false};
  std::atomic<long long> searches{0}, search_failures{0};
  std::thread searcher([&] {
    std::deque<std::future<engine::BatchResult>> inflight;
    for (std::size_t i = 0; !stop.load() || !inflight.empty();) {
      if (!stop.load() && inflight.size() < 4) {
        inflight.push_back(st.engine->submit(
            search_batch(trace.queries, i++ * kFrameQueries, kFrameQueries)));
        continue;
      }
      try {
        searches += static_cast<long long>(inflight.front().get().results.size());
      } catch (const std::exception&) {
        ++search_failures;
      }
      inflight.pop_front();
    }
  });

  std::vector<double> commit_ms, compile_ms, plan_ms, apply_ms;
  long long phases = 0, naive_phases = 0, commit_failures = 0;
  std::vector<engine::TraceRule> rules = trace.rules;
  compiler::CompiledRuleSet compiled;
  std::vector<double> commit_cpu_ms;  ///< committing thread's CPU time
  const auto t0 = Clock::now();
  for (int step = 1;
       static_cast<int>(commit_ms.size()) < min_commits || seconds_since(t0) < args.seconds;
       ++step) {
    rules = engine::churn_rules(rules, spec.kind, spec.cols, churn, step);
    try {
      const double tc0 = thread_cpu_s();
      const auto a = Clock::now();
      compiled = compiler::compile_rules(compiler::rule_set_from_rules(spec.cols, rules));
      const auto b = Clock::now();
      const auto plan = compiler::plan_update(installed, compiled, *st.table);
      const auto c = Clock::now();
      installed = compiler::apply_plan(*st.engine, plan, compiled).installed;
      const auto d = Clock::now();
      compile_ms.push_back(us_between(a, b) / 1e3);
      plan_ms.push_back(us_between(b, c) / 1e3);
      apply_ms.push_back(us_between(c, d) / 1e3);
      commit_ms.push_back(us_between(a, d) / 1e3);
      commit_cpu_ms.push_back((thread_cpu_s() - tc0) * 1e3);
      if (static_cast<int>(commit_ms.size()) <= min_commits) {
        // Modelled cost over a fixed commit count, so it repeats exactly.
        phases += plan.cost.write_phases;
        naive_phases += plan.cost.naive_write_phases;
      }
    } catch (const std::exception&) {
      ++commit_failures;
    }
  }
  const double window_s = seconds_since(t0);
  stop = true;
  searcher.join();

  rep.attempted += searches.load() + search_failures.load() +
                   static_cast<long long>(commit_ms.size()) + commit_failures;
  rep.failed += search_failures.load() + commit_failures;
  // The gated rate is commits per CPU second of the committing thread.  The
  // searcher's rate is a report-only row: it shares the cores with the
  // compiler, so on a shared host it swings with scheduling far more than
  // with anything the program does.
  double commit_cpu_s = 0.0;
  for (double ms : commit_cpu_ms) commit_cpu_s += ms / 1e3;
  const double per_cpu = static_cast<double>(commit_cpu_ms.size()) / commit_cpu_s;
  rep.row("qps", static_cast<double>(searches.load()) / window_s, "1/s");
  rep.row("commits_per_s", static_cast<double>(commit_ms.size()) / window_s, "1/s");
  rep.row("ops_per_cpu_s", per_cpu, "1/s");
  rep.row("commit_p50_ms", percentile(commit_ms, 50.0), "ms");
  rep.row("commit_p90_ms", percentile(commit_ms, 90.0), "ms");
  rep.row("commit_cpu_p50_ms", percentile(commit_cpu_ms, 50.0), "ms");
  rep.row("commits", static_cast<double>(commit_ms.size()), "count");
  rep.e2e["ops_per_cpu_s"] = {per_cpu, "1/s"};

  // Check: sampled keys against the reference resolver on the final set.
  {
    std::mt19937_64 rng(args.seed + 202);
    std::vector<arch::BitWord> keys;
    for (int i = 0; i < 256; ++i) keys.push_back(trace.queries[rng() % trace.queries.size()]);
    const auto res = st.engine->execute(search_batch(keys, 0, keys.size()));
    bool ok = true;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const int ref = compiler::reference_winner(compiled, keys[i]);
      const auto& r = res.results[i];
      if ((ref >= 0) != r.hit ||
          (ref >= 0 && installed.entries[static_cast<std::size_t>(ref)].id != r.entry)) {
        ok = false;
      }
    }
    rep.check("churn_winners_match_reference", ok);
  }

  if (traced) {
    const double match_us = probe_match_us(*st.table, trace.queries, 2048);
    const double execute_us = probe_execute_us(*st.engine, trace.queries, 256);
    rep.layer("engine.table.match_us", match_us, "us");
    rep.layer("engine.execute_us", execute_us, "us");
    rep.layer("engine.dispatch_us", execute_us - kFrameQueries * match_us, "us");
    rep.layer("compiler.compile_ms", mean(compile_ms), "ms");
    rep.layer("compiler.plan_ms", mean(plan_ms), "ms");
    rep.layer("compiler.apply_ms", mean(apply_ms), "ms");
    rep.layer("compiler.write_phases",
              static_cast<double>(phases) / static_cast<double>(min_commits), "count");
    rep.layer("compiler.delta_vs_naive",
              naive_phases > 0 ? static_cast<double>(phases) / static_cast<double>(naive_phases)
                               : 0.0,
              "ratio");

    // Table write path, on a fresh table of the same shape: insert,
    // rewrite_digits and erase, per op.
    engine::TcamTable scratch(cfg);
    const std::size_t n = std::min<std::size_t>(512, rules.size());
    std::vector<EntryId> ids;
    const auto w0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) ids.push_back(scratch.insert(rules[i].entry, rules[i].priority));
    for (std::size_t i = 0; i < n; ++i) scratch.rewrite_digits(ids[i], rules[(i + 1) % n].entry);
    for (std::size_t i = 0; i < n; ++i) scratch.erase(ids[i]);
    rep.layer("engine.table.write_us", us_between(w0, Clock::now()) / (3.0 * static_cast<double>(n)),
              "us");

    Decomposition d{"commit_mean_ms", "ms", mean(commit_ms), {}};
    d.parts = {{"compiler.compile_ms", mean(compile_ms)},
               {"compiler.plan_ms", mean(plan_ms)},
               {"compiler.apply_ms", mean(apply_ms)}};
    rep.pipelines.push_back(d);
  }
  return rep;
}

// ---- knn_embed ----------------------------------------------------------

Report run_knn_embed(const RunArgs& args, bool traced) {
  const bool tiny = args.size == Size::kTiny;
  constexpr int kK = 4, kThreshold = 2;
  Report rep;
  rep.workload = "knn_embed";
  rep.traced = traced;

  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kEmbedding;
  spec.cols = 128;
  spec.digit_bits = 2;
  spec.rules = tiny ? 2048 : 98304;
  spec.queries = tiny ? 1024 : 16384;
  spec.seed = args.seed;
  const engine::Trace trace = engine::generate_trace(spec);

  engine::TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = tiny ? 8 : 192;
  cfg.rows_per_mat = 512;
  cfg.cols = spec.cols;
  cfg.digit_bits = spec.digit_bits;
  Stack st;
  timed_setup(st, 3, rep, [&](Stack& s) {
    s.table = std::make_unique<engine::TcamTable>(cfg);
    s.ids = engine::load_rules_clustered(*s.table, trace);
    s.engine = std::make_unique<engine::SearchEngine>(*s.table);
  });

  // Closed loop, 64-query batches, 2 in flight, after a 10% warm-up.
  const LoopResult loop = closed_loop(
      *st.engine, 0.1 * args.seconds, 0.9 * args.seconds, 2, [&](std::size_t i) {
        return nearest_batch(trace.queries, i * kFrameQueries, kFrameQueries, kK,
                             kThreshold);
      });
  rep.attempted += loop.attempted + loop.failed;
  rep.failed += loop.failed;
  const double per_cpu = loop_rates(rep, loop);
  const double p50 = percentile(loop.latency_us, 50.0);
  const double p99 = percentile(loop.latency_us, 99.0);
  rep.row("batch_p50_us", p50, "us");
  rep.row("batch_p99_us", p99, "us");
  rep.e2e["ops_per_cpu_s"] = {per_cpu, "1/s"};

  // Recall (modelled) against the brute-force reference, outside the window.
  {
    const std::size_t n = tiny ? 16 : 64;
    const std::size_t stride = trace.queries.size() / n;
    std::vector<arch::BitWord> sample;
    for (std::size_t i = 0; i < n; ++i) sample.push_back(trace.queries[i * stride]);
    const auto res = st.engine->execute(nearest_batch(sample, 0, n, kK, kThreshold));
    double recall_sum = 0.0;
    int scored = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto ref = engine::brute_force_nearest(trace, st.ids, sample[i],
                                                   spec.digit_bits, kK, kThreshold);
      if (ref.empty()) continue;
      int found = 0;
      for (const auto& c : ref) {
        for (const auto& got : res.results[i].neighbors) {
          if (got.entry == c.entry) ++found;
        }
      }
      recall_sum += static_cast<double>(found) / static_cast<double>(ref.size());
      ++scored;
    }
    const double recall = scored > 0 ? recall_sum / scored : 1.0;
    rep.row("recall_at_k", recall, "ratio");
    if (traced) rep.layer("quality.recall_at_k", recall, "ratio");
    rep.row("recall_queries", scored, "count");
    rep.check("recall_at_k_floor_0.99", recall >= 0.99 && scored > 0);
  }

  if (traced) {
    // TcamTable::search_nearest accounts energy, so the engine (which owns
    // the table's mutations) is shut down first.
    st.server.reset();
    st.engine.reset();
    const long long considered0 = st.table->mats_considered();
    const long long skipped0 = st.table->mats_skipped();
    const std::size_t n = tiny ? 64 : 512;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      st.table->search_nearest(trace.queries[i % trace.queries.size()], kK, kThreshold);
    }
    const double nearest_us = us_between(t0, Clock::now()) / static_cast<double>(n);
    const double considered = static_cast<double>(st.table->mats_considered() - considered0);
    rep.layer("engine.table.nearest_us", nearest_us, "us");
    rep.layer("engine.table.nearest_skip_rate",
              considered > 0
                  ? static_cast<double>(st.table->mats_skipped() - skipped0) / considered
                  : 0.0,
              "ratio");
    Decomposition d{"batch_p50_us", "us", p50, {}};
    d.parts = {{"engine.table.nearest_us x64", kFrameQueries * nearest_us}};
    rep.pipelines.push_back(d);
  }
  return rep;
}

}  // namespace perfbench
