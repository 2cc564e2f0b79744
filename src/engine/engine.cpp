#include "engine/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace fetcam::engine {

namespace {

struct EngineMetrics {
  obs::Counter& batches;
  obs::Counter& requests;
  obs::Counter& searches;
  obs::Counter& nearest;
  obs::Counter& writes;
  obs::Counter& driver_stalls;
  obs::Counter& write_cycles;
  obs::Counter& mats_considered;
  obs::Counter& mats_skipped;
  obs::Gauge& queue_hwm;
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  // Per-stage request attribution (docs/OBSERVABILITY.md stage catalog).
  obs::LatencyRecorder& queue_wait;
  /// Phase-A latency per kernel tier, indexed by KernelTier.
  obs::LatencyRecorder* match_tier[2];
  obs::LatencyRecorder& apply;
  obs::LatencyRecorder& batch_total;

  static EngineMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static EngineMetrics m{
        reg.counter("engine.batches"),
        reg.counter("engine.requests"),
        reg.counter("engine.searches"),
        reg.counter("engine.nearest"),
        reg.counter("engine.writes"),
        reg.counter("engine.driver_stalls"),
        reg.counter("engine.write_cycles"),
        reg.counter("engine.mats_considered"),
        reg.counter("engine.mats_skipped"),
        reg.gauge("engine.queue_high_watermark"),
        reg.gauge("engine.queue.depth"),
        reg.gauge("engine.in_flight"),
        reg.latency("engine.stage.queue_wait"),
        {&reg.latency("engine.stage.match.scalar"),
         &reg.latency("engine.stage.match.avx2")},
        reg.latency("engine.stage.apply"),
        reg.latency("engine.batch.total"),
    };
    return m;
  }
};

}  // namespace

EngineOptions SearchEngine::validate_options(EngineOptions options) {
  if (options.queue_capacity == 0) {
    throw std::invalid_argument(
        "EngineOptions.queue_capacity must be > 0 (a zero-capacity queue "
        "can never admit a batch)");
  }
  if (options.dispatch_threads < 0) {
    throw std::invalid_argument(
        "EngineOptions.dispatch_threads must be >= 0 (0 = auto via "
        "util::thread_count()), got " +
        std::to_string(options.dispatch_threads));
  }
  if (options.query_block < 1 || options.query_block > kMaxQueryBlock) {
    throw std::invalid_argument(
        "EngineOptions.query_block must be in [1, " +
        std::to_string(kMaxQueryBlock) + "], got " +
        std::to_string(options.query_block));
  }
  if (options.k < 1) {
    throw std::invalid_argument("EngineOptions.k must be >= 1, got " +
                                std::to_string(options.k));
  }
  if (options.distance_threshold < 0) {
    throw std::invalid_argument(
        "EngineOptions.distance_threshold must be >= 0, got " +
        std::to_string(options.distance_threshold));
  }
  return options;
}

SearchEngine::SearchEngine(TcamTable& table, EngineOptions options)
    : table_(table),
      options_(validate_options(options)),
      queue_(options_.queue_capacity) {
  const TableConfig& cfg = table.config();
  dispatch_threads_ = options_.dispatch_threads > 0
                          ? options_.dispatch_threads
                          : util::thread_count();
  if (dispatch_threads_ < 1) dispatch_threads_ = 1;
  // Don't attribute pre-engine pruning activity to this engine's registry
  // counters.
  last_mats_considered_ = table.mats_considered();
  last_mats_skipped_ = table.mats_skipped();
  arch::MatGeometry geom;
  geom.rows = cfg.rows_per_mat / cfg.subarrays_per_mat;
  geom.cols = cfg.cols;
  geom.subarrays = cfg.subarrays_per_mat;
  mat_schedulers_.reserve(static_cast<std::size_t>(cfg.mats));
  for (int m = 0; m < cfg.mats; ++m) {
    mat_schedulers_.emplace_back(geom, arch::HvDriverParams{});
  }
  helpers_.reserve(static_cast<std::size_t>(dispatch_threads_ - 1));
  for (int t = 1; t < dispatch_threads_; ++t) {
    helpers_.emplace_back([this] { helper_loop(); });
  }
  coordinator_ = std::thread([this] { coordinator_loop(); });
}

SearchEngine::~SearchEngine() {
  queue_.close();
  if (coordinator_.joinable()) coordinator_.join();
  {
    const std::lock_guard<std::mutex> lock(round_mu_);
    pool_stop_ = true;
  }
  round_cv_.notify_all();
  for (std::thread& t : helpers_) {
    if (t.joinable()) t.join();
  }
}

std::future<BatchResult> SearchEngine::submit(std::vector<Request> batch,
                                              std::uint64_t trace_id) {
  Work work;
  work.batch = std::move(batch);
  work.trace_id = trace_id;
  if (obs::metrics_on()) work.submit_ns = obs::now_ns();
  std::future<BatchResult> future = work.promise.get_future();
  // Sequence assignment and queue insertion happen under one lock so the
  // FIFO queue order IS the sequence order (the determinism contract).
  const std::lock_guard<std::mutex> lock(submit_mu_);
  work.seq = next_seq_++;
  submitted_.fetch_add(1, std::memory_order_release);
  if (!queue_.push(std::move(work))) {
    // Engine shut down: nothing will ever complete this batch, so undo the
    // in-flight accounting before handing back a broken future.
    completed_.fetch_add(1, std::memory_order_release);
    // The promise was moved into the dropped Work, so recreate a
    // broken-promise future explicitly.
    std::promise<BatchResult> broken;
    broken.set_exception(std::make_exception_ptr(
        std::runtime_error("engine is shut down")));
    return broken.get_future();
  }
  return future;
}

BatchResult SearchEngine::execute(std::vector<Request> batch) {
  return submit(std::move(batch)).get();
}

void SearchEngine::drain() {
  // An empty batch flushes: batches apply in order, so once it resolves
  // every earlier batch has been applied.
  execute({});
}

double SearchEngine::mat_utilization(int mat) const {
  return mat_schedulers_[static_cast<std::size_t>(mat)].utilization();
}

void SearchEngine::helper_loop() {
  std::uint64_t seen = 0;
  std::shared_ptr<Round> round;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(round_mu_);
      round_cv_.wait(lock, [&] { return pool_stop_ || round_gen_ != seen; });
      if (pool_stop_) return;
      seen = round_gen_;
      round = round_;
    }
    for (;;) {
      const std::size_t i =
          round->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= round->count) break;
      (*round->fn)(i);
      if (round->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          round->count) {
        const std::lock_guard<std::mutex> lock(round->mu);
        round->cv.notify_all();
      }
    }
    round.reset();
  }
}

void SearchEngine::run_round(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (helpers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto round = std::make_shared<Round>();
  round->fn = &fn;
  round->count = count;
  {
    const std::lock_guard<std::mutex> lock(round_mu_);
    round_ = round;
    ++round_gen_;
  }
  round_cv_.notify_all();
  // The coordinator is dispatcher #0: it claims tasks alongside the
  // helpers instead of idling on the wait.
  for (;;) {
    const std::size_t i = round->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= round->count) break;
    (*round->fn)(i);
    if (round->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        round->count) {
      const std::lock_guard<std::mutex> lock(round->mu);
      round->cv.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(round->mu);
  round->cv.wait(lock, [&] {
    return round->done.load(std::memory_order_acquire) == round->count;
  });
}

void SearchEngine::coordinator_loop() {
  // Phase-A result slots, reused across batches so their buffers stay
  // warm (match_batch only grows them).
  std::vector<TableMatch> matches;
  std::vector<NearestMatch> nears;
  while (std::optional<Work> popped = queue_.pop()) {
    Work& work = *popped;
    if (obs::metrics_on()) {
      auto& em = EngineMetrics::get();
      em.queue_depth.set(static_cast<double>(queue_.size()));
      em.in_flight.set(static_cast<double>(in_flight()));
      const std::uint64_t dequeue_ns = obs::now_ns();
      if (work.submit_ns != 0 && dequeue_ns > work.submit_ns) {
        em.queue_wait.record_ns(dequeue_ns - work.submit_ns);
      }
    }
    const double t0 = obs::now_us();
    match_batch(work, matches, nears);
    {
      obs::ScopedSpan span("engine.apply", "engine", work.trace_id);
      BatchResult res = apply(work, matches, nears, t0);
      // Count the completion BEFORE resolving the future so a caller that
      // has waited on every future observes in_flight() == 0
      // deterministically (the transient is a brief under-report, never
      // an underflow: completed_ trails its own submitted_ increment).
      completed_.fetch_add(1, std::memory_order_release);
      work.promise.set_value(std::move(res));
    }
    if (obs::metrics_on()) {
      auto& em = EngineMetrics::get();
      em.queue_depth.set(static_cast<double>(queue_.size()));
      em.in_flight.set(static_cast<double>(in_flight()));
    }
  }
}

void SearchEngine::match_batch(const Work& work,
                               std::vector<TableMatch>& matches,
                               std::vector<NearestMatch>& nears) {
  const std::vector<Request>& batch = work.batch;
  // Grow only: a slot is rewritten in full by the match call that owns it,
  // and apply reads only the slots of this batch's searches.
  if (matches.size() < batch.size()) matches.resize(batch.size());
  if (nears.size() < batch.size()) nears.resize(batch.size());
  std::vector<std::size_t> searches;  ///< kSearch request indices
  std::vector<std::size_t> nearest;   ///< kSearchNearest request indices
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].kind == RequestKind::kSearch) {
      searches.push_back(i);
    } else if (batch[i].kind == RequestKind::kSearchNearest) {
      nearest.push_back(i);
    }
  }
  if (searches.empty() && nearest.empty()) return;

  // Pack every search lane once per batch (nearest lanes after exact
  // ones); tasks read the packs immutably.
  const std::size_t lanes = searches.size() + nearest.size();
  if (packed_queries_.size() < lanes) packed_queries_.resize(lanes);
  for (std::size_t s = 0; s < searches.size(); ++s) {
    packed_queries_[s].repack(batch[searches[s]].query);
  }
  for (std::size_t n = 0; n < nearest.size(); ++n) {
    packed_queries_[searches.size() + n].repack(batch[nearest[n]].query);
  }

  // Phase A.  Exact and nearest lanes are each chunked into fixed
  // submission-order blocks of `query_block` lanes: task k < blocks
  // matches exact block k over every mat, task blocks + j runs nearest
  // block j.  Each task writes only its own requests' slots, so the claim
  // schedule is invisible — and because per-lane results never depend on
  // block composition (table.cpp), neither is the block size.
  const std::size_t block = static_cast<std::size_t>(options_.query_block);
  const std::size_t blocks = (searches.size() + block - 1) / block;
  const std::size_t near_blocks = (nearest.size() + block - 1) / block;
  const std::function<void(std::size_t)> task = [&](std::size_t k) {
    if (k >= blocks) {
      const std::size_t n0 = (k - blocks) * block;
      const std::size_t n1 = std::min(n0 + block, nearest.size());
      obs::ScopedSpan span("engine.near_task", "engine", work.trace_id);
      thread_local NearestScratch scratch;
      const PackedQuery* queries[kMaxQueryBlock];
      int ks[kMaxQueryBlock];
      int thresholds[kMaxQueryBlock];
      NearestMatch* outs[kMaxQueryBlock];
      for (std::size_t n = n0; n < n1; ++n) {
        const Request& req = batch[nearest[n]];
        queries[n - n0] = &packed_queries_[searches.size() + n];
        outs[n - n0] = &nears[nearest[n]];
        // Request-level overrides; non-positive / negative values defer to
        // the validated engine defaults, so the table layer only ever sees
        // legal (k, threshold) pairs.
        ks[n - n0] = req.k > 0 ? req.k : options_.k;
        thresholds[n - n0] = req.distance_threshold >= 0
                                 ? req.distance_threshold
                                 : options_.distance_threshold;
      }
      table_.nearest_mats_block(queries, ks, thresholds,
                                static_cast<int>(n1 - n0), scratch, outs);
      return;
    }
    const std::size_t s0 = k * block;
    const std::size_t s1 = std::min(s0 + block, searches.size());
    obs::ScopedSpan span("engine.match_task", "engine", work.trace_id);
    if (s1 - s0 == 1) {
      // Single lane (block size 1, or the batch's tail): the scalar
      // single-query path — also the golden reference the blocked path
      // must reproduce bit for bit.
      thread_local MatchScratch scratch;
      table_.match_mats(packed_queries_[s0], scratch, matches[searches[s0]]);
    } else {
      thread_local BlockMatchScratch scratch;
      const PackedQuery* queries[kMaxQueryBlock];
      TableMatch* outs[kMaxQueryBlock];
      for (std::size_t s = s0; s < s1; ++s) {
        queries[s - s0] = &packed_queries_[s];
        outs[s - s0] = &matches[searches[s]];
      }
      table_.match_mats_block(queries, static_cast<int>(s1 - s0), scratch,
                              outs);
    }
  };
  const bool metrics = obs::metrics_on();
  const std::uint64_t a0_ns = metrics ? obs::now_ns() : 0;
  run_round(blocks + near_blocks, task);
  if (metrics) {
    EngineMetrics::get()
        .match_tier[static_cast<int>(active_kernel_tier())]
        ->record_ns(obs::now_ns() - a0_ns);
  }
}

BatchResult SearchEngine::apply(Work& work, std::vector<TableMatch>& matches,
                                std::vector<NearestMatch>& nears, double t0) {
  std::vector<Request>& batch = work.batch;
  const bool metrics = obs::metrics_on();
  const std::uint64_t apply0_ns = metrics ? obs::now_ns() : 0;
  BatchResult res;
  res.seq = work.seq;
  res.results.resize(batch.size());
  std::size_t n_search = 0;
  std::size_t n_nearest = 0;

  // Phase B — serial application in request order: accounting, writes,
  // erases.  This ordering (not the dispatcher schedule) defines the
  // energy / endurance / stats totals.
  struct PendingWrite {
    int mat = 0;
    int subarray = 0;
    int phases = 0;
  };
  std::vector<PendingWrite> pending_writes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& req = batch[i];
    RequestResult& out = res.results[i];
    switch (req.kind) {
      case RequestKind::kSearch: {
        const TableMatch& m = matches[i];
        ++n_search;
        table_.account_search(m);
        out.hit = m.hit;
        out.entry = m.entry;
        out.priority = m.priority;
        res.stats.rows += m.stats.rows;
        res.stats.step1_misses += m.stats.step1_misses;
        res.stats.step2_evaluated += m.stats.step2_evaluated;
        res.stats.matches += m.stats.matches;
        break;
      }
      case RequestKind::kSearchNearest: {
        NearestMatch& m = nears[i];
        // A nearest search is one full broadcast through the same shared
        // drivers as an exact search: count it into the admission model.
        ++n_search;
        ++n_nearest;
        table_.account_nearest(m);
        if (!m.top.empty()) {
          out.hit = true;
          out.entry = m.top.front().entry;
          out.priority = m.top.front().priority;
          out.distance = m.top.front().distance;
        }
        out.neighbors = std::move(m.top);
        res.stats.rows += m.stats.rows;
        res.stats.step1_misses += m.stats.step1_misses;
        res.stats.step2_evaluated += m.stats.step2_evaluated;
        res.stats.matches += m.stats.matches;
        break;
      }
      case RequestKind::kUpdate: {
        const auto loc = table_.locate(req.target);
        if (!loc) break;  // unknown entry: result stays a miss
        if (req.incremental) {
          table_.rewrite_digits(req.target, req.entry);
        } else {
          table_.update(req.target, req.entry);
        }
        // A delta rewrite of an unchanged word issues zero pulses and
        // never enters the driver admission model.
        if (table_.last_write_phases() > 0) {
          PendingWrite w;
          w.mat = loc->mat;
          w.subarray = loc->subarray;
          w.phases = table_.last_write_phases();
          pending_writes.push_back(w);
        }
        out.hit = true;
        out.entry = req.target;
        out.priority = table_.priority_of(req.target);
        break;
      }
      case RequestKind::kErase: {
        if (!table_.contains(req.target)) break;
        // Peripheral-only (valid bit), no device pulses — and no HV driver
        // occupancy, so nothing enters the admission model.
        table_.erase(req.target);
        out.hit = true;
        out.entry = req.target;
        break;
      }
      case RequestKind::kInsert: {
        const EntryId id = table_.insert(req.entry, req.priority, req.mat);
        if (id == kInvalidEntry) break;  // table/mat full: result stays a miss
        const auto loc = table_.locate(id);
        PendingWrite w;
        w.mat = loc->mat;
        w.subarray = loc->subarray;
        w.phases = table_.last_write_phases();
        pending_writes.push_back(w);
        out.hit = true;
        out.entry = id;
        out.priority = req.priority;
        break;
      }
      case RequestKind::kSetPriority: {
        if (!table_.contains(req.target)) break;
        // Peripheral-only: the priority lives in the resolver, not in
        // cells — no pulses, no driver occupancy.
        table_.set_priority(req.target, req.priority);
        out.hit = true;
        out.entry = req.target;
        out.priority = req.priority;
        break;
      }
      case RequestKind::kRelocate: {
        if (!table_.contains(req.target)) break;
        if (!table_.relocate(req.target, req.mat)) break;
        const auto loc = table_.locate(req.target);
        PendingWrite w;
        w.mat = loc->mat;
        w.subarray = loc->subarray;
        w.phases = table_.last_write_phases();
        pending_writes.push_back(w);
        out.hit = true;
        out.entry = req.target;
        out.priority = table_.priority_of(req.target);
        break;
      }
    }
  }

  // Driver-multiplex admission: write phases first (write-priority; one
  // phase per mat per cycle, a pending search broadcast stalls on the
  // paired subarray), then the search broadcast runs unobstructed.
  if (!pending_writes.empty()) {
    // Flat per-mat FIFOs: writes grouped by mat in ascending mat order,
    // request order kept within a mat; runs[i] is [head, end) of one mat.
    std::stable_sort(pending_writes.begin(), pending_writes.end(),
                     [](const PendingWrite& a, const PendingWrite& b) {
                       return a.mat < b.mat;
                     });
    struct Run {
      std::size_t head = 0;
      std::size_t end = 0;
    };
    std::vector<Run> runs;
    for (std::size_t i = 0; i < pending_writes.size();) {
      std::size_t j = i + 1;
      while (j < pending_writes.size() &&
             pending_writes[j].mat == pending_writes[i].mat) {
        ++j;
      }
      runs.push_back({i, j});
      i = j;
    }
    long long stalls_before = 0;
    for (const auto& s : mat_schedulers_) stalls_before += s.stalls();
    std::vector<arch::MatOp> cycle_req(
        static_cast<std::size_t>(table_.config().subarrays_per_mat));
    while (!runs.empty()) {
      for (Run& run : runs) {
        PendingWrite& head = pending_writes[run.head];
        std::fill(cycle_req.begin(), cycle_req.end(), arch::MatOp::kIdle);
        cycle_req[static_cast<std::size_t>(head.subarray)] =
            arch::MatOp::kWrite;
        // The blocked search broadcast keeps requesting the paired
        // subarray's select lines; the shared bank denies it (stall).
        const int paired = head.subarray ^ 1;
        if (n_search > 0) {
          cycle_req[static_cast<std::size_t>(paired)] = arch::MatOp::kSearch;
        }
        const std::uint64_t granted =
            mat_schedulers_[static_cast<std::size_t>(head.mat)].submit(
                cycle_req);
        if ((granted >> head.subarray & 1) != 0 && --head.phases == 0) {
          ++run.head;
        }
      }
      std::erase_if(runs, [](const Run& r) { return r.head == r.end; });
      ++res.write_cycles;
    }
    long long stalls_after = 0;
    for (const auto& s : mat_schedulers_) stalls_after += s.stalls();
    res.driver_stalls = stalls_after - stalls_before;
  }
  // Search broadcast: all subarrays of all mats search in lock-step — a
  // closed form per mat, since nothing can stall it.
  if (n_search > 0) {
    for (auto& sched : mat_schedulers_) {
      sched.broadcast(static_cast<long long>(n_search));
    }
  }
  res.model_latency_s =
      static_cast<double>(res.write_cycles) * options_.write_pulse_s +
      static_cast<double>(n_search) * table_.op_costs().latency_full;

  // Totals + obs counters.
  batches_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  searches_.fetch_add(n_search, std::memory_order_relaxed);
  nearest_.fetch_add(n_nearest, std::memory_order_relaxed);
  writes_.fetch_add(pending_writes.size(), std::memory_order_relaxed);
  driver_stalls_.fetch_add(res.driver_stalls, std::memory_order_relaxed);
  driver_cycles_.fetch_add(
      res.write_cycles + static_cast<long long>(n_search),
      std::memory_order_relaxed);
  model_time_s_.fetch_add(res.model_latency_s, std::memory_order_relaxed);
  if (metrics) {
    auto& em = EngineMetrics::get();
    em.batches.add();
    em.requests.add(batch.size());
    em.searches.add(n_search);
    em.nearest.add(n_nearest);
    em.writes.add(pending_writes.size());
    em.driver_stalls.add(static_cast<std::uint64_t>(res.driver_stalls));
    em.write_cycles.add(static_cast<std::uint64_t>(res.write_cycles));
    // Pruning totals live on the table; mirror the delta since the last
    // batch into the registry (coordinator-only, so the delta is safe).
    const long long considered_now = table_.mats_considered();
    const long long skipped_now = table_.mats_skipped();
    em.mats_considered.add(
        static_cast<std::uint64_t>(considered_now - last_mats_considered_));
    em.mats_skipped.add(
        static_cast<std::uint64_t>(skipped_now - last_mats_skipped_));
    last_mats_considered_ = considered_now;
    last_mats_skipped_ = skipped_now;
    em.queue_hwm.set(static_cast<double>(queue_.high_watermark()));
    const std::uint64_t end_ns = obs::now_ns();
    em.apply.record_ns(end_ns - apply0_ns);
    if (work.submit_ns != 0 && end_ns > work.submit_ns) {
      const std::uint64_t total_ns = end_ns - work.submit_ns;
      em.batch_total.record_ns(total_ns);
      note_slow_query(work, total_ns, n_search);
    }
  }
  res.wall_us = obs::now_us() - t0;
  return res;
}

namespace {

/// FNV-1a over the batch shape + first search query: stable across runs
/// for the same request, cheap enough for the slow-query candidate path.
std::uint64_t batch_fingerprint(const std::vector<Request>& batch) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(batch.size());
  for (const Request& r : batch) mix(static_cast<std::uint64_t>(r.kind));
  for (const Request& r : batch) {
    if (r.kind != RequestKind::kSearch &&
        r.kind != RequestKind::kSearchNearest) {
      continue;
    }
    for (const std::uint8_t bit : r.query) {
      h ^= bit;
      h *= 1099511628211ull;
    }
    break;
  }
  return h;
}

}  // namespace

void SearchEngine::note_slow_query(const Work& work, std::uint64_t total_ns,
                                   std::size_t n_search) {
  const std::lock_guard<std::mutex> lock(slow_mu_);
  if (slow_queries_.size() >= kSlowQueryLog &&
      total_ns <= slow_queries_.front().total_ns) {
    return;
  }
  SlowQuery entry;
  entry.seq = work.seq;
  entry.trace_id = work.trace_id;
  entry.total_ns = total_ns;
  entry.requests = static_cast<std::uint32_t>(work.batch.size());
  entry.searches = static_cast<std::uint32_t>(n_search);
  entry.fingerprint = batch_fingerprint(work.batch);
  // Keep ascending by total_ns; evict the fastest entry once full.
  const auto pos = std::lower_bound(
      slow_queries_.begin(), slow_queries_.end(), entry,
      [](const SlowQuery& a, const SlowQuery& b) {
        return a.total_ns < b.total_ns;
      });
  slow_queries_.insert(pos, entry);
  if (slow_queries_.size() > kSlowQueryLog) slow_queries_.erase(
      slow_queries_.begin());
}

std::vector<SlowQuery> SearchEngine::slow_queries() const {
  std::vector<SlowQuery> out;
  {
    const std::lock_guard<std::mutex> lock(slow_mu_);
    out = slow_queries_;
  }
  std::reverse(out.begin(), out.end());  // worst first
  return out;
}

}  // namespace fetcam::engine
