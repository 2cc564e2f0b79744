// Concurrent TCAM request engine: bounded batch admission, query-block
// parallel match dispatch, deterministic in-order application, and a
// shared-HV-driver admission model.
//
// Execution model (the determinism contract, docs/ENGINE.md):
//
//   * Producers submit BATCHES of requests into a bounded MPMC queue
//     (backpressure: submit blocks while the queue is full).
//   * One coordinator thread pops batches strictly in submission order,
//     one at a time.
//   * Phase A — parallel match: the batch's exact searches, and
//     separately its nearest searches, are chunked into fixed
//     submission-order blocks of `query_block` lanes, and each block is
//     one task that broadcasts over every mat (paper Sec. III-C: a search
//     drives all mats in lock-step).  The tasks run on the shared
//     util::parallel_for_chunks pool (util::thread_count() threads, the
//     coordinator taking part); each task writes only its own requests'
//     result slots, and each slot is written once by its own task, so the
//     claim schedule cannot influence anything observable and nothing is
//     left to merge.
//   * Phase B — serial application per batch, in submission order, on the
//     coordinator: ALL accounting and ALL writes apply in request order.
//   * Result: batch results, table contents, energy/endurance totals, and
//     search statistics are bit-identical for any pool thread count
//     (1, 2, 8, ...), any query block size, any queue capacity, and any
//     producer interleaving of distinct batches.
//
// Driver-multiplex admission (paper Sec. III-C / Fig. 6): within a mat,
// four 90-degree-rotated subarrays time-multiplex shared HV driver banks —
// one bank drives the BLs of one subarray or the SeLs of its pair, never
// both in a cycle.  A batch that mixes updates and searches therefore
// cannot overlap them on the same mat: the engine schedules write phases
// first (one phase per mat per cycle, paired-subarray searches stall and
// are counted), then runs the search broadcast.  The modeled batch latency
// is  write_cycles * write_pulse_s + searches * latency_full.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/hv_driver.hpp"
#include "engine/queue.hpp"
#include "engine/table.hpp"

namespace fetcam::engine {

enum class RequestKind : std::uint8_t {
  kSearch,
  kSearchNearest,  ///< threshold kNN: top-k nearest stored words
  kUpdate,
  kErase,
  kInsert,       ///< allocate + write a new entry (result carries its id)
  kSetPriority,  ///< peripheral-only priority flip (no pulses)
  kRelocate,     ///< move an entry to another mat (wear leveling)
};

struct Request {
  RequestKind kind = RequestKind::kSearch;
  arch::BitWord query;        ///< kSearch / kSearchNearest
  EntryId target = kInvalidEntry;  ///< kUpdate / kErase / kSetPriority / kRelocate
  arch::TernaryWord entry;    ///< kUpdate / kInsert
  int priority = 0;           ///< kInsert / kSetPriority
  int mat = -1;               ///< kInsert placement hint / kRelocate target
  /// kSearchNearest: neighbors requested (0 = EngineOptions.k).
  int k = 0;
  /// kSearchNearest: max digit distance (-1 = EngineOptions.distance_threshold).
  int distance_threshold = -1;
  /// kUpdate only: delta rewrite (TcamTable::rewrite_digits — pulses only
  /// for changed digits) instead of a full row refresh.
  bool incremental = false;
};

inline Request make_search(arch::BitWord query) {
  Request r;
  r.kind = RequestKind::kSearch;
  r.query = std::move(query);
  return r;
}
/// kNN search: top-`k` stored words within `threshold` mismatching digits
/// of `query`.  k = 0 / threshold = -1 defer to the engine's configured
/// defaults (EngineOptions.k / .distance_threshold).
inline Request make_search_nearest(arch::BitWord query, int k = 0,
                                   int threshold = -1) {
  Request r;
  r.kind = RequestKind::kSearchNearest;
  r.query = std::move(query);
  r.k = k;
  r.distance_threshold = threshold;
  return r;
}
inline Request make_update(EntryId target, arch::TernaryWord entry) {
  Request r;
  r.kind = RequestKind::kUpdate;
  r.target = target;
  r.entry = std::move(entry);
  return r;
}
inline Request make_rewrite(EntryId target, arch::TernaryWord entry) {
  Request r;
  r.kind = RequestKind::kUpdate;
  r.target = target;
  r.entry = std::move(entry);
  r.incremental = true;
  return r;
}
inline Request make_erase(EntryId target) {
  Request r;
  r.kind = RequestKind::kErase;
  r.target = target;
  return r;
}
inline Request make_insert(arch::TernaryWord entry, int priority,
                           int mat = -1) {
  Request r;
  r.kind = RequestKind::kInsert;
  r.entry = std::move(entry);
  r.priority = priority;
  r.mat = mat;
  return r;
}
inline Request make_set_priority(EntryId target, int priority) {
  Request r;
  r.kind = RequestKind::kSetPriority;
  r.target = target;
  r.priority = priority;
  return r;
}
inline Request make_relocate(EntryId target, int mat) {
  Request r;
  r.kind = RequestKind::kRelocate;
  r.target = target;
  r.mat = mat;
  return r;
}

struct RequestResult {
  bool hit = false;
  EntryId entry = kInvalidEntry;
  int priority = 0;
  /// kSearchNearest only: best (smallest) digit distance, -1 on a miss.
  int distance = -1;
  /// kSearchNearest only: the top-k candidates ascending by
  /// (distance, priority, id); hit/entry/priority mirror neighbors[0].
  std::vector<NearCandidate> neighbors;
};

struct BatchResult {
  std::uint64_t seq = 0;  ///< batch sequence number (submission order)
  /// One result per request, same index order as the submitted batch.
  std::vector<RequestResult> results;
  /// Merged step statistics over the batch's searches.
  arch::SearchStats stats;
  long long driver_stalls = 0;  ///< searches stalled by write-held banks
  long long write_cycles = 0;   ///< cycles spent on write phases
  /// Deterministic modeled latency (admission model + per-op costs).
  double model_latency_s = 0.0;
  /// Measured wall time of the batch's processing (NOT deterministic;
  /// excluded from the bit-identical contract — reporting only).
  double wall_us = 0.0;
};

/// Engine configuration.  SearchEngine's constructor validates every
/// field and throws std::invalid_argument naming the offending one —
/// degenerate values (zero capacity) used to reach the dispatcher as
/// silent near-deadlocks.
struct EngineOptions {
  std::size_t queue_capacity = 8;  ///< batches admitted before submit blocks
                                   ///< (must be > 0)
  /// Duration of one HV write phase (a 1.5T1Fe row update issues 3).
  double write_pulse_s = 50e-9;
  /// Queries matched per kernel pass (1..kMaxQueryBlock): each batch's
  /// exact searches, and separately its nearest searches, are chunked into
  /// fixed submission-order blocks of this size so one streaming pass over
  /// a shard's planar words serves the whole block (docs/ENGINE.md "Query
  /// blocking").  1 = one query per kernel pass.
  /// Purely a bandwidth knob: per-query results are bit-identical for
  /// every block size.
  int query_block = 8;
  /// Default top-k for kSearchNearest requests that leave Request::k at 0
  /// (must be >= 1).
  int k = 4;
  /// Default max digit distance for kSearchNearest requests that leave
  /// Request::distance_threshold at -1 (must be >= 0).
  int distance_threshold = 0;
};

/// One slow-query log entry: a batch that ranked in the engine's top-K by
/// total latency (submit -> applied).  The fingerprint is a stable 64-bit
/// hash of the batch shape and its first query, so a recurring pathological
/// request is recognizable across scrapes without shipping the payload.
struct SlowQuery {
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t total_ns = 0;
  std::uint32_t requests = 0;
  std::uint32_t searches = 0;
  std::uint64_t fingerprint = 0;
};

class SearchEngine {
 public:
  /// The engine owns request ordering on `table`; while the engine is
  /// alive, mutate the table only through requests.
  SearchEngine(TcamTable& table, EngineOptions options = {});
  ~SearchEngine();  ///< drains the queue, then joins the coordinator

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// Enqueue a batch (MPMC: any thread may call).  Blocks while the queue
  /// is full.  The future resolves when the coordinator has applied the
  /// batch.  Batches are applied strictly in submission order.
  /// `trace_id` (0 = none) correlates this batch's trace spans and slow-
  /// query entries with the caller's request (e.g. a server frame id).
  std::future<BatchResult> submit(std::vector<Request> batch,
                                  std::uint64_t trace_id = 0);

  /// Synchronous convenience: submit + wait.  Same code path, same
  /// determinism.
  BatchResult execute(std::vector<Request> batch);

  /// Block until every batch submitted so far has been applied.
  void drain();

  int query_block() const { return options_.query_block; }

  /// Mat-skip pruning totals of the underlying table (fetcam.stats.v1).
  long long mats_considered() const { return table_.mats_considered(); }
  long long mats_skipped() const { return table_.mats_skipped(); }

  // Telemetry (totals over the engine lifetime; deterministic except where
  // noted on BatchResult).
  std::uint64_t batches() const { return batches_.load(); }
  std::uint64_t requests() const { return requests_.load(); }
  std::uint64_t searches() const { return searches_.load(); }
  /// kSearchNearest requests applied (also counted in searches()).
  std::uint64_t nearest_searches() const { return nearest_.load(); }
  std::uint64_t writes() const { return writes_.load(); }
  long long driver_stalls() const { return driver_stalls_.load(); }
  long long driver_cycles() const { return driver_cycles_.load(); }
  double model_time_s() const { return model_time_s_.load(); }
  std::size_t queue_high_watermark() const { return queue_.high_watermark(); }
  /// Batches sitting in the admission queue right now.
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t queue_capacity() const { return queue_.capacity(); }
  /// Batches submitted but not yet applied (queued + being processed).
  /// Returns to 0 after drain() — the gauge-leak regression tests pin this.
  std::uint64_t in_flight() const {
    // completed_ is incremented just before the promise resolves; read it
    // first so a racing read can only misreport by one batch transiently,
    // never go negative.  After every future has resolved it is exact.
    const std::uint64_t done = completed_.load(std::memory_order_acquire);
    return submitted_.load(std::memory_order_acquire) - done;
  }
  /// Top-K batches by total latency, worst first (empty until the first
  /// batch completes with metrics on; obs-gated like all wall timings).
  std::vector<SlowQuery> slow_queries() const;
  /// Shared-bank utilization of one mat's scheduler (paper Fig. 6 model).
  double mat_utilization(int mat) const;

 private:
  struct Work {
    std::uint64_t seq = 0;
    std::vector<Request> batch;
    std::promise<BatchResult> promise;
    std::uint64_t trace_id = 0;   ///< caller correlation id (0 = none)
    std::uint64_t submit_ns = 0;  ///< obs::now_ns() at submit (metrics only)
  };

  /// Field-by-field option validation (throws std::invalid_argument
  /// naming the offending field).  Runs in the member-init list, before
  /// the queue or any thread exists.
  static EngineOptions validate_options(EngineOptions options);

  void coordinator_loop();
  /// Phase A for one batch: query-block tasks write exact matches into
  /// matches[i] and nearest results into nears[i] (each slot written once
  /// by its own block's task, so both are schedule-invariant).
  void match_batch(const Work& work, std::vector<TableMatch>& matches,
                   std::vector<NearestMatch>& nears);
  /// Phase B + admission model for one batch (serial, coordinator only).
  BatchResult apply(Work& work, std::vector<TableMatch>& matches,
                    std::vector<NearestMatch>& nears, double t0);
  /// Slow-query log insert (coordinator only; metrics level).
  void note_slow_query(const Work& work, std::uint64_t total_ns,
                       std::size_t n_search);

  TcamTable& table_;
  EngineOptions options_;
  /// Batch-scoped query packs (coordinator only): each search lane is
  /// bit-packed once per batch, then read by its task.
  std::vector<PackedQuery> packed_queries_;
  BoundedQueue<Work> queue_;
  /// One shared-driver scheduler per mat, persistent across batches.
  std::vector<arch::SharedDriverScheduler> mat_schedulers_;
  std::uint64_t next_seq_ = 0;
  std::mutex submit_mu_;  ///< orders seq assignment with queue push

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  /// Last table pruning totals mirrored into the obs registry
  /// (coordinator-only, read/written in apply()).
  long long last_mats_considered_ = 0;
  long long last_mats_skipped_ = 0;
  /// Top-K slow batches, ascending by total_ns (coordinator inserts,
  /// scrapers copy under the mutex).
  static constexpr std::size_t kSlowQueryLog = 8;
  mutable std::mutex slow_mu_;
  std::vector<SlowQuery> slow_queries_;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> searches_{0};
  std::atomic<std::uint64_t> nearest_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<long long> driver_stalls_{0};
  std::atomic<long long> driver_cycles_{0};
  std::atomic<double> model_time_s_{0.0};

  std::thread coordinator_;
};

}  // namespace fetcam::engine
