// Chunked parallel_for over a lazily-initialized global thread pool.
//
// Goals, in priority order:
//   1. DETERMINISM — the scheduler never influences results.  parallel_for
//      hands each index to the body exactly once; consumers write results
//      into per-index slots (see parallel_map) or accumulate per-chunk
//      partials with FIXED chunk boundaries and merge them in index order.
//      Nothing in this header introduces an ordering dependence.
//   2. Simplicity — one job at a time, caller participates, no work
//      stealing.  The Monte-Carlo bodies here cost ~1 ms each (a Newton
//      solve of a divider circuit), so a shared atomic chunk cursor is
//      contention-free at any realistic thread count.
//   3. Safety — exceptions thrown by the body abort the remaining chunks
//      and are rethrown on the calling thread; nested parallel_for calls
//      (from inside a body) run inline on the calling worker instead of
//      deadlocking the pool.
//
// Users: the DSE, variability and figure sweeps, and phase A of every
// engine::SearchEngine (one chunk per query block; docs/ENGINE.md sec. 3).
// Top-level regions started from different threads — two engines'
// coordinators, or an engine beside a sweep — share this one pool and run
// one at a time: a region waits until the region before it has finished.
// So a body must never block on work that needs the pool itself (such as
// waiting on a SearchEngine future from inside a parallel_for body).
//
// Thread-count resolution, highest priority first:
//   set_thread_count(n)        explicit (the CLI --threads flag)
//   FETCAM_THREADS             environment override (parse_thread_count;
//                              an invalid value is ignored)
//   std::thread::hardware_concurrency()
// Every path is capped at kMaxThreads.  A count of 1, or a region of a
// single chunk, bypasses the pool entirely (pure serial execution).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace fetcam::util {

/// Upper bound on the pool size from any source.  Far above any core count
/// this pool serves; a larger request is a typo (`--threads 100000`), and
/// honouring it would spawn that many OS threads on the first region.
inline constexpr int kMaxThreads = 1024;

/// Strict thread-count parser shared by `--threads` and FETCAM_THREADS:
/// a whole decimal number in [1, kMaxThreads] and nothing else (no sign,
/// no whitespace, no suffix such as "4x").  nullopt on anything else.
std::optional<int> parse_thread_count(std::string_view text);

/// Number of threads parallel_for will use.  Resolves the override chain
/// above; always in [1, kMaxThreads].
int thread_count();

/// Force the pool size.  n <= 0 restores automatic resolution
/// (FETCAM_THREADS / hardware_concurrency); n > kMaxThreads is clamped to
/// kMaxThreads.  Takes effect on the next parallel_for; safe to call
/// between runs (the determinism tests cycle 1 / 2 / 8 threads this way).
void set_thread_count(int n);

/// True while the current thread is executing inside a parallel_for body
/// (nested calls run inline).
bool inside_parallel_region();

/// Invoke fn(i) for every i in [0, n), distributed over the pool in
/// chunks.  Blocks until every index completed.  The first exception
/// thrown by fn aborts unclaimed chunks and is rethrown here.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Invoke fn(begin, end) for consecutive ranges covering [0, n), each of
/// size `chunk` (the last may be shorter).  Chunk boundaries depend only
/// on (n, chunk) — never on the thread count — so per-chunk partial
/// reductions merged in chunk order are bit-identical for any schedule.
void parallel_for_chunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// Ordered map: out[i] = fn(i), computed in parallel.  Each slot is
/// written exactly once by its own index, so the result vector is
/// independent of the schedule.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace fetcam::util
