#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fetcam::util {

namespace {

thread_local bool t_inside_region = false;

/// Parallel-engine metrics.  Chunk timings come from an instrumented body
/// wrapper installed only when observability is on, so the off path runs
/// the caller's std::function directly — identical to pre-instrumentation.
struct ParallelMetrics {
  obs::Counter& jobs;
  obs::Counter& chunks;
  obs::Gauge& threads;
  obs::Distribution& chunk_us;
  obs::Distribution& job_us;

  static ParallelMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static ParallelMetrics m{
        reg.counter("parallel.jobs"),
        reg.counter("parallel.chunks"),
        reg.gauge("parallel.threads"),
        reg.latency("parallel.chunk_us"),
        reg.latency("parallel.job_us"),
    };
    return m;
  }
};

/// One parallel_for invocation: a shared chunk cursor plus completion
/// bookkeeping.  Every chunk index is claimed exactly once (fetch_add)
/// and counted in `finished` exactly once, so `finished == total_chunks`
/// proves no body is still running — even on the abort path, where
/// claimed-but-skipped chunks still count.  Shared with the workers, so
/// the caller returns as soon as every chunk finished: a worker that wakes
/// late still holds the Job, finds the cursor exhausted, and never touches
/// `body` (which points into the returned caller's frame).
struct Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t total_chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> aborted{false};
  std::mutex mu;  ///< guards `error`; pairs with `done_cv`
  std::exception_ptr error;
  std::condition_variable done_cv;

  void work() {
    t_inside_region = true;
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_chunks) break;
      if (!aborted.load(std::memory_order_relaxed)) {
        const std::size_t begin = c * chunk;
        try {
          (*body)(begin, std::min(n, begin + chunk));
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
          aborted.store(true, std::memory_order_relaxed);
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total_chunks) {
        const std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
    t_inside_region = false;
  }

  bool done() const {
    return finished.load(std::memory_order_acquire) == total_chunks;
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return done(); });
  }
};

/// Lazily started global pool.  Workers sleep on a condition variable
/// between jobs and pick up each published Job once, by its generation
/// number.  resize happens only on set_thread_count — CLI startup or
/// between determinism-test runs.
class Pool {
 public:
  static Pool& instance() {
    static Pool p;
    return p;
  }

  int threads() {
    const std::lock_guard<std::mutex> lock(config_mu_);
    return resolve_locked();
  }

  void set_threads(int n) {
    const std::lock_guard<std::mutex> lock(config_mu_);
    override_ = std::clamp(n, 0, kMaxThreads);
  }

  void run(const std::shared_ptr<Job>& job) {
    // Serialize top-level regions: one job owns the pool at a time.
    const std::lock_guard<std::mutex> run_lock(run_mu_);
    int want;
    {
      const std::lock_guard<std::mutex> lock(config_mu_);
      want = resolve_locked();
    }
    ensure_workers(want - 1);
    if (!workers_.empty()) {
      {
        const std::lock_guard<std::mutex> lock(job_mu_);
        job_ = job;
        ++job_seq_;
      }
      // Notified unlocked: woken workers do not then block on job_mu_.
      job_cv_.notify_all();
    }
    // The caller is a full participant — with one thread this IS the
    // execution and the pool machinery stays untouched.  It waits only
    // for chunks still running, never for idle workers to check out.
    job->work();
    job->wait();
  }

  ~Pool() { ensure_workers(0); }

 private:
  Pool() = default;

  int resolve_locked() {
    if (override_ > 0) return override_;
    if (const char* env = std::getenv("FETCAM_THREADS")) {
      if (const std::optional<int> n = parse_thread_count(env)) return *n;
    }
    // Queried once: hardware_concurrency() costs a few microseconds per
    // call (it asks the OS), and every engine batch resolves the count.
    static const int hw = static_cast<int>(
        std::clamp<unsigned>(std::thread::hardware_concurrency(), 1,
                             static_cast<unsigned>(kMaxThreads)));
    return hw;
  }

  void ensure_workers(int want) {
    if (static_cast<int>(workers_.size()) == want) return;
    {
      const std::lock_guard<std::mutex> lock(job_mu_);
      stopping_ = true;
      job_cv_.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
    stopping_ = false;
    // job_seq_ only changes under run_mu_, which the caller holds: a new
    // worker starts level with it and takes only jobs published later.
    for (int i = 0; i < want; ++i) {
      workers_.emplace_back([this, seen = job_seq_] { worker_loop(seen); });
    }
  }

  void worker_loop(std::uint64_t seen) {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(job_mu_);
        job_cv_.wait(lock, [&] { return stopping_ || job_seq_ != seen; });
        if (stopping_) return;
        seen = job_seq_;
        job = job_;
      }
      job->work();
    }
  }

  std::mutex config_mu_;
  int override_ = 0;

  std::mutex run_mu_;
  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t job_seq_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

std::optional<int> parse_thread_count(std::string_view text) {
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return std::nullopt;
  }
  int n = 0;
  // All digits, so from_chars consumes the whole text or overflows.
  if (std::from_chars(text.data(), text.data() + text.size(), n).ec !=
          std::errc() ||
      n < 1 || n > kMaxThreads) {
    return std::nullopt;
  }
  return n;
}

int thread_count() { return Pool::instance().threads(); }

void set_thread_count(int n) { Pool::instance().set_threads(n); }

bool inside_parallel_region() { return t_inside_region; }

void parallel_for_chunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;

  // With observability on, route every chunk through a timing/span wrapper.
  // Metric totals stay schedule-independent (chunk boundaries are fixed);
  // only the wall-time distributions vary run to run.  Off: `body` aliases the
  // caller's function and the hot path is untouched.
  const bool instrumented = obs::metrics_on() || obs::trace_on();
  std::function<void(std::size_t, std::size_t)> wrapped;
  if (instrumented) {
    wrapped = [&fn](std::size_t begin, std::size_t end) {
      const obs::ScopedSpan span("parallel.chunk", "util");
      const bool m = obs::metrics_on();
      const std::uint64_t t0 = m ? obs::now_ns() : 0;
      fn(begin, end);
      if (m) {
        auto& pm = ParallelMetrics::get();
        pm.chunks.add();
        pm.chunk_us.record(obs::now_ns() - t0);
      }
    };
  }
  const auto& body = instrumented ? wrapped : fn;

  const std::uint64_t t_job = instrumented ? obs::now_ns() : 0;
  // Nested regions, single-chunk regions and an explicit single thread run
  // inline: same chunk boundaries, same results, no pool interaction.
  if (t_inside_region || n <= chunk || thread_count() == 1) {
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      body(begin, std::min(n, begin + chunk));
    }
  } else {
    const auto job = std::make_shared<Job>();
    job->n = n;
    job->chunk = chunk;
    job->total_chunks = (n + chunk - 1) / chunk;
    job->body = &body;
    Pool::instance().run(job);
    if (job->error) std::rethrow_exception(job->error);
  }
  if (instrumented && obs::metrics_on()) {
    auto& pm = ParallelMetrics::get();
    pm.jobs.add();
    pm.threads.set(thread_count());
    pm.job_us.record(obs::now_ns() - t_job);
  }
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  // Chunk for scheduling only — the per-index body keeps results
  // schedule-independent, so the grain may track the thread count.
  const std::size_t grain = std::max<std::size_t>(
      1, n / (static_cast<std::size_t>(thread_count()) * 8));
  parallel_for_chunks(n, grain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace fetcam::util
