#include "engine/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/stats.hpp"
#include "engine/wire.hpp"
#include "obs/trace.hpp"

namespace fetcam::engine {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

struct SearchServer::Impl {
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;  ///< accept ordinal (stats correlation)
    /// Unparsed inbound bytes (IO thread only).
    std::vector<std::uint8_t> rx;
    /// Outbound bytes.  The completion thread appends under tx_mu; the IO
    /// thread appends/consumes under the same lock.
    std::mutex tx_mu;
    std::vector<std::uint8_t> tx;
    std::size_t tx_off = 0;
    /// Request frames submitted but not yet answered.
    std::atomic<std::size_t> in_flight{0};
    // Per-connection telemetry (stats snapshot "connection" section).
    std::atomic<std::uint64_t> frames{0};    ///< accepted request frames
    std::atomic<std::uint64_t> rejected{0};  ///< malformed frames
    std::atomic<std::uint64_t> stalls{0};    ///< backpressure read pauses
    /// IO-thread state: closing = no more reads, close once drained.
    bool closing = false;
    bool reading = true;     ///< EPOLLIN armed
    bool want_write = false; ///< EPOLLOUT armed
  };

  /// One response owed on a connection, in FIFO submission order.  Either
  /// an engine future (search batch) or a stats scrape marker — stats
  /// replies ride the same queue so per-connection response order always
  /// equals request order.
  struct Pending {
    std::shared_ptr<Connection> conn;
    std::future<BatchResult> future;
    bool is_stats = false;
    bool is_nearest = false;  ///< encode kNearestResult instead of records
    std::uint64_t trace_id = 0;
  };

  explicit Impl(SearchServer& s) : self(s) {}

  SearchServer& self;
  int listen_fd = -1;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread io_thread;
  std::thread completion_thread;

  /// IO-thread-only registry (the completion thread holds shared_ptrs).
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  /// Wire-level request correlation ids (trace spans + slow-query log).
  std::atomic<std::uint64_t> next_trace_id{1};

  std::mutex pending_mu;
  std::condition_variable pending_cv;
  std::deque<Pending> pending;
  bool stop_requested = false;  ///< guarded by pending_mu
  /// Set by the IO thread once it has stopped accepting and reading (so no
  /// further submit_queries can happen); the completion thread must not
  /// declare the drain finished before this.  Guarded by pending_mu.
  bool submissions_done = false;

  std::atomic<bool> stopping{false};
  std::atomic<bool> drained{false};

  /// IO-thread-only: set once the drain begins (listener closed), arming
  /// the force-close deadline for peers that never read their responses.
  bool drain_deadline_set = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  // ---- helpers (IO thread unless noted) ---------------------------------

  void wake_io() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof(one));  // completion thread too
  }

  void update_interest(const std::shared_ptr<Connection>& conn) {
    epoll_event ev{};
    ev.events = EPOLLRDHUP;
    if (conn->reading) ev.events |= EPOLLIN;
    if (conn->want_write) ev.events |= EPOLLOUT;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void close_conn(const std::shared_ptr<Connection>& conn) {
    if (conn->fd < 0) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns.erase(conn->fd);
    conn->fd = -1;
    self.open_conns_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Close once the connection owes nothing: no queued bytes, no frames
  /// still in the engine.
  void maybe_close(const std::shared_ptr<Connection>& conn) {
    if (!conn->closing || conn->fd < 0) return;
    // in_flight must be read BEFORE the tx check: the completion thread
    // encodes the response into tx (under tx_mu) and only then decrements
    // in_flight, so observing 0 here guarantees the tx check below sees
    // any bytes that response queued.  The reverse order could see tx
    // empty pre-encode and in_flight 0 post-decrement, closing with the
    // final response unsent.
    if (conn->in_flight.load() != 0) return;
    bool tx_empty;
    {
      const std::lock_guard<std::mutex> lock(conn->tx_mu);
      tx_empty = conn->tx_off >= conn->tx.size();
    }
    if (tx_empty) close_conn(conn);
  }

  /// Error frame + close-after-flush; the rest of the server is untouched.
  void reject(const std::shared_ptr<Connection>& conn, wire::ErrorCode code,
              const std::string& message) {
    self.frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    conn->rejected.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(conn->tx_mu);
      wire::ErrorFrame err;
      err.code = code;
      err.message = message;
      wire::encode_error(conn->tx, err);
    }
    conn->closing = true;
    conn->reading = false;
    conn->want_write = true;
    update_interest(conn);
  }

  void flush_tx(const std::shared_ptr<Connection>& conn) {
    bool done = false;
    {
      const std::lock_guard<std::mutex> lock(conn->tx_mu);
      while (conn->tx_off < conn->tx.size()) {
        const ssize_t n =
            ::send(conn->fd, conn->tx.data() + conn->tx_off,
                   conn->tx.size() - conn->tx_off, MSG_NOSIGNAL);
        if (n > 0) {
          conn->tx_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // Peer is gone: drop the connection, others are unaffected.
        conn->tx.clear();
        conn->tx_off = 0;
        conn->closing = true;
        done = true;
        break;
      }
      if (conn->tx_off >= conn->tx.size()) {
        conn->tx.clear();
        conn->tx_off = 0;
        done = true;
      }
    }
    if (conn->fd >= 0) {
      conn->want_write = !done;
      update_interest(conn);
    }
    maybe_close(conn);
  }

  void handle_accept() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error: epoll will re-arm
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (self.options_.sndbuf_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &self.options_.sndbuf_bytes,
                     sizeof(self.options_.sndbuf_bytes));
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->id = self.accepted_.load(std::memory_order_relaxed) + 1;
      conns.emplace(fd, conn);
      self.open_conns_.fetch_add(1, std::memory_order_relaxed);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      self.accepted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Shared tail of frame admission: FIFO-order the pending response and
  /// apply pipelining backpressure.
  void enqueue_pending(const std::shared_ptr<Connection>& conn, Pending p) {
    conn->in_flight.fetch_add(1);
    conn->frames.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(pending_mu);
      pending.push_back(std::move(p));
    }
    pending_cv.notify_one();
    if (conn->in_flight.load() >= self.options_.max_pipeline) {
      conn->reading = false;  // backpressure: resume when responses drain
      conn->stalls.fetch_add(1, std::memory_order_relaxed);
      self.backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
      update_interest(conn);
    }
  }

  /// The one admission path of both query frame kinds: reject a payload
  /// that does not parse (kMalformed) or carries another query width
  /// (kBadWidth), else unpack each query and submit the frame as one engine
  /// batch of make(frame, query) requests.  Returns false when it rejected.
  template <class Frame, class Make>
  bool submit_queries(const std::shared_ptr<Connection>& conn,
                      const std::optional<Frame>& frame, bool is_nearest,
                      Make&& make) {
    if (!frame) {
      reject(conn, wire::ErrorCode::kMalformed,
             is_nearest ? "nearest batch payload does not parse"
                        : "search batch payload does not parse");
      return false;
    }
    const int cols = self.cols_;
    const std::uint32_t wpq = frame->words_per_query;
    if (frame->count() > 0 &&
        wpq != static_cast<std::uint32_t>((cols + 63) / 64)) {
      reject(conn, wire::ErrorCode::kBadWidth,
             "words_per_query does not match the table width");
      return false;
    }
    const std::uint64_t trace_id =
        next_trace_id.fetch_add(1, std::memory_order_relaxed);
    obs::ScopedSpan span(is_nearest ? "wire.submit_nearest" : "wire.submit",
                         "server", trace_id);
    std::vector<Request> batch;
    batch.reserve(frame->count());
    for (std::uint32_t q = 0; q < frame->count(); ++q) {
      arch::BitWord query(static_cast<std::size_t>(cols), 0);
      const std::uint64_t* words = frame->bits.data() +
                                   static_cast<std::size_t>(q) * wpq;
      for (int c = 0; c < cols; ++c) {
        query[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>((words[c >> 6] >> (c & 63)) & 1ULL);
      }
      batch.push_back(make(*frame, std::move(query)));
    }
    Pending p;
    p.conn = conn;
    p.is_nearest = is_nearest;
    p.trace_id = trace_id;
    p.future = self.engine_.submit(std::move(batch), trace_id);
    enqueue_pending(conn, std::move(p));
    return true;
  }

  void submit_stats(const std::shared_ptr<Connection>& conn) {
    Pending p;
    p.conn = conn;
    p.is_stats = true;
    p.trace_id = next_trace_id.fetch_add(1, std::memory_order_relaxed);
    enqueue_pending(conn, std::move(p));
  }

  /// Parse every complete frame currently buffered on `conn`.
  void parse_frames(const std::shared_ptr<Connection>& conn) {
    std::size_t off = 0;
    while (!conn->closing && conn->reading) {
      if (conn->rx.size() - off < wire::kHeaderSize) break;
      std::optional<wire::ErrorCode> header_error;
      const wire::FrameHeader header =
          wire::decode_header(conn->rx.data() + off, header_error);
      if (header_error) {
        reject(conn, *header_error, "bad frame header");
        break;
      }
      // Direction gate, the moment the header decodes: a known but
      // response-direction opcode (a client echoing kSearchResult, say)
      // is as unacceptable as an unknown one, and is rejected BEFORE the
      // server waits on — or buffers — a single payload byte for it.
      if (!wire::is_request_frame(header.type)) {
        reject(conn, wire::ErrorCode::kBadType,
               "frame type is not a request (kSearchBatch, kNearest and "
               "kStats are accepted)");
        break;
      }
      if (conn->rx.size() - off < wire::kHeaderSize + header.payload_len) {
        break;  // wait for the rest of the payload
      }
      const std::uint8_t* payload = conn->rx.data() + off + wire::kHeaderSize;
      off += wire::kHeaderSize + header.payload_len;
      if (header.type == wire::FrameType::kStats) {
        // A scrape carries no payload by definition; junk bytes mean the
        // peer's framing is broken, and a broken peer gets contained.
        if (header.payload_len != 0) {
          reject(conn, wire::ErrorCode::kMalformed,
                 "stats frame must have an empty payload");
          break;
        }
        submit_stats(conn);
        continue;
      }
      const bool admitted =
          header.type == wire::FrameType::kNearest
              ? submit_queries(
                    conn,
                    wire::decode_nearest_batch(payload, header.payload_len),
                    true,
                    [](const wire::NearestBatchFrame& f, arch::BitWord query) {
                      // A u32 past INT32_MAX would narrow to a negative
                      // threshold, which the engine reads as "use the
                      // default".  No distance exceeds the digit count, so
                      // clamping changes no distance test.
                      return make_search_nearest(
                          std::move(query), static_cast<int>(f.k),
                          static_cast<int>(std::min<std::uint32_t>(
                              f.threshold, INT32_MAX)));
                    })
              : submit_queries(
                    conn,
                    wire::decode_search_batch(payload, header.payload_len),
                    false,
                    [](const wire::SearchBatchFrame&, arch::BitWord query) {
                      return make_search(std::move(query));
                    });
      if (!admitted) break;
    }
    conn->rx.erase(conn->rx.begin(),
                   conn->rx.begin() + static_cast<std::ptrdiff_t>(off));
  }

  void handle_readable(const std::shared_ptr<Connection>& conn) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->rx.insert(conn->rx.end(), buf, buf + n);
        if (conn->rx.size() > static_cast<std::size_t>(sizeof(buf))) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or hard error: stop reading; in-flight responses still flush.
      conn->reading = false;
      conn->closing = true;
      update_interest(conn);
      break;
    }
    parse_frames(conn);
    if (conn->fd >= 0) {
      flush_tx(conn);  // also handles maybe_close
    }
  }

  /// eventfd wake: completion results landed, or stop was requested.
  void handle_wake() {
    std::uint64_t drainv = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(event_fd, &drainv, sizeof(drainv));
    if (stopping.load() && listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
      for (auto& [fd, conn] : conns) {
        conn->reading = false;
        conn->closing = true;
        update_interest(conn);
      }
      {
        const std::lock_guard<std::mutex> lock(pending_mu);
        submissions_done = true;
      }
      pending_cv.notify_all();
    }
    // Snapshot: flush_tx can close (and erase) connections mid-walk.
    std::vector<std::shared_ptr<Connection>> snapshot;
    snapshot.reserve(conns.size());
    for (auto& [fd, conn] : conns) snapshot.push_back(conn);
    for (const auto& conn : snapshot) {
      if (conn->fd < 0) continue;
      if (!conn->closing && !conn->reading &&
          conn->in_flight.load() < self.options_.max_pipeline) {
        conn->reading = true;  // backpressure released
        update_interest(conn);
        parse_frames(conn);    // frames may already be buffered
      }
      flush_tx(conn);
    }
  }

  void io_loop() {
    epoll_event events[64];
    for (;;) {
      if (stopping.load() && listen_fd < 0) {
        const auto now = std::chrono::steady_clock::now();
        if (!drain_deadline_set) {
          drain_deadline_set = true;
          drain_deadline = now + std::chrono::milliseconds(
                                     self.options_.drain_timeout_ms);
        } else if (now >= drain_deadline && !conns.empty()) {
          // Bounded drain: a peer that stopped reading keeps its tx
          // buffer pinned forever — force-close whatever is left rather
          // than hanging stop() (and the destructor) indefinitely.
          std::vector<std::shared_ptr<Connection>> remaining;
          remaining.reserve(conns.size());
          for (auto& [fd, conn] : conns) remaining.push_back(conn);
          self.force_closes_.fetch_add(remaining.size(),
                                       std::memory_order_relaxed);
          for (const auto& conn : remaining) close_conn(conn);
        }
        if (drained.load()) {
          bool idle = true;
          for (auto& [fd, conn] : conns) {
            const std::lock_guard<std::mutex> lock(conn->tx_mu);
            if (conn->in_flight.load() > 0 ||
                conn->tx_off < conn->tx.size()) {
              idle = false;
              break;
            }
          }
          if (idle) break;
        }
      }
      const int n = ::epoll_wait(epoll_fd, events, 64, 100);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == event_fd) {
          handle_wake();
          continue;
        }
        if (fd == listen_fd) {
          handle_accept();
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        const std::shared_ptr<Connection> conn = it->second;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          conn->reading = false;
          conn->closing = true;
        }
        if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
          if (conn->reading) {
            handle_readable(conn);
          } else {
            maybe_close(conn);
          }
        }
        if (conn->fd >= 0 && (events[i].events & EPOLLOUT)) {
          flush_tx(conn);
        }
      }
    }
    // Teardown: everything owed has been flushed (or the peer vanished).
    std::vector<std::shared_ptr<Connection>> remaining;
    for (auto& [fd, conn] : conns) remaining.push_back(conn);
    for (const auto& conn : remaining) close_conn(conn);
  }

  void completion_loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(pending_mu);
        pending_cv.wait(lock, [&] {
          return (stop_requested && submissions_done) || !pending.empty();
        });
        if (pending.empty()) {
          // Stop requested, the IO thread can submit no more, and nothing
          // is left: the engine owes us nothing.
          drained.store(true);
          wake_io();
          return;
        }
        p = std::move(pending.front());
        pending.pop_front();
      }
      if (p.is_stats) {
        // Snapshot assembled here, on the completion thread, AFTER every
        // earlier pending response of this connection has been encoded —
        // a scrape therefore observes its own connection's prior frames
        // as served.
        obs::ScopedSpan span("wire.stats", "server", p.trace_id);
        ServerStatsView sv;
        sv.connections_accepted = self.accepted_.load();
        sv.connections_open = self.open_conns_.load();
        sv.frames_served = self.frames_served_.load();
        sv.frames_rejected = self.frames_rejected_.load();
        sv.stats_served = self.stats_served_.load();
        sv.backpressure_stalls = self.backpressure_stalls_.load();
        sv.force_closes = self.force_closes_.load();
        ConnectionStatsView cv;
        cv.id = p.conn->id;
        cv.frames = p.conn->frames.load();
        cv.rejected = p.conn->rejected.load();
        cv.backpressure_stalls = p.conn->stalls.load();
        cv.in_flight = p.conn->in_flight.load();
        const std::string json =
            stats_snapshot_json(self.engine_, &sv, &cv);
        {
          const std::lock_guard<std::mutex> lock(p.conn->tx_mu);
          wire::encode_stats_result(p.conn->tx, json);
        }
        p.conn->in_flight.fetch_sub(1);
        self.stats_served_.fetch_add(1, std::memory_order_relaxed);
        wake_io();
        continue;
      }
      std::vector<wire::ResultRecord> records;
      std::vector<std::vector<wire::NearestRecord>> near_lists;
      bool ok = true;
      obs::ScopedSpan span("wire.complete", "server", p.trace_id);
      try {
        const BatchResult res = p.future.get();
        if (p.is_nearest) {
          near_lists.reserve(res.results.size());
          for (const RequestResult& r : res.results) {
            std::vector<wire::NearestRecord> list;
            list.reserve(r.neighbors.size());
            for (const NearCandidate& c : r.neighbors) {
              wire::NearestRecord rec;
              rec.entry = c.entry;
              rec.priority = c.priority;
              rec.distance = static_cast<std::uint32_t>(c.distance);
              list.push_back(rec);
            }
            near_lists.push_back(std::move(list));
          }
        } else {
          records.reserve(res.results.size());
          for (const RequestResult& r : res.results) {
            wire::ResultRecord rec;
            rec.hit = r.hit ? 1 : 0;
            rec.entry = r.entry;
            rec.priority = r.priority;
            records.push_back(rec);
          }
        }
      } catch (const std::exception&) {
        ok = false;  // engine shut down under us: answer with an error
      }
      {
        const std::lock_guard<std::mutex> lock(p.conn->tx_mu);
        if (ok && p.is_nearest) {
          wire::encode_nearest_result(p.conn->tx, near_lists);
        } else if (ok) {
          wire::encode_search_result(p.conn->tx, records);
        } else {
          wire::ErrorFrame err;
          err.code = wire::ErrorCode::kShuttingDown;
          err.message = "engine shut down";
          wire::encode_error(p.conn->tx, err);
        }
      }
      p.conn->in_flight.fetch_sub(1);
      self.frames_served_.fetch_add(1, std::memory_order_relaxed);
      wake_io();
    }
  }
};

SearchServer::SearchServer(SearchEngine& engine, int cols,
                           ServerOptions options)
    : impl_(std::make_unique<Impl>(*this)),
      engine_(engine),
      cols_(cols),
      options_(std::move(options)) {
  if (cols_ <= 0) throw std::invalid_argument("server needs cols > 0");
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
}

SearchServer::~SearchServer() { stop(); }

void SearchServer::start() {
  if (running_.load()) return;
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw std::invalid_argument("bad server host: " + options_.host);
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(impl_->listen_fd, options_.listen_backlog) != 0) {
    const int saved = errno;
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    errno = saved;
    throw_errno("bind/listen");
  }
  set_nonblocking(impl_->listen_fd);
  socklen_t len = sizeof(addr);
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_.store(ntohs(addr.sin_port));

  impl_->epoll_fd = ::epoll_create1(0);
  impl_->event_fd = ::eventfd(0, EFD_NONBLOCK);
  if (impl_->epoll_fd < 0 || impl_->event_fd < 0) throw_errno("epoll/eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl_->listen_fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &ev);
  ev.data.fd = impl_->event_fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->event_fd, &ev);

  impl_->stopping.store(false);
  impl_->drained.store(false);
  impl_->drain_deadline_set = false;
  {
    const std::lock_guard<std::mutex> lock(impl_->pending_mu);
    impl_->stop_requested = false;
    impl_->submissions_done = false;
  }
  impl_->io_thread = std::thread([this] { impl_->io_loop(); });
  impl_->completion_thread = std::thread([this] { impl_->completion_loop(); });
  running_.store(true);
}

void SearchServer::stop() {
  if (!running_.load()) return;
  impl_->stopping.store(true);
  {
    const std::lock_guard<std::mutex> lock(impl_->pending_mu);
    impl_->stop_requested = true;
  }
  impl_->pending_cv.notify_all();
  impl_->wake_io();
  if (impl_->completion_thread.joinable()) impl_->completion_thread.join();
  if (impl_->io_thread.joinable()) impl_->io_thread.join();
  if (impl_->event_fd >= 0) {
    ::close(impl_->event_fd);
    impl_->event_fd = -1;
  }
  if (impl_->epoll_fd >= 0) {
    ::close(impl_->epoll_fd);
    impl_->epoll_fd = -1;
  }
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  impl_->conns.clear();
  running_.store(false);
}

}  // namespace fetcam::engine
