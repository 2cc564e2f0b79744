// SearchServer / SearchClient loopback tests: framing round-trips,
// pipelined batches, fault containment (oversized / truncated / garbage
// frames hurt only the offending connection), and clean drain on stop().
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/client.hpp"
#include "engine/engine.hpp"
#include "engine/server.hpp"
#include "engine/table.hpp"
#include "engine/wire.hpp"
#include "engine/workload.hpp"
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

TraceSpec test_spec() {
  TraceSpec spec;
  spec.kind = TraceKind::kIpPrefix;
  spec.cols = kCols;
  spec.rules = 64;
  spec.queries = 200;
  spec.match_rate = 0.5;
  spec.seed = 7;
  return spec;
}

/// Table + engine + started server, torn down in reverse order.
struct Service {
  Trace trace;
  TcamTable table;
  SearchEngine engine;
  SearchServer server;

  explicit Service(ServerOptions sopts = {}, EngineOptions eopts = {})
      : trace(generate_trace(test_spec())),
        table(test_config()),
        engine((load_rules(table, trace), table), eopts),
        server(engine, kCols, sopts) {
    server.start();
  }
  ~Service() { server.stop(); }
};

/// What the engine itself reports for `queries` (the wire must be a
/// transparent window onto exactly this).
std::vector<RequestResult> direct_results(
    SearchEngine& engine, const std::vector<arch::BitWord>& queries) {
  std::vector<Request> batch;
  for (const auto& q : queries) batch.push_back(make_search(q));
  return engine.execute(std::move(batch)).results;
}

void expect_records_match(const std::vector<wire::ResultRecord>& records,
                          const std::vector<RequestResult>& want) {
  ASSERT_EQ(records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(records[i].hit != 0, want[i].hit) << "record " << i;
    EXPECT_EQ(records[i].entry, want[i].entry) << "record " << i;
    EXPECT_EQ(records[i].priority, want[i].priority) << "record " << i;
  }
}

TEST(SearchServer, RoundTripMatchesDirectEngineResults) {
  Service svc;
  std::vector<arch::BitWord> queries(svc.trace.queries.begin(),
                                     svc.trace.queries.begin() + 32);
  const auto want = direct_results(svc.engine, queries);

  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const auto records = client.search(queries, kCols);
  expect_records_match(records, want);
  EXPECT_EQ(svc.server.frames_served(), 1u);
  EXPECT_EQ(svc.server.frames_rejected(), 0u);
}

TEST(SearchServer, EmptyBatchRoundTrips) {
  Service svc;
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const auto records = client.search({}, kCols);
  EXPECT_TRUE(records.empty());
}

TEST(SearchServer, PipelinedBatchesAnswerInOrder) {
  Service svc;
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  constexpr std::size_t kFrames = 12;
  std::vector<std::vector<arch::BitWord>> frames;
  for (std::size_t f = 0; f < kFrames; ++f) {
    std::vector<arch::BitWord> queries;
    for (std::size_t k = 0; k < 8; ++k) {
      queries.push_back(
          svc.trace.queries[(f * 8 + k) % svc.trace.queries.size()]);
    }
    frames.push_back(std::move(queries));
  }
  // Send everything before reading anything: replies must come back in
  // request order, one frame each.
  for (const auto& frame : frames) client.send_batch(frame, kCols);
  for (const auto& frame : frames) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.ok);
    expect_records_match(reply.records, direct_results(svc.engine, frame));
  }
}

TEST(SearchServer, PipelineDeeperThanBackpressureWindowStillDrains) {
  ServerOptions sopts;
  sopts.max_pipeline = 2;  // force the EPOLLIN-off backpressure path
  Service svc(sopts);
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const std::vector<arch::BitWord> frame(
      8, arch::BitWord(static_cast<std::size_t>(kCols), 1));
  constexpr std::size_t kFrames = 16;
  for (std::size_t f = 0; f < kFrames; ++f) client.send_batch(frame, kCols);
  for (std::size_t f = 0; f < kFrames; ++f) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.ok) << "frame " << f;
    EXPECT_EQ(reply.records.size(), frame.size());
  }
}

TEST(SearchServer, GarbageHeaderGetsErrorFrameAndClose) {
  Service svc;
  SearchClient bad;
  bad.connect("127.0.0.1", svc.server.port());
  const char junk[16] = "not a frame!!!!";
  bad.send_raw(junk, sizeof(junk));
  const auto reply = bad.recv_reply();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, wire::ErrorCode::kBadMagic);
  // The server closes the bad connection after the error frame.
  EXPECT_THROW(bad.recv_reply(), std::runtime_error);
}

TEST(SearchServer, OversizedFrameIsRejectedBeforeBuffering) {
  Service svc;
  SearchClient bad;
  bad.connect("127.0.0.1", svc.server.port());
  std::vector<std::uint8_t> header;
  wire::encode_header(header, wire::FrameType::kSearchBatch,
                      wire::kMaxPayload + 1);
  bad.send_raw(header.data(), header.size());
  const auto reply = bad.recv_reply();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, wire::ErrorCode::kOversized);
}

TEST(SearchServer, TruncatedPayloadIsRejectedAsMalformed) {
  Service svc;
  SearchClient bad;
  bad.connect("127.0.0.1", svc.server.port());
  // Header promises a 12-byte payload; the payload's own counts then
  // claim more query words than those 12 bytes hold.
  std::vector<std::uint8_t> out;
  wire::encode_header(out, wire::FrameType::kSearchBatch, 12);
  wire::put_u32(out, 5);  // count
  wire::put_u32(out, 1);  // words_per_query -> needs 40 payload bytes
  wire::put_u32(out, 0);  // 4 stray bytes instead
  bad.send_raw(out.data(), out.size());
  const auto reply = bad.recv_reply();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, wire::ErrorCode::kMalformed);
}

TEST(SearchServer, WrongWidthIsRejected) {
  // Both query frame kinds share one width check: each must earn kBadWidth.
  Service svc;
  const std::vector<arch::BitWord> queries(2, arch::BitWord(80, 0));
  for (const bool nearest : {false, true}) {
    SCOPED_TRACE(nearest ? "kNearest" : "kSearchBatch");
    SearchClient bad;
    bad.connect("127.0.0.1", svc.server.port());
    // The table is 16 cols -> 1 word per query; these frames carry 2.
    if (nearest) {
      bad.send_nearest_batch(queries, 80, 1, 0);
    } else {
      bad.send_batch(queries, 80);
    }
    const auto reply = bad.recv_reply();
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error.code, wire::ErrorCode::kBadWidth);
  }
}

TEST(SearchServer, NearestThresholdPastInt32MaxCoversEveryDigit) {
  // A kNearest frame's u32 threshold past INT32_MAX must clamp, not
  // narrow to a negative int that the engine reads as "use the default"
  // (0).  No distance exceeds the digit count, so 0xFFFFFFFF must answer
  // exactly like threshold = kCols, where every stored rule is a
  // candidate.
  Service svc;
  const std::vector<arch::BitWord> queries(svc.trace.queries.begin(),
                                           svc.trace.queries.begin() + 8);
  constexpr int kK = 64;
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const auto want = client.search_nearest(queries, kCols, kK, kCols);
  const auto exact = client.search_nearest(queries, kCols, kK, 0);
  wire::NearestBatchFrame frame;
  frame.words_per_query = 1;
  frame.k = kK;
  frame.threshold = 0xFFFFFFFFu;
  for (const arch::BitWord& q : queries) {
    std::uint64_t word = 0;
    for (int c = 0; c < kCols; ++c) {
      word |= static_cast<std::uint64_t>(q[static_cast<std::size_t>(c)] != 0)
              << c;
    }
    frame.bits.push_back(word);
  }
  std::vector<std::uint8_t> out;
  wire::encode_nearest_batch(out, frame);
  client.send_raw(out.data(), out.size());
  const SearchClient::Reply reply = client.recv_reply();
  ASSERT_TRUE(reply.ok);
  ASSERT_TRUE(reply.is_nearest);
  ASSERT_EQ(reply.neighbors.size(), want.size());
  bool wider_than_exact = false;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(reply.neighbors[q].size(), want[q].size()) << "q=" << q;
    for (std::size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(reply.neighbors[q][i].entry, want[q][i].entry);
      EXPECT_EQ(reply.neighbors[q][i].priority, want[q][i].priority);
      EXPECT_EQ(reply.neighbors[q][i].distance, want[q][i].distance);
    }
    wider_than_exact |= want[q].size() > exact[q].size();
  }
  // Threshold 0 answers differently, so a wrap to the default shows.
  EXPECT_TRUE(wider_than_exact);
}

TEST(WireProtocol, OverflowingCountTimesWidthIsRejected) {
  // count * words_per_query = 2^61 words, whose byte size is 0 mod 2^64:
  // a naive `len == 8 + words * 8` check passes and the decoder attempts
  // a 2^61-word resize.  The decoder must reject instead.
  std::vector<std::uint8_t> payload;
  wire::put_u32(payload, 0x80000000u);  // count
  wire::put_u32(payload, 0x40000000u);  // words_per_query
  EXPECT_FALSE(
      wire::decode_search_batch(payload.data(), payload.size()).has_value());
  // The kNearest decoder shares the bound: the same count and width, with
  // a legal k, in its 16-byte fixed fields.
  wire::put_u32(payload, 1);  // k
  wire::put_u32(payload, 0);  // threshold
  EXPECT_FALSE(
      wire::decode_nearest_batch(payload.data(), payload.size()).has_value());
}

TEST(WireProtocol, NearestResultCountIsBoundedBeforeReserve) {
  // A 4-byte kNearestResult payload claiming 2^32-1 query lists: the
  // decoder must reject it before reserving room for the claimed count.
  std::vector<std::uint8_t> payload;
  wire::put_u32(payload, 0xFFFFFFFFu);
  EXPECT_FALSE(
      wire::decode_nearest_result(payload.data(), payload.size()).has_value());

  // The bound is exact: two empty lists need 4 + 2*4 bytes.
  std::vector<std::uint8_t> two;
  wire::put_u32(two, 2);
  wire::put_u32(two, 0);
  wire::put_u32(two, 0);
  const auto lists = wire::decode_nearest_result(two.data(), two.size());
  ASSERT_TRUE(lists.has_value());
  EXPECT_EQ(lists->size(), 2u);
  two[0] = 3;  // claims one list more than the bytes can hold
  EXPECT_FALSE(
      wire::decode_nearest_result(two.data(), two.size()).has_value());
}

TEST(SearchServer, OverflowingBatchCountsGetErrorFrameNotCrash) {
  // The same crafted 20-byte frame over the wire: it must earn a
  // kMalformed error frame on that connection only — not an uncaught
  // std::length_error that terminates the whole server.
  Service svc;
  SearchClient good;
  good.connect("127.0.0.1", svc.server.port());
  SearchClient bad;
  bad.connect("127.0.0.1", svc.server.port());
  std::vector<std::uint8_t> out;
  wire::encode_header(out, wire::FrameType::kSearchBatch, 8);
  wire::put_u32(out, 0x80000000u);  // count
  wire::put_u32(out, 0x40000000u);  // words_per_query
  bad.send_raw(out.data(), out.size());
  const auto reply = bad.recv_reply();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, wire::ErrorCode::kMalformed);
  // The server survived and still serves other connections.
  const auto records = good.search(
      {arch::BitWord(static_cast<std::size_t>(kCols), 0)}, kCols);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_GE(svc.server.frames_rejected(), 1u);
}

TEST(SearchServer, BadConnectionDoesNotDisturbOthers) {
  Service svc;
  SearchClient good;
  good.connect("127.0.0.1", svc.server.port());
  std::vector<arch::BitWord> queries(svc.trace.queries.begin(),
                                     svc.trace.queries.begin() + 8);
  const auto want = direct_results(svc.engine, queries);
  // Interleave: good frame, then garbage on a second connection, then
  // another good frame.  The good connection must never notice.
  expect_records_match(good.search(queries, kCols), want);
  {
    SearchClient bad;
    bad.connect("127.0.0.1", svc.server.port());
    const char junk[32] = "garbage garbage garbage!!!!!!!";
    bad.send_raw(junk, sizeof(junk));
    const auto reply = bad.recv_reply();
    ASSERT_FALSE(reply.ok);
  }
  expect_records_match(good.search(queries, kCols), want);
  EXPECT_GE(svc.server.frames_rejected(), 1u);
}

TEST(SearchServer, ManyConcurrentClientsGetTheirOwnAnswers) {
  Service svc;
  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SearchClient client;
      client.connect("127.0.0.1", svc.server.port());
      for (int round = 0; round < kRounds; ++round) {
        std::vector<arch::BitWord> queries;
        for (int k = 0; k < 8; ++k) {
          queries.push_back(svc.trace.queries[static_cast<std::size_t>(
              (c * 131 + round * 17 + k) %
              static_cast<int>(svc.trace.queries.size()))]);
        }
        const auto records = client.search(queries, kCols);
        if (records.size() != queries.size()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.server.frames_served(),
            static_cast<std::uint64_t>(kClients * kRounds));
}

TEST(SearchServer, StopDrainsInFlightFramesBeforeClosing) {
  Service svc;
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const std::vector<arch::BitWord> frame(
      16, arch::BitWord(static_cast<std::size_t>(kCols), 0));
  constexpr std::size_t kFrames = 8;
  for (std::size_t f = 0; f < kFrames; ++f) client.send_batch(frame, kCols);
  // Stop with frames in flight: every already-submitted frame must still
  // be answered and flushed before the connection closes.
  svc.server.stop();
  std::size_t answered = 0;
  try {
    for (std::size_t f = 0; f < kFrames; ++f) {
      const auto reply = client.recv_reply();
      if (reply.ok) ++answered;
      EXPECT_EQ(reply.records.size(), frame.size());
    }
  } catch (const std::runtime_error&) {
    // Frames the server never read before stop() are legitimately
    // unanswered; everything it DID read must have been answered above.
  }
  EXPECT_EQ(svc.server.frames_served(), answered);
  EXPECT_FALSE(svc.server.running());
}

TEST(SearchServer, StopForceClosesPeersThatNeverRead) {
  ServerOptions sopts;
  sopts.drain_timeout_ms = 200;
  sopts.sndbuf_bytes = 8192;  // no autotuning: transit buffers stay tiny
  Service svc(sopts);
  // A raw client with a tiny receive buffer that never reads: once the
  // kernel's transit buffers fill, the connection's tx buffer stays
  // pinned, and without a drain bound stop() would block forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(svc.server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // 12 frames x 2000 queries -> ~312 KiB of result frames, far past what
  // a 4 KiB receive window lets through.
  wire::SearchBatchFrame frame;
  frame.words_per_query = 1;  // kCols = 16 -> one word per query
  frame.bits.assign(2000, 0);
  std::vector<std::uint8_t> bytes;
  for (int f = 0; f < 12; ++f) wire::encode_search_batch(bytes, frame);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  // Wait until every frame has been answered (responses encoded into the
  // tx buffer), so stop() finds undeliverable bytes rather than an idle
  // connection.
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (svc.server.frames_served() < 12 &&
         std::chrono::steady_clock::now() < wait_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(svc.server.frames_served(), 12u);
  const auto t0 = std::chrono::steady_clock::now();
  svc.server.stop();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(svc.server.running());
  // ~300 KiB of responses cannot fit in ~24 KiB of transit buffers, so
  // stop() must have gone through the 200 ms force-close deadline — not
  // a clean flush (which would return almost instantly) and not a hang
  // (generous CI slack on the upper bound).
  EXPECT_GE(elapsed_ms, 100);
  EXPECT_LT(elapsed_ms, 5000);
  ::close(fd);
}

TEST(SearchServer, StatsScrapeRoundTripsOverLiveConnection) {
  // kStats over the live loopback: the reply must be the stats snapshot
  // JSON carrying engine totals, queue gauges, stage percentiles, and the
  // per-server / per-connection counter sections.
  const obs::Level prior = obs::level();
  obs::set_level(obs::Level::kMetrics);
  {
    Service svc;
    SearchClient client;
    client.connect("127.0.0.1", svc.server.port());
    std::vector<arch::BitWord> queries(svc.trace.queries.begin(),
                                       svc.trace.queries.begin() + 16);
    client.search(queries, kCols);
    client.search(queries, kCols);

    const std::string json = client.stats();
    EXPECT_NE(json.find("\"schema\": \"fetcam.stats.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"requests\": 32"), std::string::npos);
    EXPECT_NE(json.find("\"stages\""), std::string::npos);
    // Server section: both search frames already served when the scrape
    // was rendered (the stats reply rides the same FIFO).
    EXPECT_NE(json.find("\"frames_served\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"connections_accepted\": 1"), std::string::npos);
    // Connection section: this client's own counters.
    EXPECT_NE(json.find("\"connection\": {"), std::string::npos);
#ifndef FETCAM_OBS_DISABLED
    // At metrics level the stage recorders must have observed the frames.
    EXPECT_NE(json.find("engine.stage.queue_wait"), std::string::npos);
    EXPECT_EQ(json.find("\"engine.batch.total\": {\"count\": 0"),
              std::string::npos)
        << "batch recorder never fired:\n"
        << json;
#endif
    EXPECT_EQ(svc.server.stats_served(), 1u);
    EXPECT_EQ(svc.server.frames_served(), 2u);
  }
  obs::set_level(prior);
}

TEST(SearchServer, StatsReplyPreservesPipelineOrder) {
  // search, search, stats, search pipelined without reading: replies must
  // come back exactly in that order (the stats frame does not jump the
  // connection's FIFO).
  Service svc;
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const std::vector<arch::BitWord> frame(
      4, arch::BitWord(static_cast<std::size_t>(kCols), 0));
  client.send_batch(frame, kCols);
  client.send_batch(frame, kCols);
  client.send_stats_request();
  client.send_batch(frame, kCols);

  for (int k = 0; k < 2; ++k) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.ok);
    EXPECT_FALSE(reply.is_stats) << "reply " << k;
    EXPECT_EQ(reply.records.size(), frame.size());
  }
  const auto stats = client.recv_reply();
  ASSERT_TRUE(stats.ok);
  EXPECT_TRUE(stats.is_stats);
  EXPECT_NE(stats.stats_json.find("fetcam.stats.v1"), std::string::npos);
  const auto last = client.recv_reply();
  ASSERT_TRUE(last.ok);
  EXPECT_FALSE(last.is_stats);
  EXPECT_EQ(last.records.size(), frame.size());
}

TEST(SearchServer, MalformedStatsFrameIsContainedToThatConnection) {
  // A kStats frame must have an empty payload; one that smuggles bytes is
  // malformed — error frame + close for that connection, nothing else.
  Service svc;
  SearchClient good;
  good.connect("127.0.0.1", svc.server.port());
  SearchClient bad;
  bad.connect("127.0.0.1", svc.server.port());
  std::vector<std::uint8_t> out;
  wire::encode_header(out, wire::FrameType::kStats, 4);
  wire::put_u32(out, 0xdeadbeefu);
  bad.send_raw(out.data(), out.size());
  const auto reply = bad.recv_reply();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, wire::ErrorCode::kMalformed);
  EXPECT_THROW(bad.recv_reply(), std::runtime_error);
  // The good connection still searches AND still scrapes.
  const auto records = good.search(
      {arch::BitWord(static_cast<std::size_t>(kCols), 0)}, kCols);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_NE(good.stats().find("fetcam.stats.v1"), std::string::npos);
  EXPECT_GE(svc.server.frames_rejected(), 1u);
}

TEST(SearchServer, StopThenRestartServesAgain) {
  Service svc;
  const std::uint16_t port1 = svc.server.port();
  svc.server.stop();
  EXPECT_FALSE(svc.server.running());
  svc.server.start();
  EXPECT_TRUE(svc.server.running());
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const auto records = client.search(
      {arch::BitWord(static_cast<std::size_t>(kCols), 0)}, kCols);
  EXPECT_EQ(records.size(), 1u);
  (void)port1;
}

}  // namespace
}  // namespace fetcam::engine
