// Approximate-match / kNN subsystem tests: TcamTable::search_nearest
// against the brute-force digit-distance reference (mat-skip pruning on
// AND off, digit widths 1-3), query-blocked nearest_mats_block against
// the one-lane search, exact-path degeneration at d = 1 /
// threshold = 0 / k = 1, engine-level determinism of kSearchNearest
// across every dispatch shape, option-validation naming, the workload
// recall golden, and the kNearest wire round-trip plus the uniform
// unknown-opcode containment the protocol promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dense_stats.hpp"
#include "engine/client.hpp"
#include "engine/engine.hpp"
#include "engine/server.hpp"
#include "engine/table.hpp"
#include "engine/wire.hpp"
#include "engine/workload.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

TableConfig nearest_config(int digit_bits, bool mat_skip) {
  TableConfig cfg;
  cfg.mats = 4;
  cfg.rows_per_mat = 64;
  cfg.cols = 24;  // divisible by 1, 2, 3
  cfg.subarrays_per_mat = 2;
  cfg.digit_bits = digit_bits;
  cfg.mat_skip = mat_skip;
  return cfg;
}

TraceSpec nearest_spec(int digit_bits, std::uint64_t seed) {
  TraceSpec spec;
  spec.kind = TraceKind::kEmbedding;
  spec.cols = 24;
  spec.rules = 180;
  spec.queries = 300;
  spec.match_rate = 0.5;
  spec.digit_bits = digit_bits;
  spec.seed = seed;
  return spec;
}

TEST(ApproxNearest, TableMatchesBruteForceAcrossDigitWidths) {
  for (const int d : {1, 2, 3}) {
    for (const bool skip : {false, true}) {
      const Trace trace = generate_trace(nearest_spec(d, 11 + d));
      TcamTable table(nearest_config(d, skip));
      const auto ids = load_rules(table, trace);
      const int digits = trace.cols / d;
      for (const int threshold : {0, 1, 2, digits}) {
        for (const int k : {1, 3, 8}) {
          for (std::size_t q = 0; q < trace.queries.size(); q += 7) {
            const NearestMatch got =
                table.search_nearest(trace.queries[q], k, threshold);
            const auto want = brute_force_nearest(
                trace, ids, trace.queries[q], d, k, threshold);
            ASSERT_EQ(got.top.size(), want.size())
                << "d=" << d << " skip=" << skip << " t=" << threshold
                << " k=" << k << " q=" << q;
            for (std::size_t i = 0; i < want.size(); ++i) {
              ASSERT_EQ(got.top[i].entry, want[i].entry)
                  << "d=" << d << " skip=" << skip << " t=" << threshold
                  << " k=" << k << " q=" << q << " i=" << i;
              ASSERT_EQ(got.top[i].priority, want[i].priority);
              ASSERT_EQ(got.top[i].distance, want[i].distance);
            }
          }
        }
      }
    }
  }
}

TEST(ApproxNearest, MatSkipNeverChangesResultsOrKernelStats) {
  // The widened mat-skip bound must be conservative: a skipped mat can
  // hold no within-threshold row, and the skip must charge the SAME
  // single-step stats the kernel would have reported, so the energy
  // account is placement-independent.
  for (const int d : {1, 2}) {
    const Trace trace = generate_trace(nearest_spec(d, 29));
    TcamTable on(nearest_config(d, true));
    TcamTable off(nearest_config(d, false));
    const auto ids_on = load_rules(on, trace);
    const auto ids_off = load_rules(off, trace);
    ASSERT_EQ(ids_on, ids_off);
    for (std::size_t q = 0; q < trace.queries.size(); q += 5) {
      for (const int threshold : {0, 1}) {
        const NearestMatch a =
            on.search_nearest(trace.queries[q], 4, threshold);
        const NearestMatch b =
            off.search_nearest(trace.queries[q], 4, threshold);
        ASSERT_EQ(a.top.size(), b.top.size()) << "q=" << q;
        for (std::size_t i = 0; i < a.top.size(); ++i) {
          ASSERT_EQ(a.top[i].entry, b.top[i].entry);
          ASSERT_EQ(a.top[i].distance, b.top[i].distance);
        }
        ASSERT_EQ(a.stats.rows, b.stats.rows);
        ASSERT_EQ(a.stats.step2_evaluated, b.stats.step2_evaluated);
        ASSERT_EQ(a.stats.matches, b.stats.matches);
      }
    }
    EXPECT_EQ(on.total_energy_j(), off.total_energy_j()) << "d=" << d;
  }
}

TEST(ApproxNearest, DegeneratesToExactSearchAtUnitDigitZeroThreshold) {
  const Trace trace = generate_trace(nearest_spec(1, 37));
  TcamTable table(nearest_config(1, true));
  load_rules(table, trace);
  for (std::size_t q = 0; q < trace.queries.size(); ++q) {
    const TableMatch exact = table.search(trace.queries[q]);
    const NearestMatch near = table.search_nearest(trace.queries[q], 1, 0);
    if (exact.hit) {
      ASSERT_EQ(near.top.size(), 1u) << "q=" << q;
      // Exact resolves (priority, id); nearest resolves (distance,
      // priority, id) — identical at distance 0.
      EXPECT_EQ(near.top[0].entry, exact.entry) << "q=" << q;
      EXPECT_EQ(near.top[0].priority, exact.priority);
      EXPECT_EQ(near.top[0].distance, 0);
    } else {
      EXPECT_TRUE(near.top.empty()) << "q=" << q;
    }
  }
}

TEST(ApproxNearest, EngineResultsInvariantAcrossDispatchShapes) {
  const int d = 2;
  const Trace trace = generate_trace(nearest_spec(d, 53));
  // Reference: serial table walk.
  TcamTable ref_table(nearest_config(d, true));
  const auto ids = load_rules(ref_table, trace);

  struct Shape {
    int threads;  ///< shared pool size phase A runs on
    int query_block;
  };
  const Shape shapes[] = {
      {1, 1}, {2, 8}, {2, 4}, {3, 8}, {1, 2},
  };
  struct PoolGuard {
    ~PoolGuard() { util::set_thread_count(0); }
  } pool_guard;
  for (const Shape& shape : shapes) {
    util::set_thread_count(shape.threads);
    TcamTable table(nearest_config(d, true));
    load_rules(table, trace);
    EngineOptions opts;
    opts.query_block = shape.query_block;
    SearchEngine eng(table, opts);
    // Mixed batches: exact searches interleaved with nearest requests so
    // the batch carries both task kinds at once.
    std::vector<Request> batch;
    for (std::size_t q = 0; q < trace.queries.size(); ++q) {
      if (q % 3 == 0) {
        batch.push_back(make_search(trace.queries[q]));
      } else {
        batch.push_back(make_search_nearest(
            trace.queries[q], 1 + static_cast<int>(q % 4),
            static_cast<int>(q % 3)));
      }
    }
    const BatchResult res = eng.execute(std::move(batch));
    ASSERT_EQ(res.results.size(), trace.queries.size());
    for (std::size_t q = 0; q < trace.queries.size(); ++q) {
      const RequestResult& r = res.results[q];
      if (q % 3 == 0) {
        const TableMatch want = ref_table.search(trace.queries[q]);
        ASSERT_EQ(r.hit, want.hit) << "exact q=" << q;
        if (want.hit) {
          ASSERT_EQ(r.entry, want.entry);
        }
        continue;
      }
      const auto want = brute_force_nearest(
          trace, ids, trace.queries[q], d, 1 + static_cast<int>(q % 4),
          static_cast<int>(q % 3));
      ASSERT_EQ(r.neighbors.size(), want.size())
          << "threads=" << shape.threads
          << " block=" << shape.query_block << " q=" << q;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(r.neighbors[i].entry, want[i].entry)
            << "threads=" << shape.threads << " q=" << q
            << " i=" << i;
        ASSERT_EQ(r.neighbors[i].distance, want[i].distance);
      }
      ASSERT_EQ(r.hit, !want.empty());
      if (!want.empty()) {
        ASSERT_EQ(r.entry, want[0].entry);
        ASSERT_EQ(r.distance, want[0].distance);
      }
    }
  }
}

void expect_same_nearest(const TcamTable& table, const NearestMatch& got,
                         const NearestMatch& want, const std::string& what) {
  ASSERT_EQ(got.top.size(), want.top.size()) << what;
  for (std::size_t i = 0; i < want.top.size(); ++i) {
    ASSERT_EQ(got.top[i].entry, want.top[i].entry) << what << " i=" << i;
    ASSERT_EQ(got.top[i].priority, want.top[i].priority) << what;
    ASSERT_EQ(got.top[i].distance, want.top[i].distance) << what;
  }
  const auto same_stats = [&](const arch::SearchStats& a,
                              const arch::SearchStats& b,
                              const std::string& where) {
    ASSERT_EQ(a.rows, b.rows) << where;
    ASSERT_EQ(a.step1_misses, b.step1_misses) << where;
    ASSERT_EQ(a.step2_evaluated, b.step2_evaluated) << where;
    ASSERT_EQ(a.matches, b.matches) << where;
  };
  same_stats(got.stats, want.stats, what + " stats");
  // Same table, same proof: the lanes must scan the same mats.
  ASSERT_EQ(got.scanned.size(), want.scanned.size()) << what;
  for (std::size_t i = 0; i < want.scanned.size(); ++i) {
    ASSERT_EQ(got.scanned[i].mat, want.scanned[i].mat) << what << " i=" << i;
  }
  const std::vector<arch::SearchStats> got_mats = dense_per_mat(table, got);
  const std::vector<arch::SearchStats> want_mats = dense_per_mat(table, want);
  for (std::size_t m = 0; m < want_mats.size(); ++m) {
    same_stats(got_mats[m], want_mats[m], what + " mat " + std::to_string(m));
  }
}

TEST(ApproxNearest, BlockedLanesMatchSingleLaneSearch) {
  // nearest_mats_block must hand every lane exactly what nearest_mats
  // gives it alone — top-k, merged and per-mat stats, and the pruning
  // counters — whatever (k, threshold) its block neighbours carry and
  // whichever mats the widened proof skips for them.
  bool saw_split_skips = false;
  for (const int d : {1, 2, 3}) {
    for (const int digits : {63, 64, 65}) {
      TraceSpec spec;
      spec.kind = TraceKind::kEmbedding;
      spec.cols = digits * d;
      spec.rules = 500;
      spec.queries = 96;
      spec.match_rate = 0.6;
      spec.digit_bits = d;
      spec.seed = static_cast<std::uint64_t>(71 + 10 * d + digits);
      const Trace trace = generate_trace(spec);
      const int thresholds_menu[] = {0, 1, 2, digits};
      for (const bool skip : {false, true}) {
        TableConfig cfg;
        // Single-step design: the two-step 1.5T1Fe array needs even widths
        // and 63 * d is odd.
        cfg.design = arch::TcamDesign::k2DgFefet;
        cfg.mats = 6;
        cfg.rows_per_mat = 96;
        cfg.cols = spec.cols;
        cfg.subarrays_per_mat = 2;
        cfg.digit_bits = d;
        cfg.mat_skip = skip;
        TcamTable table(cfg);
        load_rules_clustered(table, trace);
        MatchScratch single_scratch;
        MatchScratch block_scratch;  // reused: lanes warm up as nq grows
        for (int nq = 1; nq <= kMaxQueryBlock; ++nq) {
          std::vector<PackedQuery> packed;
          int ks[kMaxQueryBlock];
          int thresholds[kMaxQueryBlock];
          for (int q = 0; q < nq; ++q) {
            const std::size_t at =
                static_cast<std::size_t>(nq * 11 + q) % trace.queries.size();
            packed.push_back(PackedQuery::pack(trace.queries[at]));
            ks[q] = 1 + (3 * q + nq) % 6;
            thresholds[q] = thresholds_menu[(q + nq) % 4];
          }
          std::vector<NearestMatch> want(static_cast<std::size_t>(nq));
          std::vector<long long> lane_skips;
          for (int q = 0; q < nq; ++q) {
            const long long before = table.mats_skipped();
            table.nearest_mats(packed[static_cast<std::size_t>(q)], ks[q],
                               thresholds[q], single_scratch,
                               want[static_cast<std::size_t>(q)]);
            lane_skips.push_back(table.mats_skipped() - before);
          }
          const PackedQuery* queries[kMaxQueryBlock];
          std::vector<NearestMatch> got(static_cast<std::size_t>(nq));
          NearestMatch* outs[kMaxQueryBlock];
          for (int q = 0; q < nq; ++q) {
            queries[q] = &packed[static_cast<std::size_t>(q)];
            outs[q] = &got[static_cast<std::size_t>(q)];
          }
          const long long considered0 = table.mats_considered();
          const long long skipped0 = table.mats_skipped();
          table.nearest_mats_block(queries, ks, thresholds, nq, block_scratch,
                                   outs);
          long long want_skips = 0;
          for (const long long n : lane_skips) want_skips += n;
          EXPECT_EQ(table.mats_considered() - considered0,
                    static_cast<long long>(cfg.mats) * nq);
          EXPECT_EQ(table.mats_skipped() - skipped0, want_skips);
          for (int q = 0; q < nq; ++q) {
            expect_same_nearest(
                table, got[static_cast<std::size_t>(q)],
                want[static_cast<std::size_t>(q)],
                "d=" + std::to_string(d) + " digits=" +
                    std::to_string(digits) + " skip=" + std::to_string(skip) +
                    " nq=" + std::to_string(nq) + " lane=" +
                    std::to_string(q));
          }
          const auto [lo, hi] =
              std::minmax_element(lane_skips.begin(), lane_skips.end());
          if (*lo != *hi) saw_split_skips = true;
        }
      }
    }
  }
  // The sweep must exercise blocks whose lanes prune different mats.
  EXPECT_TRUE(saw_split_skips);
}

TEST(ApproxNearest, BlockedSearchValidatesEveryLane) {
  TcamTable table(nearest_config(2, true));
  const PackedQuery q = PackedQuery::pack(arch::BitWord(24, 0));
  const PackedQuery* queries[2] = {&q, &q};
  MatchScratch scratch;
  NearestMatch a, b;
  NearestMatch* outs[2] = {&a, &b};
  const int ks_ok[2] = {1, 4};
  const int ks_bad[2] = {1, 0};
  const int t_ok[2] = {0, 2};
  const int t_bad[2] = {0, -1};
  EXPECT_NO_THROW(table.nearest_mats_block(queries, ks_ok, t_ok, 2, scratch,
                                           outs));
  try {
    table.nearest_mats_block(queries, ks_bad, t_ok, 2, scratch, outs);
    FAIL() << "k = 0 on lane 1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("k"), std::string::npos);
  }
  try {
    table.nearest_mats_block(queries, ks_ok, t_bad, 2, scratch, outs);
    FAIL() << "threshold -1 on lane 1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("distance_threshold"),
              std::string::npos);
  }
  EXPECT_THROW(table.nearest_mats_block(queries, ks_ok, t_ok, 0, scratch,
                                        outs),
               std::invalid_argument);
  EXPECT_THROW(table.nearest_mats_block(queries, ks_ok, t_ok,
                                        kMaxQueryBlock + 1, scratch, outs),
               std::invalid_argument);
}

TEST(ApproxNearest, RequestDefaultsResolveFromEngineOptions) {
  const Trace trace = generate_trace(nearest_spec(1, 61));
  TcamTable table(nearest_config(1, true));
  const auto ids = load_rules(table, trace);
  EngineOptions opts;
  opts.k = 3;
  opts.distance_threshold = 2;
  SearchEngine eng(table, opts);
  // Request::k = 0 / threshold = -1 mean "use the engine defaults".
  const BatchResult res =
      eng.execute({make_search_nearest(trace.queries[0])});
  const auto want =
      brute_force_nearest(trace, ids, trace.queries[0], 1, 3, 2);
  ASSERT_EQ(res.results.size(), 1u);
  ASSERT_EQ(res.results[0].neighbors.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(res.results[0].neighbors[i].entry, want[i].entry);
  }
}

TEST(ApproxNearest, OptionValidationNamesTheParameter) {
  const Trace trace = generate_trace(nearest_spec(1, 67));
  TcamTable table(nearest_config(1, true));
  load_rules(table, trace);
  {
    EngineOptions opts;
    opts.k = 0;
    try {
      SearchEngine eng(table, opts);
      FAIL() << "EngineOptions.k = 0 must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("EngineOptions.k"),
                std::string::npos)
          << e.what();
    }
  }
  {
    EngineOptions opts;
    opts.distance_threshold = -1;
    try {
      SearchEngine eng(table, opts);
      FAIL() << "EngineOptions.distance_threshold = -1 must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(
          std::string(e.what()).find("EngineOptions.distance_threshold"),
          std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(table.search_nearest(trace.queries[0], 0, 0),
               std::invalid_argument);
  EXPECT_THROW(table.search_nearest(trace.queries[0], 1, -1),
               std::invalid_argument);
  // TableConfig::digit_bits validation names the field and the reason.
  {
    TableConfig cfg = nearest_config(1, true);
    cfg.digit_bits = 4;
    try {
      TcamTable bad(cfg);
      FAIL() << "digit_bits = 4 must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("TableConfig::digit_bits"),
                std::string::npos)
          << e.what();
    }
  }
  {
    TableConfig cfg = nearest_config(1, true);
    cfg.cols = 26;  // even (two-step OK) but not divisible by 3
    cfg.digit_bits = 3;
    try {
      TcamTable bad(cfg);
      FAIL() << "digit_bits that does not divide cols must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("must divide cols"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ApproxNearest, WorkloadRecallGoldenIsPerfect) {
  // The engine's threshold search is an EXACT kNN under the digit metric,
  // so recall against the brute-force reference must be identically 1.0
  // when the threshold covers the planted flip range (0-2 digits).
  const int d = 2;
  const Trace trace = generate_trace(nearest_spec(d, 71));
  TcamTable table(nearest_config(d, true));
  const auto ids = load_rules(table, trace);
  SearchEngine eng(table);
  NearestRunOptions nopts;
  nopts.batch_size = 64;
  nopts.k = 4;
  nopts.threshold = 2;
  nopts.recall_sample = 1000;  // >= queries: score every query
  const NearestRunSummary s =
      run_nearest_trace(eng, table, trace, ids, nopts);
  EXPECT_EQ(s.searches, trace.queries.size());
  EXPECT_GT(s.recall_queries, 0u);
  EXPECT_DOUBLE_EQ(s.recall_at_k, 1.0);
  // Half the queries are planted near-duplicates within 2 flips, so the
  // hit rate can't be degenerate.
  EXPECT_GT(s.hit_rate, 0.3);
  // Winner-distance histogram: threshold + 1 buckets, total = hits.
  ASSERT_EQ(s.distance_histogram.size(),
            static_cast<std::size_t>(nopts.threshold) + 1);
  std::uint64_t total = 0;
  for (const std::uint64_t n : s.distance_histogram) total += n;
  EXPECT_EQ(total, s.hits);
  // Single-step accounting burns energy on every row of every mat:
  // threshold search must cost strictly more than nothing.
  EXPECT_GT(s.energy_per_search_j, 0.0);
}

// ---- wire layer ----------------------------------------------------------

TableConfig wire_config() {
  TableConfig cfg;
  cfg.mats = 4;
  cfg.rows_per_mat = 32;
  cfg.cols = 16;
  cfg.subarrays_per_mat = 4;
  cfg.digit_bits = 2;
  return cfg;
}

TraceSpec wire_spec() {
  TraceSpec spec;
  spec.kind = TraceKind::kEmbedding;
  spec.cols = 16;
  spec.rules = 48;
  spec.queries = 64;
  spec.match_rate = 0.5;
  spec.digit_bits = 2;
  spec.seed = 83;
  return spec;
}

struct NearestService {
  Trace trace;
  TcamTable table;
  SearchEngine engine;
  SearchServer server;

  NearestService()
      : trace(generate_trace(wire_spec())),
        table(wire_config()),
        engine((load_rules(table, trace), table)),
        server(engine, wire_spec().cols, {}) {
    server.start();
  }
  ~NearestService() { server.stop(); }
};

TEST(ApproxNearest, WireRoundTripMatchesDirectEngine) {
  NearestService svc;
  SearchClient client;
  client.connect("127.0.0.1", svc.server.port());
  const int k = 3;
  const int threshold = 2;
  const auto lists = client.search_nearest(svc.trace.queries,
                                           svc.trace.cols, k, threshold);
  ASSERT_EQ(lists.size(), svc.trace.queries.size());
  for (std::size_t q = 0; q < svc.trace.queries.size(); ++q) {
    const NearestMatch want =
        svc.table.search_nearest(svc.trace.queries[q], k, threshold);
    ASSERT_EQ(lists[q].size(), want.top.size()) << "q=" << q;
    for (std::size_t i = 0; i < want.top.size(); ++i) {
      EXPECT_EQ(lists[q][i].entry,
                static_cast<std::int64_t>(want.top[i].entry));
      EXPECT_EQ(lists[q][i].priority, want.top[i].priority);
      EXPECT_EQ(lists[q][i].distance,
                static_cast<std::uint32_t>(want.top[i].distance));
    }
  }
}

TEST(ApproxNearest, UnknownAndResponseOpcodesRejectedUniformly) {
  NearestService svc;
  // Every non-request frame type must die at the same validation point
  // with kBadType — including RESPONSE opcodes a confused client echoes
  // back, and type values no decoder knows.
  const std::uint8_t bad_types[] = {
      0,                                                      // unknown
      static_cast<std::uint8_t>(wire::FrameType::kSearchResult),
      static_cast<std::uint8_t>(wire::FrameType::kError),
      static_cast<std::uint8_t>(wire::FrameType::kStatsResult),
      static_cast<std::uint8_t>(wire::FrameType::kNearestResult),
      42, 255,
  };
  for (const std::uint8_t type : bad_types) {
    SearchClient bad;
    bad.connect("127.0.0.1", svc.server.port());
    std::uint8_t frame[wire::kHeaderSize] = {};
    const std::uint32_t magic = wire::kMagic;
    std::memcpy(frame, &magic, 4);
    frame[4] = wire::kVersion;
    frame[5] = type;
    // payload_len = 0 (bytes 8..11 already zero).
    bad.send_raw(frame, sizeof(frame));
    const SearchClient::Reply reply = bad.recv_reply();
    ASSERT_FALSE(reply.ok) << "type " << static_cast<int>(type);
    EXPECT_EQ(reply.error.code, wire::ErrorCode::kBadType)
        << "type " << static_cast<int>(type);
    // The connection is closed after the reject; a healthy client on a
    // fresh connection is unaffected.
    SearchClient good;
    good.connect("127.0.0.1", svc.server.port());
    const auto lists =
        good.search_nearest({svc.trace.queries[0]}, svc.trace.cols, 1, 0);
    ASSERT_EQ(lists.size(), 1u);
  }
}

TEST(ApproxNearest, NearestBatchDecodeRejectsMalformedPayloads) {
  wire::NearestBatchFrame frame;
  frame.words_per_query = 1;
  frame.k = 4;
  frame.threshold = 1;
  frame.bits = {0x1234, 0x5678};
  std::vector<std::uint8_t> out;
  wire::encode_nearest_batch(out, frame);
  const std::uint8_t* payload = out.data() + wire::kHeaderSize;
  const std::size_t len = out.size() - wire::kHeaderSize;
  ASSERT_TRUE(wire::decode_nearest_batch(payload, len).has_value());

  // Truncated below the fixed fields.
  EXPECT_FALSE(wire::decode_nearest_batch(payload, 15).has_value());
  // Truncated inside the query words.
  EXPECT_FALSE(wire::decode_nearest_batch(payload, len - 1).has_value());

  auto mutate = [&](std::size_t off, std::uint32_t v) {
    std::vector<std::uint8_t> copy(payload, payload + len);
    std::memcpy(copy.data() + off, &v, 4);
    return wire::decode_nearest_batch(copy.data(), copy.size());
  };
  // count * wpq overflow-hardened: a huge count cannot wrap the byte
  // bound.
  EXPECT_FALSE(mutate(0, 0xFFFFFFFFu).has_value());
  // count > 0 with wpq == 0 is meaningless.
  EXPECT_FALSE(mutate(4, 0).has_value());
  // k = 0 and k past the cap both die at decode.
  EXPECT_FALSE(mutate(8, 0).has_value());
  EXPECT_FALSE(
      mutate(8, static_cast<std::uint32_t>(wire::kMaxNearestK) + 1)
          .has_value());
  // A (count, k) combination whose reply could not fit kMaxPayload is
  // rejected at REQUEST decode, before any work is done.
  wire::NearestBatchFrame wide;
  wide.words_per_query = 1;
  wide.k = wire::kMaxNearestK;
  wide.threshold = 0;
  wide.bits.assign(70000, 0);  // 70000 queries x 16KiB replies >> 1MiB
  std::vector<std::uint8_t> wide_out;
  wire::encode_nearest_batch(wide_out, wide);
  EXPECT_FALSE(wire::decode_nearest_batch(
                   wide_out.data() + wire::kHeaderSize,
                   wide_out.size() - wire::kHeaderSize)
                   .has_value());
}

}  // namespace
}  // namespace fetcam::engine
