// Mat-skip pruning index: incremental-vs-rebuilt aggregate equivalence
// under randomized mutation churn, pruned-vs-unpruned match equality
// (results AND stats, per mat), and blocked-vs-single table matches over
// the same churned states.  These are the properties that let the engine
// skip a mat's row scan without changing one observable bit:
//
//   * after ANY interleaving of insert / erase / update / rewrite_digits /
//     relocate / set_priority, the incrementally maintained MatAggregate
//     equals the one rebuilt from a full shard scan;
//   * a search against a pruning table returns exactly the TableMatch of
//     a non-pruning table — including SearchStats and per-mat stats
//     (a skipped mat counted at the table's skipped stats), because a skip
//     is only taken when its stats are exactly knowable;
//   * so accounting those searches, exact and nearest, leaves the two
//     tables at bit-identical total_energy_j();
//   * a pruning table's match_mats_block over any lane mix equals the
//     non-pruning table's per-lane match.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "dense_stats.hpp"
#include "engine/packed_kernel.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

constexpr std::uint64_t kSeed = 0x9A6BD0C3ul;

TableConfig prune_config(arch::TcamDesign design, bool mat_skip) {
  TableConfig cfg;
  cfg.design = design;
  cfg.mats = 4;
  cfg.rows_per_mat = 16;
  cfg.cols = 16;
  cfg.subarrays_per_mat = 2;
  cfg.mat_skip = mat_skip;
  return cfg;
}

arch::TernaryWord random_word(std::mt19937& rng, int cols,
                              double x_fraction) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> bit(0, 1);
  arch::TernaryWord w;
  for (int c = 0; c < cols; ++c) {
    if (u(rng) < x_fraction) {
      w.push_back(arch::Ternary::kX);
    } else {
      w.push_back(bit(rng) != 0 ? arch::Ternary::kOne : arch::Ternary::kZero);
    }
  }
  return w;
}

arch::BitWord random_query(std::mt19937& rng, int cols) {
  std::uniform_int_distribution<int> bit(0, 1);
  arch::BitWord q;
  for (int c = 0; c < cols; ++c) {
    q.push_back(static_cast<std::uint8_t>(bit(rng)));
  }
  return q;
}

void expect_match_eq(const TcamTable& table, const TableMatch& want,
                     const TableMatch& got, const char* what, int step) {
  ASSERT_EQ(want.hit, got.hit) << what << " step=" << step;
  ASSERT_EQ(want.entry, got.entry) << what << " step=" << step;
  if (want.hit) {
    ASSERT_EQ(want.priority, got.priority) << what << " step=" << step;
  }
  ASSERT_EQ(want.stats.rows, got.stats.rows) << what << " step=" << step;
  ASSERT_EQ(want.stats.step1_misses, got.stats.step1_misses)
      << what << " step=" << step;
  ASSERT_EQ(want.stats.step2_evaluated, got.stats.step2_evaluated)
      << what << " step=" << step;
  ASSERT_EQ(want.stats.matches, got.stats.matches)
      << what << " step=" << step;
  const std::vector<arch::SearchStats> want_mats = dense_per_mat(table, want);
  const std::vector<arch::SearchStats> got_mats = dense_per_mat(table, got);
  for (std::size_t m = 0; m < want_mats.size(); ++m) {
    ASSERT_EQ(want_mats[m].rows, got_mats[m].rows)
        << what << " mat=" << m << " step=" << step;
    ASSERT_EQ(want_mats[m].step1_misses, got_mats[m].step1_misses)
        << what << " mat=" << m << " step=" << step;
    ASSERT_EQ(want_mats[m].step2_evaluated, got_mats[m].step2_evaluated)
        << what << " mat=" << m << " step=" << step;
    ASSERT_EQ(want_mats[m].matches, got_mats[m].matches)
        << what << " mat=" << m << " step=" << step;
  }
}

/// One randomized churn trajectory: every mutation kind against twin
/// tables (pruning on / pruning off), with aggregate-vs-scan and
/// match-equality checks woven through the mutation stream so the
/// properties are pinned at INTERMEDIATE states, not just at the end —
/// the applier's mid-plan states are exactly where a stale aggregate
/// would show.
void run_churn(arch::TcamDesign design, std::uint64_t trial) {
  std::mt19937 rng = util::trial_rng(kSeed, trial);
  const TableConfig pruned_cfg = prune_config(design, true);
  const TableConfig flat_cfg = prune_config(design, false);
  TcamTable pruned(pruned_cfg);
  TcamTable flat(flat_cfg);
  const int cols = pruned_cfg.cols;
  const int capacity = pruned_cfg.mats * pruned_cfg.rows_per_mat;

  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> prio(0, 40);
  std::uniform_int_distribution<int> mat_d(0, pruned_cfg.mats - 1);
  std::vector<EntryId> live;

  auto check_aggregates = [&](int step) {
    for (int m = 0; m < pruned_cfg.mats; ++m) {
      ASSERT_EQ(pruned.aggregate(m), pruned.scan_aggregate(m))
          << "design=" << static_cast<int>(design) << " mat=" << m
          << " step=" << step;
    }
  };
  auto check_matches = [&](int step) {
    // Single-lane equality, then every block size over the same lanes.
    std::vector<arch::BitWord> queries;
    for (int q = 0; q < kMaxQueryBlock; ++q) {
      queries.push_back(random_query(rng, cols));
    }
    MatchScratch scratch;
    std::vector<TableMatch> want(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      flat.match(queries[q], scratch, want[q]);
      TableMatch got;
      pruned.match(queries[q], scratch, got);
      expect_match_eq(pruned, want[q], got, "pruned vs flat", step);
      if (::testing::Test::HasFailure()) return;
      // Charge both: the pruned table pays its skipped mats in closed
      // form, the flat one scans them, and the energies must not differ
      // by one bit.
      pruned.account_search(got);
      flat.account_search(want[q]);
    }
    const int threshold = static_cast<int>(step % 3);
    const NearestMatch near_pruned =
        pruned.search_nearest(queries[0], 2, threshold);
    const NearestMatch near_flat = flat.search_nearest(queries[0], 2, threshold);
    ASSERT_EQ(near_pruned.top.size(), near_flat.top.size()) << "step=" << step;
    for (std::size_t i = 0; i < near_flat.top.size(); ++i) {
      ASSERT_EQ(near_pruned.top[i].entry, near_flat.top[i].entry)
          << "step=" << step;
    }
    ASSERT_EQ(pruned.total_energy_j(), flat.total_energy_j())
        << "mat_skip on vs off, step=" << step;
    ASSERT_EQ(pruned.search_stats().rows_searched(),
              flat.search_stats().rows_searched());
    ASSERT_EQ(pruned.search_stats().step2_evaluations(),
              flat.search_stats().step2_evaluations());
    std::vector<PackedQuery> packed(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      packed[q].repack(queries[q]);
    }
    for (int nq = 1; nq <= kMaxQueryBlock; ++nq) {
      const PackedQuery* qp[kMaxQueryBlock];
      std::vector<TableMatch> got(static_cast<std::size_t>(nq));
      TableMatch* outs[kMaxQueryBlock];
      for (int q = 0; q < nq; ++q) {
        qp[q] = &packed[static_cast<std::size_t>(q)];
        outs[q] = &got[static_cast<std::size_t>(q)];
      }
      pruned.match_mats_block(qp, nq, scratch, outs);
      for (int q = 0; q < nq; ++q) {
        expect_match_eq(pruned, want[static_cast<std::size_t>(q)],
                        got[static_cast<std::size_t>(q)], "blocked", step);
        if (::testing::Test::HasFailure()) return;
      }
    }
  };

  for (int step = 0; step < 160; ++step) {
    const double op = u(rng);
    if (op < 0.35 || live.empty()) {
      if (static_cast<int>(live.size()) < capacity) {
        // Mix of sparse, dense, and fully wildcard rows: all-X rows are
        // the "never prunes" corner (no cared digit can be unanimous).
        const double xf = op < 0.05 ? 1.0 : u(rng);
        const int p = prio(rng);
        const arch::TernaryWord word = random_word(rng, cols, xf);
        // Twin tables share the deterministic allocator, so ids align.
        const EntryId a = pruned.insert(word, p);
        const EntryId b = flat.insert(word, p);
        ASSERT_EQ(a, b);
        live.push_back(a);
      }
    } else {
      std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
      const std::size_t at = pick(rng);
      const EntryId id = live[at];
      if (op < 0.50) {
        pruned.erase(id);
        flat.erase(id);
        live[at] = live.back();
        live.pop_back();
      } else if (op < 0.65) {
        const arch::TernaryWord next = random_word(rng, cols, u(rng));
        pruned.update(id, next);
        flat.update(id, next);
      } else if (op < 0.80) {
        // Delta rewrite; sometimes a no-op word (changed == 0 branch).
        const arch::TernaryWord next = op < 0.68
                                           ? pruned.entry_word(id)
                                           : random_word(rng, cols, u(rng));
        pruned.rewrite_digits(id, next);
        flat.rewrite_digits(id, next);
      } else if (op < 0.90) {
        const int target = mat_d(rng);
        const bool a = pruned.relocate(id, target);
        const bool b = flat.relocate(id, target);
        ASSERT_EQ(a, b);
      } else {
        const int p = prio(rng);
        pruned.set_priority(id, p);
        flat.set_priority(id, p);
      }
    }
    check_aggregates(step);
    if (::testing::Test::HasFailure()) return;
    if (step % 8 == 7) {
      check_matches(step);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(TablePrune, AggregateAndMatchInvariantUnderChurnTwoStep) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    run_churn(arch::TcamDesign::k1p5DgFe, trial);
    if (HasFailure()) return;
  }
}

TEST(TablePrune, AggregateAndMatchInvariantUnderChurnSingleStep) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    run_churn(arch::TcamDesign::k2DgFefet, trial + 100);
    if (HasFailure()) return;
  }
}

TEST(TablePrune, EmptyTableSkipsEveryMat) {
  TcamTable t(prune_config(arch::TcamDesign::k1p5DgFe, true));
  const TableMatch m = t.search(arch::BitWord(16, 0));
  EXPECT_FALSE(m.hit);
  EXPECT_EQ(m.stats.rows, 4 * 16);
  EXPECT_EQ(m.stats.step1_misses, 4 * 16);  // empty mats die in step 1
  EXPECT_EQ(m.stats.step2_evaluated, 0);
  EXPECT_EQ(t.mats_considered(), 4);
  EXPECT_EQ(t.mats_skipped(), 4);
}

TEST(TablePrune, UnanimousColumnPrunesAndAllXNeverDoes) {
  TcamTable t(prune_config(arch::TcamDesign::k1p5DgFe, true));
  // Mat 0 (emptiest-first allocator): every row cares-and-requires 1 at
  // column 0.
  arch::TernaryWord req1(16, arch::Ternary::kX);
  req1[0] = arch::Ternary::kOne;
  const EntryId id = t.insert(req1, 3);
  const long long base = t.mats_skipped();

  arch::BitWord miss_q(16, 0);  // bit 0 = 0: provably matchless in mat 0
  const TableMatch miss = t.search(miss_q);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(t.mats_skipped(), base + 4);  // mat 0 pruned + 3 empty mats

  arch::BitWord hit_q(16, 0);
  hit_q[0] = 1;
  const TableMatch hit = t.search(hit_q);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.entry, id);

  // An all-X row dissolves the unanimity: no column has every valid row
  // caring, so the aggregate masks go empty and nothing prunes —
  // a wildcard row matches every query, and the skip test must know it.
  const arch::TernaryWord all_x(16, arch::Ternary::kX);
  t.insert(all_x, 9, /*mat=*/0);
  const long long before = t.mats_skipped();
  const TableMatch after = t.search(miss_q);
  EXPECT_TRUE(after.hit);
  EXPECT_EQ(t.mats_skipped(), before + 3);  // only the 3 empty mats skip
}

TEST(TablePrune, MatSkipOffNeverSkips) {
  TcamTable t(prune_config(arch::TcamDesign::k1p5DgFe, false));
  t.search(arch::BitWord(16, 0));
  EXPECT_EQ(t.mats_considered(), 4);
  EXPECT_EQ(t.mats_skipped(), 0);
}

TEST(TablePrune, AggregateOverlapPrefersAlignedMat) {
  TcamTable t(prune_config(arch::TcamDesign::k1p5DgFe, true));
  arch::TernaryWord ones(16, arch::Ternary::kOne);
  arch::TernaryWord zeros(16, arch::Ternary::kZero);
  t.insert(ones, 1, /*mat=*/0);
  t.insert(zeros, 1, /*mat=*/1);
  // A word equal to the mat-0 population preserves all 16 unanimous
  // digits there and none of mat 1's.
  EXPECT_EQ(t.aggregate_overlap(0, ones), 16);
  EXPECT_EQ(t.aggregate_overlap(1, ones), 0);
  // Empty mats price a word by its cared-digit count (the aggregate the
  // insert would create).
  arch::TernaryWord sparse(16, arch::Ternary::kX);
  sparse[2] = arch::Ternary::kOne;
  EXPECT_EQ(t.aggregate_overlap(2, sparse), 1);
}

/// The column walk aggregate_overlap replaced: one digit at a time
/// against the aggregate's mask bits.
int column_walk_overlap(const MatAggregate& ag, const arch::TernaryWord& word) {
  if (ag.valid_rows == 0) {
    int cared = 0;
    for (const arch::Ternary t : word) {
      if (t != arch::Ternary::kX) ++cared;
    }
    return cared;
  }
  int overlap = 0;
  for (std::size_t c = 0; c < word.size(); ++c) {
    const std::uint64_t bit = 1ULL << (c & 63);
    const std::size_t w = c >> 6;
    if ((ag.require_one[w] & bit) != 0 && word[c] == arch::Ternary::kOne) {
      ++overlap;
    } else if ((ag.require_zero[w] & bit) != 0 &&
               word[c] == arch::Ternary::kZero) {
      ++overlap;
    }
  }
  return overlap;
}

/// `base` with each digit redrawn at probability `p` (so mats filled from
/// one base keep many unanimous columns).
arch::TernaryWord near_word(std::mt19937& rng, const arch::TernaryWord& base,
                            double p) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  arch::TernaryWord w = base;
  for (arch::Ternary& t : w) {
    if (u(rng) < p) t = static_cast<arch::Ternary>(rng() % 3);
  }
  return w;
}

TEST(TablePrune, PackedOverlapMatchesColumnWalk) {
  for (const int cols : {2, 64, 66, 130}) {
    for (const int digit_bits : {1, 2}) {
      SCOPED_TRACE("cols " + std::to_string(cols) + " digit_bits " +
                   std::to_string(digit_bits));
      std::mt19937 rng = util::trial_rng(
          kSeed, static_cast<std::uint64_t>(cols * 4 + digit_bits));
      TableConfig cfg = prune_config(arch::TcamDesign::k1p5DgFe, true);
      cfg.cols = cols;
      cfg.digit_bits = digit_bits;
      TcamTable t(cfg);
      const std::size_t lanes =
          static_cast<std::size_t>(arch::ternary_lanes(
              static_cast<std::size_t>(cols)));
      std::vector<std::uint64_t> care(lanes);
      std::vector<std::uint64_t> value(lanes);
      std::vector<arch::TernaryWord> bases;
      for (int m = 0; m < cfg.mats; ++m) {
        bases.push_back(random_word(rng, cols, 0.2));
      }
      const auto check = [&](const char* state) {
        for (int m = 0; m < cfg.mats; ++m) {
          ASSERT_EQ(t.aggregate(m), t.scan_aggregate(m)) << state;
          for (int probe = 0; probe < 24; ++probe) {
            // Probes near the mat's base overlap it; the rest are noise.
            const arch::TernaryWord word =
                probe % 2 == 0
                    ? near_word(rng, bases[static_cast<std::size_t>(m)], 0.2)
                    : random_word(rng, cols, 0.3 * (probe % 4));
            const int want = column_walk_overlap(t.aggregate(m), word);
            arch::pack_ternary(word, care.data(), value.data());
            ASSERT_EQ(t.aggregate_overlap(m, care.data(), value.data()), want)
                << state << " mat " << m << " probe " << probe;
            ASSERT_EQ(t.aggregate_overlap(m, word), want)
                << state << " mat " << m << " probe " << probe;
          }
        }
      };
      check("empty");
      if (HasFailure()) return;

      // Mat 0 stays empty; mats 1..3 fill partly, each from its base.
      std::vector<std::vector<EntryId>> ids(
          static_cast<std::size_t>(cfg.mats));
      for (int m = 1; m < cfg.mats; ++m) {
        for (int r = 0; r < 3 * m; ++r) {
          const arch::TernaryWord w =
              near_word(rng, bases[static_cast<std::size_t>(m)], 0.05);
          ids[static_cast<std::size_t>(m)].push_back(t.insert(w, r, m));
        }
      }
      check("partly filled");
      if (HasFailure()) return;

      // Churn: rewrites and updates on mats 2 and 3, then empty mat 3
      // entirely and half of mat 1.
      for (int m = 2; m < cfg.mats; ++m) {
        for (const EntryId id : ids[static_cast<std::size_t>(m)]) {
          const arch::TernaryWord w =
              near_word(rng, bases[static_cast<std::size_t>(m)], 0.1);
          if (id % 2 == 0) {
            t.rewrite_digits(id, w);
          } else {
            t.update(id, w);
          }
        }
      }
      for (const EntryId id : ids[3]) t.erase(id);
      for (std::size_t i = 0; i < ids[1].size(); i += 2) t.erase(ids[1][i]);
      check("after churn");
      if (HasFailure()) return;
    }
  }
}

/// FNV-1a over a stream of integers: a compact pin for placements and
/// per-row wear that any single moved value changes.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
};

/// What a load (then a churn) leaves behind, beyond the aggregates.
struct LoadPin {
  std::uint64_t locations = 0;  ///< every entry's (mat, row, subarray)
  std::uint64_t wear = 0;       ///< every mat's per-row write counts
  double energy_j = 0.0;
  long long pulses = 0;
};

LoadPin pin_table(const TcamTable& t, const std::vector<EntryId>& ids) {
  Digest where;
  for (const EntryId id : ids) {
    const auto loc = t.locate(id);
    where.add(loc ? static_cast<std::uint64_t>(loc->mat) : ~0ULL);
    where.add(loc ? static_cast<std::uint64_t>(loc->row) : ~0ULL);
    where.add(loc ? static_cast<std::uint64_t>(loc->subarray) : ~0ULL);
  }
  Digest wear;
  for (int m = 0; m < t.mats(); ++m) {
    for (int r = 0; r < t.config().rows_per_mat; ++r) {
      wear.add(t.endurance(m).writes(r));
    }
  }
  return {where.h, wear.h, t.total_energy_j(), t.write_pulses()};
}

void expect_pin(const LoadPin& want, const LoadPin& got, const char* when) {
  EXPECT_EQ(want.locations, got.locations) << when << std::hex << " got 0x"
                                           << got.locations;
  EXPECT_EQ(want.wear, got.wear) << when << std::hex << " got 0x" << got.wear;
  EXPECT_EQ(want.energy_j, got.energy_j)
      << when << " got " << std::hexfloat << got.energy_j;
  EXPECT_EQ(want.pulses, got.pulses) << when;
}

TEST(TablePrune, ClusteredLoadKeepsAggregatesAndAccounting) {
  // load_rules_clustered places every rule by aggregate_overlap and every
  // insert folds the word into its mat's pruning index.  The aggregates
  // must equal a rebuild from the shards, and the placements and write
  // accounting (after the load, and after a churn of updates, delta
  // rewrites and erases on top) are pinned to recorded values.
  struct Case {
    const char* name;
    TraceKind kind;
    arch::TcamDesign design;
    int digit_bits;
    int mats;
    int rows_per_mat;
    int rules;
    LoadPin loaded;
    LoadPin churned;
  };
  const Case cases[] = {
      {"ip 1.5DG", TraceKind::kIpPrefix, arch::TcamDesign::k1p5DgFe, 1, 8, 32,
       230,
       {0x8cbf5df9b2bc7d02ULL, 0x6dcbe3e1d112f4a5ULL, 0x1.56b8840eeb4d3p-38,
        690},
       {0x5b20a7cba92456ecULL, 0x3ac7a26673234325ULL, 0x1.dcf879b3e1c6p-38,
        870}},
      {"ip 2DG", TraceKind::kIpPrefix, arch::TcamDesign::k2DgFefet, 1, 8, 32,
       230,
       {0x8cbf5df9b2bc7d02ULL, 0x6dcbe3e1d112f4a5ULL, 0x1.d9e42a528f31p-37,
        230},
       {0x5b20a7cba92456ecULL, 0x3ac7a26673234325ULL, 0x1.1d2bfaffa9fe6p-36,
        302}},
      {"embedding 2-bit", TraceKind::kEmbedding, arch::TcamDesign::k1p5DgFe,
       2, 6, 32, 180,
       {0xe81fd6e8ca6c1b87ULL, 0x3eb5edf04747145ULL, 0x1.905f713ce60b7p-39,
        540},
       {0xa5992fe77f5efb12ULL, 0x86cb5fc5e1ff0f65ULL, 0x1.25e57ee3c239p-38,
        697}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TraceSpec spec;
    spec.kind = c.kind;
    spec.cols = 32;
    spec.digit_bits = c.digit_bits;
    spec.rules = c.rules;
    spec.queries = 1;
    spec.seed = 7;
    const Trace trace = generate_trace(spec);
    TableConfig cfg;
    cfg.design = c.design;
    cfg.mats = c.mats;
    cfg.rows_per_mat = c.rows_per_mat;
    cfg.cols = spec.cols;
    cfg.digit_bits = c.digit_bits;
    TcamTable t(cfg);
    const std::vector<EntryId> ids = load_rules_clustered(t, trace);
    for (int m = 0; m < c.mats; ++m) {
      ASSERT_EQ(t.aggregate(m), t.scan_aggregate(m)) << "mat " << m;
    }
    expect_pin(c.loaded, pin_table(t, ids), "after load");

    std::mt19937 rng = util::trial_rng(kSeed, 77);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 5 == 0) {
        t.update(ids[i], random_word(rng, spec.cols, 0.3));
      } else if (i % 5 == 1) {
        arch::TernaryWord w = t.entry_word(ids[i]);
        w[i % w.size()] = arch::Ternary::kX;
        t.rewrite_digits(ids[i], w);
      } else if (i % 5 == 2) {
        t.rewrite_digits(ids[i], t.entry_word(ids[i]));  // unchanged word
      } else if (i % 11 == 3) {
        t.erase(ids[i]);
      }
    }
    for (int m = 0; m < c.mats; ++m) {
      ASSERT_EQ(t.aggregate(m), t.scan_aggregate(m)) << "mat " << m;
    }
    expect_pin(c.churned, pin_table(t, ids), "after churn");
  }
}

}  // namespace
}  // namespace fetcam::engine
