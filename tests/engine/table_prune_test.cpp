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

#include <random>
#include <vector>

#include "dense_stats.hpp"
#include "engine/packed_kernel.hpp"
#include "engine/table.hpp"
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

}  // namespace
}  // namespace fetcam::engine
