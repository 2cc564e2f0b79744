// Sharded TcamTable: allocation, priority resolution, accounting, and
// golden equivalence of the broadcast match against a flat behavioral
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "arch/behavioral_array.hpp"
#include "arch/write_controller.hpp"
#include "dense_stats.hpp"
#include "engine/table.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

arch::TernaryWord from_string(const std::string& s) {
  arch::TernaryWord w;
  for (const char c : s) {
    w.push_back(c == '1'   ? arch::Ternary::kOne
                : c == '0' ? arch::Ternary::kZero
                           : arch::Ternary::kX);
  }
  return w;
}

arch::BitWord bits(const std::string& s) {
  arch::BitWord q;
  for (const char c : s) q.push_back(c == '1' ? 1 : 0);
  return q;
}

TableConfig small_config() {
  TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = 2;
  cfg.rows_per_mat = 8;
  cfg.cols = 8;
  cfg.subarrays_per_mat = 2;
  return cfg;
}

TEST(TcamTable, ValidatesConfig) {
  TableConfig cfg = small_config();
  cfg.cols = 7;  // two-step design needs an even word
  EXPECT_THROW(TcamTable{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.subarrays_per_mat = 3;  // driver banks pair subarrays
  EXPECT_THROW(TcamTable{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.rows_per_mat = 6;
  cfg.subarrays_per_mat = 4;  // must divide rows
  EXPECT_THROW(TcamTable{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.mats = 0;
  EXPECT_THROW(TcamTable{cfg}, std::invalid_argument);
}

TEST(TcamTable, InsertSpreadsAcrossMatsAndRecyclesSlots) {
  TcamTable t(small_config());
  EXPECT_EQ(t.capacity(), 16u);
  const auto a = t.insert(from_string("0000XXXX"), 1);
  const auto b = t.insert(from_string("1111XXXX"), 2);
  // Emptiest-mat allocation: second insert lands on the other mat.
  ASSERT_TRUE(t.locate(a).has_value());
  ASSERT_TRUE(t.locate(b).has_value());
  EXPECT_EQ(t.locate(a)->mat, 0);
  EXPECT_EQ(t.locate(a)->row, 0);
  EXPECT_EQ(t.locate(b)->mat, 1);
  EXPECT_EQ(t.locate(b)->row, 0);
  EXPECT_EQ(t.size(), 2u);

  t.erase(a);
  EXPECT_FALSE(t.contains(a));
  EXPECT_EQ(t.size(), 1u);
  // The freed slot (mat 0, row 0 — lowest row of the emptiest mat) is
  // reused deterministically.
  const auto c = t.insert(from_string("0101XXXX"), 3);
  EXPECT_EQ(t.locate(c)->mat, 0);
  EXPECT_EQ(t.locate(c)->row, 0);
  EXPECT_NE(c, a);  // ids are never recycled
}

TEST(TcamTable, FullTableReturnsInvalidEntry) {
  TableConfig cfg = small_config();
  cfg.mats = 1;
  cfg.rows_per_mat = 2;
  TcamTable t(cfg);
  EXPECT_NE(t.insert(from_string("0000XXXX"), 0), kInvalidEntry);
  EXPECT_NE(t.insert(from_string("1111XXXX"), 0), kInvalidEntry);
  EXPECT_EQ(t.insert(from_string("01XXXXXX"), 0), kInvalidEntry);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TcamTable, PriorityResolutionLowestWinsTiesToOlder) {
  TcamTable t(small_config());
  const auto broad = t.insert(from_string("1XXXXXXX"), 10);
  const auto narrow = t.insert(from_string("10110000"), 2);
  const auto same_a = t.insert(from_string("1011XXXX"), 5);
  const auto same_b = t.insert(from_string("101100XX"), 5);

  auto m = t.search(bits("10110000"));
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(m.entry, narrow);
  EXPECT_EQ(m.priority, 2);

  t.erase(narrow);
  m = t.search(bits("10110000"));
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(m.entry, same_a) << "tie resolves to the older entry";

  t.erase(same_a);
  t.erase(same_b);
  m = t.search(bits("10110000"));
  EXPECT_EQ(m.entry, broad);

  m = t.search(bits("01110000"));
  EXPECT_FALSE(m.hit);
  EXPECT_EQ(m.entry, kInvalidEntry);
}

TEST(TcamTable, UpdateRewritesInPlaceAndCanChangePriority) {
  TcamTable t(small_config());
  const auto id = t.insert(from_string("0000XXXX"), 4);
  const auto loc = *t.locate(id);
  t.update(id, from_string("1111XXXX"));
  EXPECT_EQ(t.locate(id)->mat, loc.mat);
  EXPECT_EQ(t.locate(id)->row, loc.row);
  EXPECT_EQ(t.priority_of(id), 4);
  EXPECT_FALSE(t.search(bits("00001111")).hit);
  EXPECT_TRUE(t.search(bits("11110000")).hit);

  t.update(id, from_string("1111XXXX"), 7);
  EXPECT_EQ(t.priority_of(id), 7);

  EXPECT_THROW(t.update(kInvalidEntry, from_string("0000XXXX")),
               std::out_of_range);
  t.erase(id);
  EXPECT_THROW(t.update(id, from_string("0000XXXX")), std::out_of_range);
}

TEST(TcamTable, MatchIsPureAndSearchAccounts) {
  TcamTable t(small_config());
  t.insert(from_string("1011XXXX"), 1);
  const double e_writes = t.total_energy_j();
  EXPECT_GT(e_writes, 0.0) << "inserts charge write energy";
  EXPECT_GT(t.write_pulses(), 0);
  EXPECT_EQ(t.last_write_phases(), 3) << "1.5T1Fe writes are three-phase";

  MatchScratch scratch;
  TableMatch m;
  t.match(bits("10110000"), scratch, m);
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(t.total_energy_j(), e_writes) << "match() must not account";
  EXPECT_EQ(t.search_stats().searches(), 0);

  t.account_search(m);
  EXPECT_GT(t.total_energy_j(), e_writes);
  EXPECT_EQ(t.search_stats().searches(), 1);
  // Per-mat stats must cover every mat's rows exactly once.
  const std::vector<arch::SearchStats> per_mat = dense_per_mat(t, m);
  ASSERT_EQ(per_mat.size(), 2u);
  EXPECT_EQ(per_mat[0].rows + per_mat[1].rows, 16);
  EXPECT_EQ(m.stats.rows, 16);
}

TEST(TcamTable, EnduranceTracksPerMatRowWrites) {
  TcamTable t(small_config());
  const auto id = t.insert(from_string("0000XXXX"), 0);
  t.update(id, from_string("1111XXXX"));
  t.update(id, from_string("0101XXXX"));
  const auto loc = *t.locate(id);
  EXPECT_EQ(t.endurance(loc.mat).writes(loc.row), 3u);
  EXPECT_EQ(t.endurance(1 - loc.mat).total_writes(), 0u);
}

TEST(TcamTable, BroadcastMatchesFlatBehavioralReference) {
  // The sharded two-step broadcast must agree with one big TcamArray
  // holding the same entries (match winner AND merged stats).
  TableConfig cfg;
  cfg.mats = 3;
  cfg.rows_per_mat = 16;
  cfg.cols = 12;
  cfg.subarrays_per_mat = 2;
  TcamTable t(cfg);

  auto rng = util::trial_rng(23, 0, 0);
  std::uniform_int_distribution<int> trit(0, 2);
  std::uniform_int_distribution<int> bit(0, 1);
  std::uniform_int_distribution<int> prio(0, 5);

  struct Ref {
    arch::TernaryWord w;
    int priority;
    EntryId id;
  };
  std::vector<Ref> refs;
  for (int i = 0; i < 40; ++i) {
    arch::TernaryWord w;
    for (int c = 0; c < cfg.cols; ++c) {
      const int v = trit(rng);
      w.push_back(v == 0   ? arch::Ternary::kZero
                  : v == 1 ? arch::Ternary::kOne
                           : arch::Ternary::kX);
    }
    const int p = prio(rng);
    refs.push_back({w, p, t.insert(w, p)});
  }

  MatchScratch scratch;
  TableMatch m;
  for (int q = 0; q < 50; ++q) {
    arch::BitWord query;
    for (int c = 0; c < cfg.cols; ++c) {
      query.push_back(static_cast<std::uint8_t>(bit(rng)));
    }
    t.match(query, scratch, m);
    // Reference winner: lowest (priority, id) among matching refs.
    EntryId want = kInvalidEntry;
    int want_p = 0;
    for (const auto& r : refs) {
      if (!arch::word_matches(r.w, query)) continue;
      if (want == kInvalidEntry || r.priority < want_p ||
          (r.priority == want_p && r.id < want)) {
        want = r.id;
        want_p = r.priority;
      }
    }
    EXPECT_EQ(m.hit, want != kInvalidEntry) << "query " << q;
    EXPECT_EQ(m.entry, want) << "query " << q;
    if (want != kInvalidEntry) EXPECT_EQ(m.priority, want_p);
    EXPECT_EQ(m.stats.rows, cfg.mats * cfg.rows_per_mat);
    EXPECT_EQ(m.stats.matches,
              static_cast<int>(std::count_if(
                  refs.begin(), refs.end(), [&](const Ref& r) {
                    return arch::word_matches(r.w, query);
                  })));
  }
}

TEST(TcamTable, TargetedInsertHonorsMatAndRefusesFullMat) {
  TableConfig cfg = small_config();
  cfg.mats = 2;
  cfg.rows_per_mat = 2;
  TcamTable t(cfg);
  const auto a = t.insert(from_string("0000XXXX"), 0, 1);
  const auto b = t.insert(from_string("0001XXXX"), 0, 1);
  EXPECT_EQ(t.locate(a)->mat, 1);
  EXPECT_EQ(t.locate(b)->mat, 1);
  // Mat 1 is full; a targeted insert must NOT silently fall back to mat 0.
  EXPECT_EQ(t.insert(from_string("0010XXXX"), 0, 1), kInvalidEntry);
  EXPECT_EQ(t.free_rows(0), 2u);
  EXPECT_EQ(t.free_rows(1), 0u);
  // mat < 0 keeps the default emptiest-mat policy.
  const auto c = t.insert(from_string("0011XXXX"), 0, -1);
  EXPECT_EQ(t.locate(c)->mat, 0);
  EXPECT_THROW(t.insert(from_string("0100XXXX"), 0, 2), std::out_of_range);
}

TEST(TcamTable, SetPriorityIsPeripheralOnly) {
  TcamTable t(small_config());
  const auto id = t.insert(from_string("1011XXXX"), 5);
  const auto pulses = t.write_pulses();
  const auto energy = t.total_energy_j();
  const auto loc = *t.locate(id);
  const auto row_writes = t.endurance(loc.mat).writes(loc.row);

  t.set_priority(id, 1);
  EXPECT_EQ(t.priority_of(id), 1);
  EXPECT_EQ(t.write_pulses(), pulses) << "priority lives in the resolver";
  EXPECT_EQ(t.total_energy_j(), energy);
  EXPECT_EQ(t.endurance(loc.mat).writes(loc.row), row_writes);
  const auto m = t.search(bits("10110000"));
  EXPECT_EQ(m.priority, 1);
}

TEST(TcamTable, RewriteDigitsChargesOnlyChangedColumns) {
  TcamTable t(small_config());
  const auto id = t.insert(from_string("00001111"), 0);
  const auto pulses = t.write_pulses();
  const auto energy = t.total_energy_j();

  // Unchanged word: zero pulses, zero energy, zero endurance.
  const auto loc = *t.locate(id);
  const auto row_writes = t.endurance(loc.mat).writes(loc.row);
  t.rewrite_digits(id, from_string("00001111"));
  EXPECT_EQ(t.last_write_phases(), 0);
  EXPECT_EQ(t.write_pulses(), pulses);
  EXPECT_EQ(t.total_energy_j(), energy);
  EXPECT_EQ(t.endurance(loc.mat).writes(loc.row), row_writes);

  // One digit flips 1 -> X: the charged pulses/energy must equal the
  // quoted delta cost, stay within a full 3-phase refresh, and leave the
  // stored word right.
  const auto cost = t.cost_rewrite(from_string("0000111X"),
                                   from_string("00001111"));
  t.rewrite_digits(id, from_string("0000111X"));
  EXPECT_EQ(t.write_pulses() - pulses, cost.phases);
  EXPECT_NEAR(t.total_energy_j() - energy, cost.energy_j, 1e-18);
  EXPECT_LE(cost.phases, 3);
  EXPECT_GT(cost.phases, 0);
  EXPECT_TRUE(t.search(bits("00001110")).hit);
  EXPECT_TRUE(t.search(bits("00001111")).hit);
  EXPECT_EQ(t.entry_word(id), from_string("0000111X"));
}

TEST(TcamTable, RelocateChargesDestinationWriteExactlyOnce) {
  // Regression: an early draft charged the write at BOTH the source (via
  // erase bookkeeping) and the destination.  A relocation is one program
  // operation: its energy delta must equal a fresh insert of the same
  // word, and endurance must tick only at the destination row.
  TcamTable t(small_config());
  const auto word = from_string("1010XXXX");
  const auto id = t.insert(word, 3, 0);
  const auto src = *t.locate(id);
  const double energy_before = t.total_energy_j();
  const auto pulses_before = t.write_pulses();
  const auto expect = t.cost_write(word, nullptr);

  ASSERT_TRUE(t.relocate(id, 1));
  const auto dst = *t.locate(id);
  EXPECT_EQ(dst.mat, 1);
  EXPECT_EQ(t.priority_of(id), 3) << "relocation preserves priority";
  EXPECT_EQ(t.entry_word(id), word);

  // Exactly one write's worth of energy and pulses, no double charge.
  EXPECT_NEAR(t.total_energy_j() - energy_before, expect.energy_j, 1e-18);
  EXPECT_EQ(t.write_pulses() - pulses_before, expect.phases);
  EXPECT_EQ(t.endurance(dst.mat).writes(dst.row), 1u);
  EXPECT_EQ(t.endurance(src.mat).writes(src.row), 1u)
      << "source row keeps its insert-time count; vacating is peripheral";
  EXPECT_EQ(t.endurance(src.mat).total_writes(), 1u);

  // The vacated row is free again and the search still resolves to id.
  EXPECT_EQ(t.free_rows(src.mat), 8u);
  const auto m = t.search(bits("10100000"));
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(m.entry, id);

  // A full target mat refuses without side effects.
  TableConfig tiny = small_config();
  tiny.mats = 2;
  tiny.rows_per_mat = 2;
  TcamTable t2(tiny);
  const auto x = t2.insert(word, 0, 0);
  t2.insert(from_string("0001XXXX"), 0, 1);
  t2.insert(from_string("0010XXXX"), 0, 1);
  const double e2 = t2.total_energy_j();
  EXPECT_FALSE(t2.relocate(x, 1));
  EXPECT_EQ(t2.locate(x)->mat, 0);
  EXPECT_EQ(t2.total_energy_j(), e2);
}

TEST(TcamTable, WriteCostCountsMatchTheArchPlanBuilders) {
  // cost_write / cost_rewrite count phases and cells without building the
  // plans; they must agree with the arch builders under the table's
  // charging policy (1.5T1Fe: switching cells; 2FeFET / CMOS: every
  // column for a fresh write, the changed ones for a rewrite).
  std::mt19937_64 rng(99);
  const auto random_word = [&rng](int cols) {
    arch::TernaryWord w;
    for (int c = 0; c < cols; ++c) {
      w.push_back(static_cast<arch::Ternary>(rng() % 3));
    }
    return w;
  };
  const arch::WriteVoltages v;
  for (const auto design :
       {arch::TcamDesign::kCmos16T, arch::TcamDesign::k2SgFefet,
        arch::TcamDesign::k2DgFefet, arch::TcamDesign::k1p5SgFe,
        arch::TcamDesign::k1p5DgFe}) {
    for (const int cols : {2, 8, 64, 66}) {
      TableConfig cfg = small_config();
      cfg.design = design;
      cfg.cols = cols;
      const TcamTable t(cfg);
      const arch::ArrayEnergyModel energy(design, cfg.rows_per_mat, cols);
      SCOPED_TRACE(arch::design_name(design) + " cols " +
                   std::to_string(cols));
      for (int trial = 0; trial < 40; ++trial) {
        const auto next = random_word(cols);
        // Rewrites also see near-identical words (including unchanged).
        arch::TernaryWord prev = trial % 4 == 0 ? next : random_word(cols);
        if (trial % 4 == 1) {
          prev = next;
          prev[rng() % prev.size()] = static_cast<arch::Ternary>(rng() % 3);
        }

        const auto fresh = t.cost_write(next, nullptr);
        const auto over = t.cost_write(next, &prev);
        const auto delta = t.cost_rewrite(next, prev);
        arch::WritePlan fresh_plan;
        arch::WritePlan over_plan;
        arch::WritePlan delta_plan;
        int changed = 0;
        for (int c = 0; c < cols; ++c) {
          const auto k = static_cast<std::size_t>(c);
          changed += next[k] != prev[k] ? 1 : 0;
        }
        if (t.two_step()) {
          fresh_plan = arch::three_step_plan(next, {}, v);
          over_plan = arch::three_step_plan(next, prev, v);
          delta_plan = arch::incremental_three_step_plan(next, prev, v);
        } else {
          fresh_plan = arch::complementary_plan(next, v);
          over_plan = fresh_plan;
          delta_plan = arch::incremental_complementary_plan(next, prev, v);
        }
        const auto expect = [&](const WriteCost& got,
                                const arch::WritePlan& plan, int flat_cells) {
          EXPECT_EQ(got.phases, static_cast<int>(plan.phases.size()));
          const int cells =
              t.two_step() ? plan.total_switching_cells() : flat_cells;
          EXPECT_EQ(got.cells, cells);
          EXPECT_EQ(got.energy_j, energy.projected_write_energy_j(cells));
        };
        expect(fresh, fresh_plan, cols);
        expect(over, over_plan, cols);
        expect(delta, delta_plan, changed);
      }

      // Width mismatches still throw where a plan builder would.
      const auto word = random_word(cols);
      const auto wider = random_word(cols + 1);
      EXPECT_THROW(t.cost_rewrite(word, wider), std::invalid_argument);
      EXPECT_THROW(t.cost_rewrite(wider, word), std::invalid_argument);
      if (t.two_step()) {
        EXPECT_THROW(t.cost_write(word, &wider), std::invalid_argument);
      }
    }
  }
}

TEST(TcamTable, SingleStepDesignUsesFullMatch) {
  TableConfig cfg = small_config();
  cfg.design = arch::TcamDesign::kCmos16T;
  cfg.cols = 7;  // single-step designs may use odd word lengths
  TcamTable t(cfg);
  EXPECT_FALSE(t.two_step());
  t.insert(from_string("1011XXX"), 0);
  const auto m = t.search(bits("1011010"));
  EXPECT_TRUE(m.hit);
  // Single-step accounting: every row evaluates fully.
  EXPECT_EQ(m.stats.step2_evaluated, m.stats.rows);
  EXPECT_EQ(m.stats.step1_misses, 0);
  EXPECT_EQ(t.last_write_phases(), 1) << "complementary write is one phase";
}

}  // namespace
}  // namespace fetcam::engine
