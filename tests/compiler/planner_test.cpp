// Delta planner + endurance-aware placement: op classification, cost
// accounting against the naive rewrite baseline, and the wear-leveling
// levers (cold-mat inserts, hot-row rewrite spreading, relocation).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "compiler/applier.hpp"
#include "compiler/compile.hpp"
#include "compiler/planner.hpp"
#include "engine/engine.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"

namespace fetcam::compiler {
namespace {

arch::TernaryWord from_string(const std::string& s) {
  return arch::word_from_string(s);
}

engine::TableConfig test_config() {
  engine::TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = 4;
  cfg.rows_per_mat = 16;
  cfg.cols = 8;
  cfg.subarrays_per_mat = 2;
  return cfg;
}

RuleSet plain_rules(const std::vector<std::pair<std::string, int>>& specs) {
  RuleSet rules;
  rules.cols =
      specs.empty() ? 8 : static_cast<int>(specs.front().first.size());
  for (const auto& [word, prio] : specs) {
    RuleSpec r;
    r.match = from_string(word);
    r.priority = prio;
    rules.rules.push_back(std::move(r));
  }
  return rules;
}

/// Compile + plan + apply in one step; returns the new installation.
Installation install(engine::SearchEngine& eng, engine::TcamTable& table,
                     const CompiledRuleSet& compiled,
                     const Installation& current) {
  const UpdatePlan plan = plan_update(current, compiled, table);
  return apply_plan(eng, plan, compiled).installed;
}

/// Heat a row through the engine (the table is engine-owned while one is
/// alive): each full refresh charges a row write.
void heat_row(engine::SearchEngine& eng, engine::EntryId id,
              const arch::TernaryWord& word, int times) {
  for (int i = 0; i < times; ++i) {
    eng.execute({engine::make_update(id, word)});
  }
}

TEST(Planner, InitialInstallIsAllFreshWrites) {
  engine::TcamTable table(test_config());
  const auto compiled = compile_rules(plain_rules({
      {"0000XXXX", 0},
      {"0001XXXX", 1},
      {"1111XXXX", 2},
  }));
  const UpdatePlan plan = plan_update({}, compiled, table);
  EXPECT_EQ(plan.inserts, 3);
  EXPECT_EQ(plan.keeps + plan.rewrites + plan.erases + plan.priority_flips +
                plan.relocations,
            0);
  // Nothing to reuse: the delta plan IS the naive plan.
  EXPECT_EQ(plan.cost.write_phases, plan.cost.naive_write_phases);
  EXPECT_EQ(plan.cost.energy_j, plan.cost.naive_energy_j);
  EXPECT_EQ(plan.shadow_priority_offset, 0) << "empty table needs no shadows";

  engine::SearchEngine eng(table);
  const auto installed = apply_plan(eng, plan, compiled).installed;
  eng.drain();
  ASSERT_EQ(installed.entries.size(), 3u);
  for (std::size_t j = 0; j < installed.entries.size(); ++j) {
    EXPECT_TRUE(table.contains(installed.entries[j].id));
    EXPECT_EQ(table.priority_of(installed.entries[j].id),
              compiled.entries[j].priority);
    EXPECT_EQ(table.entry_word(installed.entries[j].id),
              compiled.entries[j].word);
  }
  EXPECT_EQ(table.write_pulses(), plan.cost.write_phases);
}

TEST(Planner, DeltaPlanReusesRowsAndChargesOnlyTheDelta) {
  engine::TcamTable table(test_config());
  engine::SearchEngine eng(table);
  const auto setA = compile_rules(plain_rules({
      {"0000XXXX", 0},  // kept verbatim
      {"0001XXXX", 1},  // priority changes in B
      {"0010XXXX", 2},  // word tweaked in B (1-digit rewrite)
      {"0011XXXX", 3},  // word replaced in B (paired as a rewrite)
  }));
  const auto installedA = install(eng, table, setA, {});
  eng.drain();
  const auto pulses_a = table.write_pulses();

  const auto setB = compile_rules(plain_rules({
      {"0000XXXX", 0},
      {"0001XXXX", 3},  // moved down the priority ladder
      {"0010XXX1", 2},  // one digit differs
      {"1100XXXX", 4},  // pairs with the replaced row (delta rewrite)
      {"1010XXXX", 5},  // genuinely new: no row left to reuse
  }));
  const UpdatePlan plan = plan_update(installedA, setB, table);
  EXPECT_EQ(plan.keeps, 1);
  EXPECT_EQ(plan.priority_flips, 1);
  EXPECT_EQ(plan.rewrites, 2);
  EXPECT_EQ(plan.inserts, 1);
  EXPECT_EQ(plan.erases, 0);
  EXPECT_LT(plan.cost.write_phases, plan.cost.naive_write_phases)
      << "reuse must beat rewriting the world";
  EXPECT_LT(plan.cost.energy_j, plan.cost.naive_energy_j);
  // Shadows sit above every live priority (A flattened to 0..3).
  EXPECT_EQ(plan.shadow_priority_offset, 4);

  const auto installedB = apply_plan(eng, plan, setB).installed;
  eng.drain();
  // The charged pulses match the plan's projection exactly.
  EXPECT_EQ(table.write_pulses() - pulses_a, plan.cost.write_phases);
  // And the table now serves set B: every installed entry agrees.
  ASSERT_EQ(installedB.entries.size(), setB.entries.size());
  for (std::size_t j = 0; j < installedB.entries.size(); ++j) {
    EXPECT_EQ(table.entry_word(installedB.entries[j].id),
              setB.entries[j].word);
    EXPECT_EQ(table.priority_of(installedB.entries[j].id),
              setB.entries[j].priority);
  }
  EXPECT_EQ(table.size(), setB.entries.size());
  // The kept row really is the same physical entry (no churn).
  EXPECT_EQ(installedB.entries[0].id, installedA.entries[0].id);

  // Shrink to two rules: surviving words are kept, the rest erased
  // (peripheral-only — zero additional pulses).
  const auto pulses_b = table.write_pulses();
  const auto setC = compile_rules(plain_rules({
      {"0000XXXX", 0},
      {"1010XXXX", 1},
  }));
  const UpdatePlan shrink = plan_update(installedB, setC, table);
  EXPECT_EQ(shrink.keeps, 1);  // "0000XXXX" stays at level 0
  EXPECT_EQ(shrink.priority_flips, 1);  // "1010XXXX" climbs to level 1
  EXPECT_EQ(shrink.erases, 3);
  EXPECT_EQ(shrink.inserts + shrink.rewrites, 0);
  EXPECT_EQ(shrink.cost.write_phases, 0);
  apply_plan(eng, shrink, setC);
  eng.drain();
  EXPECT_EQ(table.write_pulses(), pulses_b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(Planner, PriorityOnlyChangeIsPeripheralOnly) {
  engine::TcamTable table(test_config());
  engine::SearchEngine eng(table);
  const auto setA = compile_rules(plain_rules({
      {"0000XXXX", 0},
      {"1111XXXX", 1},
  }));
  const auto installedA = install(eng, table, setA, {});
  eng.drain();
  const auto pulses_a = table.write_pulses();
  const double energy_a = table.total_energy_j();

  // Same words, swapped winning order.
  const auto setB = compile_rules(plain_rules({
      {"1111XXXX", 0},
      {"0000XXXX", 1},
  }));
  const UpdatePlan plan = plan_update(installedA, setB, table);
  EXPECT_EQ(plan.priority_flips, 2);
  EXPECT_EQ(plan.inserts + plan.rewrites + plan.erases, 0);
  EXPECT_EQ(plan.cost.write_phases, 0);
  EXPECT_EQ(plan.cost.energy_j, 0.0);

  apply_plan(eng, plan, setB);
  EXPECT_EQ(table.write_pulses(), pulses_a) << "flips must not pulse";
  arch::BitWord ones;
  for (int i = 0; i < 8; ++i) ones.push_back(1);
  const auto res = eng.execute({engine::make_search(ones)});
  EXPECT_TRUE(res.results[0].hit);
  EXPECT_EQ(res.results[0].priority, 0) << "1111XXXX wins after the flip";
  eng.drain();
  // Only the search's energy was added on top.
  EXPECT_GT(table.total_energy_j(), energy_a);
}

TEST(Planner, ThrowsWhenMakeBeforeBreakLacksSlack) {
  engine::TableConfig cfg = test_config();
  cfg.mats = 1;
  cfg.rows_per_mat = 2;
  engine::TcamTable table(cfg);
  engine::SearchEngine eng(table);
  const auto setA = compile_rules(plain_rules({
      {"0000XXXX", 0},
      {"0001XXXX", 1},
  }));
  const auto installedA = install(eng, table, setA, {});
  eng.drain();
  // Both rows are live and pair with two of B's rules; the third needs a
  // fresh row BEFORE anything can be erased — and there is none.
  const auto setB = compile_rules(plain_rules({
      {"1110XXXX", 0},
      {"1101XXXX", 1},
      {"1011XXXX", 2},
  }));
  EXPECT_THROW(plan_update(installedA, setB, table), std::runtime_error);
}

TEST(Planner, InsertsLandOnTheColdestMat) {
  engine::TcamTable table(test_config());
  engine::SearchEngine eng(table);
  const auto setA = compile_rules(plain_rules({{"0000XXXX", 0}}));
  const auto installedA = install(eng, table, setA, {});
  const auto id = installedA.entries[0].id;
  heat_row(eng, id, setA.entries[0].word, 10);
  eng.drain();
  const auto loc = *table.locate(id);
  ASSERT_GT(table.endurance(loc.mat).total_writes(), 0u);

  const auto setB = compile_rules(plain_rules({
      {"0000XXXX", 0},
      {"1111XXXX", 1},
  }));
  const UpdatePlan plan = plan_update(installedA, setB, table);
  ASSERT_EQ(plan.inserts, 1);
  for (const auto& op : plan.ops) {
    if (op.kind != PlanOpKind::kInsert) continue;
    EXPECT_NE(op.mat, loc.mat) << "insert must avoid the hot mat";
    EXPECT_GE(op.mat, 0);
  }
}

TEST(Planner, HotRowRewriteSpreadsToInsertPlusErase) {
  engine::TcamTable table(test_config());
  engine::SearchEngine eng(table);
  const auto setA = compile_rules(plain_rules({{"0000XXXX", 0}}));
  const auto installedA = install(eng, table, setA, {});
  eng.drain();
  const auto id = installedA.entries[0].id;
  const auto loc = *table.locate(id);

  PlannerOptions popts;
  popts.placement.rewrite_spread_headroom = 8;
  // Below the headroom: a plain in-place rewrite.
  const auto setB = compile_rules(plain_rules({{"0000XXX1", 0}}));
  {
    const UpdatePlan plan = plan_update(installedA, setB, table, popts);
    EXPECT_EQ(plan.rewrites, 1);
    EXPECT_EQ(plan.inserts, 0);
  }
  // Heat the row past the headroom: the planner moves the write instead.
  heat_row(eng, id, setA.entries[0].word, 10);
  eng.drain();
  {
    const UpdatePlan plan = plan_update(installedA, setB, table, popts);
    EXPECT_EQ(plan.rewrites, 0);
    EXPECT_EQ(plan.inserts, 1);
    EXPECT_EQ(plan.erases, 1);
    for (const auto& op : plan.ops) {
      if (op.kind == PlanOpKind::kInsert) EXPECT_NE(op.mat, loc.mat);
    }
    // Not-endurance-aware planning keeps hammering the row in place.
    PlannerOptions off;
    off.placement.endurance_aware = false;
    const UpdatePlan naive = plan_update(installedA, setB, table, off);
    EXPECT_EQ(naive.rewrites, 1);
    EXPECT_EQ(naive.inserts, 0);
  }
}

TEST(Planner, WornKeptRowsRelocate) {
  engine::TcamTable table(test_config());
  engine::SearchEngine eng(table);
  const auto setA = compile_rules(plain_rules({{"0000XXXX", 0}}));
  const auto installedA = install(eng, table, setA, {});
  eng.drain();
  const auto id = installedA.entries[0].id;
  const auto loc = *table.locate(id);
  heat_row(eng, id, setA.entries[0].word, 20);
  eng.drain();

  PlannerOptions popts;
  // DG budget is 1e10; 21 writes / 1e10 must clear the (tuned) threshold.
  popts.placement.relocate_wear_fraction = 1e-9;
  const UpdatePlan plan = plan_update(installedA, setA, table, popts);
  EXPECT_EQ(plan.keeps, 1);
  ASSERT_EQ(plan.relocations, 1);
  for (const auto& op : plan.ops) {
    if (op.kind != PlanOpKind::kRelocate) continue;
    EXPECT_EQ(op.target, id);
    EXPECT_NE(op.mat, loc.mat);
  }
  // Relocation is a real write: the plan prices it.
  EXPECT_GT(plan.cost.write_phases, 0);

  const auto pulses_before = table.write_pulses();
  const auto installedB = apply_plan(eng, plan, setA).installed;
  eng.drain();
  EXPECT_EQ(table.write_pulses() - pulses_before, plan.cost.write_phases);
  EXPECT_EQ(installedB.entries[0].id, id) << "relocation preserves the id";
  EXPECT_NE(table.locate(id)->mat, loc.mat);
}

// Oracle of plan_update's pairing passes, byte-wise: exact reuse bucketed
// by arch::to_string (same-priority row first, else the earliest free
// one), then greedy pairing by digit-by-digit distance (ties: lowest
// installed index).  Returns the installed index paired with each compiled
// entry, -1 when unpaired.
std::vector<int> bytewise_pairing(const Installation& current,
                                  const CompiledRuleSet& next) {
  const auto distance = [](const arch::TernaryWord& a,
                           const arch::TernaryWord& b) {
    int d = 0;
    for (std::size_t c = 0; c < a.size(); ++c) d += a[c] != b[c] ? 1 : 0;
    return d;
  };
  const std::size_t n_cur = current.entries.size();
  const std::size_t n_next = next.entries.size();
  std::vector<bool> claimed(n_cur, false);
  std::vector<int> pair(n_next, -1);
  std::map<std::string, std::vector<std::size_t>> by_word;
  for (std::size_t i = 0; i < n_cur; ++i) {
    by_word[arch::to_string(current.entries[i].word)].push_back(i);
  }
  for (std::size_t j = 0; j < n_next; ++j) {
    const auto it = by_word.find(arch::to_string(next.entries[j].word));
    if (it == by_word.end()) continue;
    int pick = -1;
    for (const std::size_t i : it->second) {
      if (claimed[i]) continue;
      if (pick < 0) pick = static_cast<int>(i);
      if (current.entries[i].priority == next.entries[j].priority) {
        pick = static_cast<int>(i);
        break;
      }
    }
    if (pick < 0) continue;
    claimed[static_cast<std::size_t>(pick)] = true;
    pair[j] = pick;
  }
  for (std::size_t j = 0; j < n_next; ++j) {
    if (pair[j] >= 0) continue;
    int best = -1;
    int best_d = 0;
    for (std::size_t i = 0; i < n_cur; ++i) {
      if (claimed[i]) continue;
      const int d = distance(current.entries[i].word, next.entries[j].word);
      if (best < 0 || d < best_d) {
        best = static_cast<int>(i);
        best_d = d;
      }
    }
    if (best < 0) break;
    claimed[static_cast<std::size_t>(best)] = true;
    pair[j] = best;
  }
  return pair;
}

/// Checks a plan's pairing against bytewise_pairing: every keep / flip /
/// rewrite targets the oracle's partner row, a rewrite's changed_digits is
/// the byte-wise distance, and a rewrite spread to an insert erases the
/// partner row.  Returns the number of (keep + flip, rewrite) ops checked.
std::pair<int, int> expect_oracle_pairing(const Installation& installed,
                                          const CompiledRuleSet& compiled,
                                          const UpdatePlan& plan) {
  const std::vector<int> pair = bytewise_pairing(installed, compiled);
  std::vector<bool> erased(installed.entries.size(), false);
  for (const PlanOp& op : plan.ops) {
    if (op.kind != PlanOpKind::kErase) continue;
    for (std::size_t i = 0; i < installed.entries.size(); ++i) {
      if (installed.entries[i].id == op.target) erased[i] = true;
    }
  }
  int keeps = 0;
  int rewrites = 0;
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOpKind::kErase || op.kind == PlanOpKind::kRelocate) {
      continue;
    }
    const auto j = static_cast<std::size_t>(op.compiled_index);
    if (op.kind == PlanOpKind::kInsert) {
      // A fresh write, or a hot row's rewrite spread to another mat: then
      // the oracle's partner row must be the one erased.
      if (pair[j] >= 0) {
        EXPECT_TRUE(erased[static_cast<std::size_t>(pair[j])]) << "entry " << j;
      }
      continue;
    }
    if (pair[j] < 0) {
      ADD_FAILURE() << "entry " << j << " paired, oracle leaves it unpaired";
      continue;
    }
    const InstalledEntry& partner =
        installed.entries[static_cast<std::size_t>(pair[j])];
    EXPECT_EQ(op.target, partner.id) << "entry " << j;
    const arch::TernaryWord& want = compiled.entries[j].word;
    if (op.kind == PlanOpKind::kRewrite) {
      int d = 0;
      for (std::size_t c = 0; c < want.size(); ++c) {
        d += partner.word[c] != want[c] ? 1 : 0;
      }
      EXPECT_EQ(op.changed_digits, d) << "entry " << j;
      ++rewrites;
    } else {
      EXPECT_EQ(partner.word, want) << "entry " << j;
      ++keeps;
    }
  }
  return {keeps, rewrites};
}

TEST(Planner, PairingMatchesBytewiseOracleUnderChurn) {
  for (const int cols : {64, 100}) {
    SCOPED_TRACE("cols " + std::to_string(cols));
    engine::TraceSpec spec;
    spec.kind = engine::TraceKind::kClassifier;
    spec.cols = cols;
    spec.rules = 192;
    spec.queries = 1;
    spec.seed = 7;
    const engine::Trace trace = engine::generate_trace(spec);
    engine::ChurnSpec churn;
    churn.seed = 7;
    churn.hot_fraction = 0.25;
    churn.hot_modify_rate = 0.9;
    churn.modify_rate = 0.1;
    churn.add_remove_rate = 0.05;
    churn.priority_jitter_rate = 0.05;

    engine::TableConfig cfg;
    cfg.design = arch::TcamDesign::k1p5DgFe;
    cfg.mats = 4;
    cfg.rows_per_mat = 256;
    cfg.cols = cols;
    engine::TcamTable table(cfg);
    engine::SearchEngine eng(table);

    Installation installed;
    std::vector<engine::TraceRule> rules = trace.rules;
    long long rewrites = 0;
    long long keeps = 0;
    for (int step = 0; step <= 20; ++step) {
      if (step > 0) {
        rules = engine::churn_rules(rules, spec.kind, cols, churn, step);
      }
      const CompiledRuleSet compiled =
          compile_rules(rule_set_from_rules(cols, rules));
      SCOPED_TRACE("step " + std::to_string(step));
      const UpdatePlan plan = plan_update(installed, compiled, table);
      const auto [k, r] = expect_oracle_pairing(installed, compiled, plan);
      keeps += k;
      rewrites += r;
      installed = apply_plan(eng, plan, compiled).installed;
    }
    EXPECT_GT(rewrites, 0);
    EXPECT_GT(keeps, 0);
  }
}

TEST(Planner, PairingPrefersSamePriorityDuplicatesLikeOracle) {
  // Compiled sets never repeat a word, but an installation can: exact
  // reuse must then claim the same-priority row, else the earliest one.
  engine::TableConfig cfg = test_config();
  cfg.rows_per_mat = 64;
  engine::TcamTable table(cfg);
  const std::vector<std::string> pool = {"10XX0101", "10XX0100", "XXXXXXXX",
                                         "0000XXXX", "11110000", "1X1X1X1X"};
  std::mt19937_64 rng(5);
  int total_keeps = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Installation installed;
    installed.cols = cfg.cols;
    for (int i = 0; i < 24; ++i) {
      InstalledEntry e;
      e.word = from_string(pool[rng() % pool.size()]);
      e.priority = static_cast<int>(rng() % 4);
      e.id = table.insert(e.word, e.priority);
      ASSERT_NE(e.id, engine::kInvalidEntry);
      installed.entries.push_back(e);
    }
    std::vector<std::pair<std::string, int>> specs;
    for (const auto& w : pool) {
      if (rng() % 3 != 0) specs.emplace_back(w, static_cast<int>(rng() % 6));
    }
    const CompiledRuleSet compiled = compile_rules(plain_rules(specs));
    const UpdatePlan plan = plan_update(installed, compiled, table);
    total_keeps += expect_oracle_pairing(installed, compiled, plan).first;
    for (const auto& e : installed.entries) table.erase(e.id);
  }
  EXPECT_GT(total_keeps, 0);
}

TEST(Planner, RejectsWidthMismatch) {
  engine::TcamTable table(test_config());
  RuleSet narrow;
  narrow.cols = 4;
  RuleSpec r;
  r.match = from_string("10XX");
  narrow.rules = {r};
  const auto compiled = compile_rules(narrow);
  EXPECT_THROW(plan_update({}, compiled, table), std::invalid_argument);
}

}  // namespace
}  // namespace fetcam::compiler
