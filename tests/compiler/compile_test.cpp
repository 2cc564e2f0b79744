// Rule compiler: range-to-ternary expansion (with its edge cases),
// coverage elimination, priority flattening, and rule-set file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "arch/ternary.hpp"
#include "compiler/compile.hpp"
#include "compiler/rules.hpp"
#include "util/rng.hpp"

namespace fetcam::compiler {
namespace {

arch::TernaryWord from_string(const std::string& s) {
  return arch::word_from_string(s);
}

arch::BitWord value_bits(std::uint64_t v, int bits) {
  arch::BitWord q;
  for (int d = bits - 1; d >= 0; --d) {
    q.push_back(static_cast<std::uint8_t>((v >> d) & 1));
  }
  return q;
}

TEST(RangeExpansion, EmptyRangeExpandsToNothing) {
  EXPECT_TRUE(expand_range(5, 4, 8).empty());
  EXPECT_TRUE(expand_range(1, 0, 1).empty());
  // lo beyond the field is empty too (hi clamps, lo cannot).
  EXPECT_TRUE(expand_range(300, 400, 8).empty());
}

TEST(RangeExpansion, FullWidthRangeIsOneAllXEntry) {
  for (const int bits : {1, 4, 8, 16}) {
    const auto v = expand_range(0, (std::uint64_t{1} << bits) - 1, bits);
    ASSERT_EQ(v.size(), 1u) << bits << " bits";
    for (const auto d : v[0]) EXPECT_EQ(d, arch::Ternary::kX);
  }
  // hi past the field clamps to full width.
  const auto clamped = expand_range(0, 9999, 8);
  ASSERT_EQ(clamped.size(), 1u);
  EXPECT_EQ(clamped[0], from_string("XXXXXXXX"));
}

TEST(RangeExpansion, SingleValueIsOneExactEntry) {
  const auto v = expand_range(0xB6, 0xB6, 8);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], from_string("10110110"));
}

TEST(RangeExpansion, PowerOfTwoStraddlingWorstCaseIsTwoWMinusOne) {
  // [1, 2^w - 2] is the classic worst case: no block may cross the top or
  // bottom boundary value, so the cover needs 2(w - 1) entries.
  for (const int bits : {2, 4, 8, 16}) {
    const auto v =
        expand_range(1, (std::uint64_t{1} << bits) - 2, bits);
    EXPECT_EQ(v.size(), static_cast<std::size_t>(2 * (bits - 1)))
        << bits << " bits";
  }
  // A range straddling the half-way power of two splits at the boundary.
  const auto v = expand_range(0x70, 0x8F, 8);  // 112..143 straddles 128
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], from_string("0111XXXX"));  // 112..127
  EXPECT_EQ(v[1], from_string("1000XXXX"));  // 128..143
}

TEST(RangeExpansion, CoverIsExactAndDisjointOnRandomRanges) {
  auto rng = util::trial_rng(7, 0, 0);
  std::uniform_int_distribution<std::uint64_t> pick(0, 255);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t a = pick(rng);
    const std::uint64_t b = pick(rng);
    const std::uint64_t lo = std::min(a, b);
    const std::uint64_t hi = std::max(a, b);
    const auto cover = expand_range(lo, hi, 8);
    for (std::uint64_t v = 0; v < 256; ++v) {
      int matched = 0;
      for (const auto& w : cover) {
        if (arch::word_matches(w, value_bits(v, 8))) ++matched;
      }
      // Exactly one block holds each in-range value (disjointness), none
      // holds an out-of-range one (exactness).
      EXPECT_EQ(matched, lo <= v && v <= hi ? 1 : 0)
          << "[" << lo << "," << hi << "] value " << v;
    }
  }
}

TEST(Covers, DigitwiseContainment) {
  EXPECT_TRUE(covers(from_string("10XX"), from_string("10XX")));
  EXPECT_TRUE(covers(from_string("10XX"), from_string("101X")));
  EXPECT_TRUE(covers(from_string("XXXX"), from_string("1010")));
  EXPECT_FALSE(covers(from_string("101X"), from_string("10XX")));
  EXPECT_FALSE(covers(from_string("10XX"), from_string("11XX")));
  EXPECT_FALSE(covers(from_string("10X"), from_string("10XX")));
}

TEST(CompileRules, ExpandsRangesAndReportsExpansionFactor) {
  RuleSet rules;
  rules.cols = 12;
  rules.range_bits = 8;
  RuleSpec r;
  r.match = from_string("1010");
  r.has_range = true;
  r.lo = 1;
  r.hi = 254;  // worst case: 14 entries
  r.priority = 0;
  rules.rules.push_back(r);
  RuleSpec plain;
  plain.match = from_string("0000XXXXXXXX");
  plain.priority = 1;
  rules.rules.push_back(plain);

  const auto compiled = compile_rules(rules);
  EXPECT_EQ(compiled.stats.source_rules, 2);
  EXPECT_EQ(compiled.stats.expanded_entries, 15);
  EXPECT_EQ(compiled.entries.size(), 15u);
  EXPECT_NEAR(compiled.stats.expansion_factor, 7.5, 1e-12);
  // Every expanded entry keeps the rule head and its source attribution.
  for (std::size_t i = 0; i < 14; ++i) {
    EXPECT_EQ(compiled.entries[i].source_rule, 0);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(compiled.entries[i].word[static_cast<std::size_t>(c)],
                r.match[static_cast<std::size_t>(c)]);
    }
  }
}

TEST(CompileRules, ShadowedAndRedundantEntriesAreRemoved) {
  RuleSet rules;
  rules.cols = 4;
  RuleSpec broad;  // wins everything it covers
  broad.match = from_string("10XX");
  broad.priority = 0;
  RuleSpec shadowed;  // later, worse priority, fully covered
  shadowed.match = from_string("101X");
  shadowed.priority = 5;
  RuleSpec redundant;  // same priority, later in list, fully covered
  redundant.match = from_string("100X");
  redundant.priority = 0;
  RuleSpec survivor;  // not covered
  survivor.match = from_string("11XX");
  survivor.priority = 5;
  rules.rules = {broad, shadowed, redundant, survivor};

  const auto compiled = compile_rules(rules);
  EXPECT_EQ(compiled.stats.shadowed_removed, 1);
  EXPECT_EQ(compiled.stats.redundant_removed, 1);
  ASSERT_EQ(compiled.entries.size(), 2u);
  EXPECT_EQ(compiled.entries[0].word, broad.match);
  EXPECT_EQ(compiled.entries[1].word, survivor.match);
}

TEST(CompileRules, PrioritiesFlattenDensePerRuleInWinningOrder) {
  RuleSet rules;
  rules.cols = 8;
  rules.range_bits = 4;
  RuleSpec a;  // expands to several entries, all one level
  a.match = from_string("1111");
  a.has_range = true;
  a.lo = 1;
  a.hi = 14;
  a.priority = 40;
  RuleSpec b;
  b.match = from_string("0000XXXX");
  b.priority = 7;
  RuleSpec c;
  c.match = from_string("0011XXXX");
  c.priority = 7;  // ties with b; later in list loses
  rules.rules = {a, b, c};

  const auto compiled = compile_rules(rules);
  EXPECT_EQ(compiled.stats.priority_levels, 3);
  // Winning order: b (prio 7, first), c (prio 7), a (prio 40).
  EXPECT_EQ(compiled.entries[0].source_rule, 1);
  EXPECT_EQ(compiled.entries[0].priority, 0);
  EXPECT_EQ(compiled.entries[1].source_rule, 2);
  EXPECT_EQ(compiled.entries[1].priority, 1);
  for (std::size_t i = 2; i < compiled.entries.size(); ++i) {
    EXPECT_EQ(compiled.entries[i].source_rule, 0);
    EXPECT_EQ(compiled.entries[i].priority, 2);
  }
  // reference_winner respects the same order.
  EXPECT_EQ(reference_winner(compiled, value_bits(0x0F, 8)), 0);
  EXPECT_EQ(reference_winner(compiled, value_bits(0x35, 8)), 1);
  EXPECT_EQ(reference_winner(compiled, value_bits(0x55, 8)), -1);
}

TEST(CompileRules, EmptyRangeRuleCompilesToNothing) {
  RuleSet rules;
  rules.cols = 8;
  rules.range_bits = 8;
  RuleSpec r;
  r.has_range = true;
  r.lo = 9;
  r.hi = 3;
  r.priority = 0;
  rules.rules = {r};
  const auto compiled = compile_rules(rules);
  EXPECT_EQ(compiled.stats.empty_rules, 1);
  EXPECT_TRUE(compiled.entries.empty());
  EXPECT_EQ(compiled.stats.priority_levels, 0);
}

TEST(CompileRules, RejectsMalformedInput) {
  RuleSet rules;
  rules.cols = 0;
  EXPECT_THROW(compile_rules(rules), std::invalid_argument);
  rules.cols = 8;
  rules.range_bits = 9;
  EXPECT_THROW(compile_rules(rules), std::invalid_argument);
  rules.range_bits = 4;
  RuleSpec bad;  // plain rule must span all cols
  bad.match = from_string("10XX");
  rules.rules = {bad};
  EXPECT_THROW(compile_rules(rules), std::invalid_argument);
}

// Byte-wise oracle of compile_rules: the same three passes, with pass 2 a
// nested digit-by-digit covers() scan of the survivors in kept order.
CompiledRuleSet bytewise_compile(const RuleSet& rules) {
  struct Expanded {
    arch::TernaryWord word;
    int priority = 0;
    int rule = -1;
  };
  CompiledRuleSet out;
  out.cols = rules.cols;
  out.stats.source_rules = static_cast<int>(rules.rules.size());
  std::vector<Expanded> expanded;
  for (std::size_t ri = 0; ri < rules.rules.size(); ++ri) {
    const RuleSpec& spec = rules.rules[ri];
    if (!spec.has_range) {
      expanded.push_back({spec.match, spec.priority, static_cast<int>(ri)});
      continue;
    }
    const auto suffixes = expand_range(spec.lo, spec.hi, rules.range_bits);
    if (suffixes.empty()) ++out.stats.empty_rules;
    for (const auto& suffix : suffixes) {
      arch::TernaryWord word = spec.match;
      word.insert(word.end(), suffix.begin(), suffix.end());
      expanded.push_back({word, spec.priority, static_cast<int>(ri)});
    }
  }
  out.stats.expanded_entries = static_cast<long long>(expanded.size());
  std::stable_sort(expanded.begin(), expanded.end(),
                   [](const Expanded& a, const Expanded& b) {
                     if (a.priority != b.priority) {
                       return a.priority < b.priority;
                     }
                     return a.rule < b.rule;
                   });
  std::vector<Expanded> kept;
  for (const auto& e : expanded) {
    const Expanded* coverer = nullptr;
    for (const auto& k : kept) {
      if (covers(k.word, e.word)) {
        coverer = &k;
        break;
      }
    }
    if (coverer == nullptr) {
      kept.push_back(e);
    } else if (coverer->priority < e.priority) {
      ++out.stats.shadowed_removed;
    } else {
      ++out.stats.redundant_removed;
    }
  }
  int next_priority = 0;
  int last_rule = -1;
  for (const auto& e : kept) {
    if (e.rule != last_rule) {
      last_rule = e.rule;
      ++next_priority;
    }
    out.entries.push_back({e.word, next_priority - 1, e.rule});
  }
  out.stats.priority_levels = next_priority;
  out.stats.expansion_factor =
      out.stats.source_rules > 0
          ? static_cast<double>(out.entries.size()) /
                static_cast<double>(out.stats.source_rules)
          : 0.0;
  return out;
}

// A random rule set built to nest: every head is a prefix of one of a few
// template words (the rest 'X'), so shorter prefixes cover longer ones
// across lane boundaries; exact duplicates, all-'X' rules and few priority
// levels make both shadowed and redundant removals occur.
RuleSet nesting_rule_set(int cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RuleSet rules;
  rules.cols = cols;
  rules.range_bits = static_cast<int>(rng() % (std::min(cols, 16) + 1));
  std::vector<arch::TernaryWord> templates(3);
  for (auto& t : templates) {
    for (int c = 0; c < cols; ++c) {
      t.push_back(rng() % 2 != 0 ? arch::Ternary::kOne : arch::Ternary::kZero);
    }
  }
  const int n_rules = 150;
  for (int i = 0; i < n_rules; ++i) {
    RuleSpec r;
    r.priority = static_cast<int>(rng() % 4);
    if (i > 0 && rng() % 8 == 0) {
      r = rules.rules[rng() % rules.rules.size()];  // duplicate
      rules.rules.push_back(r);
      continue;
    }
    r.has_range = rules.range_bits > 0 && rng() % 2 == 0;
    const int head = cols - (r.has_range ? rules.range_bits : 0);
    const auto& t = templates[rng() % templates.size()];
    const int fixed = rng() % 10 == 0 ? 0 : static_cast<int>(rng() % (head + 1));
    for (int c = 0; c < head; ++c) {
      r.match.push_back(c < fixed ? t[static_cast<std::size_t>(c)]
                                  : arch::Ternary::kX);
    }
    if (r.has_range) {
      const std::uint64_t span = std::uint64_t{1} << rules.range_bits;
      r.lo = rng() % span;
      r.hi = rng() % 6 == 0 ? span - 1 : rng() % span;  // lo > hi: empty
      if (rng() % 6 == 0) r.lo = 0;
    }
    rules.rules.push_back(std::move(r));
  }
  return rules;
}

TEST(CompileRules, MatchesBytewiseOracleAcrossLaneBoundaries) {
  long long shadowed = 0;
  long long redundant = 0;
  long long empty = 0;
  for (const int cols : {1, 63, 64, 65, 128, 130}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const RuleSet rules = nesting_rule_set(cols, seed * 1000 + cols);
      const CompiledRuleSet want = bytewise_compile(rules);
      const CompiledRuleSet got = compile_rules(rules);
      SCOPED_TRACE("cols " + std::to_string(cols) + " seed " +
                   std::to_string(seed) + " range-bits " +
                   std::to_string(rules.range_bits));
      EXPECT_EQ(got.cols, want.cols);
      ASSERT_EQ(got.entries.size(), want.entries.size());
      for (std::size_t i = 0; i < want.entries.size(); ++i) {
        EXPECT_EQ(got.entries[i].word, want.entries[i].word) << i;
        EXPECT_EQ(got.entries[i].priority, want.entries[i].priority) << i;
        EXPECT_EQ(got.entries[i].source_rule, want.entries[i].source_rule)
            << i;
      }
      EXPECT_EQ(got.stats.source_rules, want.stats.source_rules);
      EXPECT_EQ(got.stats.empty_rules, want.stats.empty_rules);
      EXPECT_EQ(got.stats.expanded_entries, want.stats.expanded_entries);
      EXPECT_EQ(got.stats.shadowed_removed, want.stats.shadowed_removed);
      EXPECT_EQ(got.stats.redundant_removed, want.stats.redundant_removed);
      EXPECT_EQ(got.stats.priority_levels, want.stats.priority_levels);
      EXPECT_EQ(got.stats.expansion_factor, want.stats.expansion_factor);
      shadowed += want.stats.shadowed_removed;
      redundant += want.stats.redundant_removed;
      empty += want.stats.empty_rules;
    }
  }
  // The generator has to exercise every elimination path.
  EXPECT_GT(shadowed, 0);
  EXPECT_GT(redundant, 0);
  EXPECT_GT(empty, 0);
}

TEST(RuleSetIo, SaveLoadRoundTrip) {
  RuleSet rules;
  rules.cols = 12;
  rules.range_bits = 8;
  RuleSpec ranged;
  ranged.match = from_string("10X1");
  ranged.has_range = true;
  ranged.lo = 3;
  ranged.hi = 200;
  ranged.priority = 2;
  RuleSpec plain;
  plain.match = from_string("0000XXXX1111");
  plain.priority = 9;
  rules.rules = {ranged, plain};

  const std::string path = ::testing::TempDir() + "ruleset_roundtrip.txt";
  ASSERT_TRUE(save_rule_set(rules, path));
  const auto loaded = load_rule_set(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cols, 12);
  EXPECT_EQ(loaded->range_bits, 8);
  ASSERT_EQ(loaded->rules.size(), 2u);
  EXPECT_EQ(loaded->rules[0].match, ranged.match);
  EXPECT_TRUE(loaded->rules[0].has_range);
  EXPECT_EQ(loaded->rules[0].lo, 3u);
  EXPECT_EQ(loaded->rules[0].hi, 200u);
  EXPECT_EQ(loaded->rules[0].priority, 2);
  EXPECT_FALSE(loaded->rules[1].has_range);
  EXPECT_EQ(loaded->rules[1].match, plain.match);
  std::remove(path.c_str());
}

TEST(RuleSetIo, LoadRejectsWidthMismatchesAndGarbage) {
  const std::string path = ::testing::TempDir() + "ruleset_bad.txt";
  const auto write = [&](const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(body.c_str(), f);
    std::fclose(f);
  };
  write("cols 8\nrule 10XX 0\n");  // wrong width
  EXPECT_FALSE(load_rule_set(path).has_value());
  write("cols 8\nrrule 10XX 1 5 0\n");  // rrule without range-bits
  EXPECT_FALSE(load_rule_set(path).has_value());
  write("cols 8\nbogus 1\n");
  EXPECT_FALSE(load_rule_set(path).has_value());
  write("rule 10XX 0\n");  // no cols header
  EXPECT_FALSE(load_rule_set(path).has_value());
  write("# comment only\ncols 8\nrange-bits 4\nrrule 10XX 1 5 0\n");
  EXPECT_TRUE(load_rule_set(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fetcam::compiler
