// Source rule-set representation for the TCAM rule compiler.
//
// A rule set is what a control plane hands the table: classifier / LPM
// rules in LIST ORDER (first match wins among equal priorities), where a
// rule is either a plain ternary word or a ternary head plus an inclusive
// integer RANGE over a trailing field (port / priority ranges — the part
// of real classifiers that does not map 1:1 onto ternary cells and drives
// the expansion factor the compiler reports).
//
// The file format extends the engine trace grammar (engine/workload.*):
//
//   # fetcam rule set v1
//   cols 32
//   range-bits 8                      # trailing range field width (0 = none)
//   rule <ternary[cols]> <priority>   # plain rule
//   rrule <ternary[cols-range_bits]> <lo> <hi> <priority>   # ranged rule
//
// `cols` and `range-bits` may each appear once, before the first rule.
// Priorities: lower wins, same as the engine; list order breaks ties.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/ternary.hpp"
#include "engine/workload.hpp"

namespace fetcam::compiler {

struct RuleSpec {
  /// Ternary match digits: all `cols` digits for a plain rule, the leading
  /// `cols - range_bits` digits for a ranged rule.
  arch::TernaryWord match;
  bool has_range = false;
  std::uint64_t lo = 0;  ///< inclusive; lo > hi = empty rule (matches nothing)
  std::uint64_t hi = 0;
  int priority = 0;
};

struct RuleSet {
  int cols = 0;
  int range_bits = 0;  ///< width of the trailing range field (0 = none)
  std::vector<RuleSpec> rules;
};

/// Bridge from the engine workload formats: every TraceRule becomes a
/// plain (rangeless) RuleSpec in list order.
RuleSet rule_set_from_rules(int cols,
                            const std::vector<engine::TraceRule>& rules);
RuleSet rule_set_from_trace(const engine::Trace& trace);

bool save_rule_set(const RuleSet& rules, const std::string& path);
std::optional<RuleSet> load_rule_set(const std::string& path);

}  // namespace fetcam::compiler
