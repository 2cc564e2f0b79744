#include "compiler/rules.hpp"

#include <fstream>
#include <sstream>

namespace fetcam::compiler {

RuleSet rule_set_from_rules(int cols,
                            const std::vector<engine::TraceRule>& rules) {
  RuleSet out;
  out.cols = cols;
  out.rules.reserve(rules.size());
  for (const auto& r : rules) {
    RuleSpec spec;
    spec.match = r.entry;
    spec.priority = r.priority;
    out.rules.push_back(std::move(spec));
  }
  return out;
}

RuleSet rule_set_from_trace(const engine::Trace& trace) {
  return rule_set_from_rules(trace.cols, trace.rules);
}

bool save_rule_set(const RuleSet& rules, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "# fetcam rule set v1\n";
  f << "cols " << rules.cols << "\n";
  if (rules.range_bits > 0) f << "range-bits " << rules.range_bits << "\n";
  for (const auto& r : rules.rules) {
    if (r.has_range) {
      f << "rrule " << arch::to_string(r.match) << " " << r.lo << " " << r.hi
        << " " << r.priority << "\n";
    } else {
      f << "rule " << arch::to_string(r.match) << " " << r.priority << "\n";
    }
  }
  return f.good();
}

std::optional<RuleSet> load_rule_set(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  RuleSet rules;
  // Header lines come once each and before any rule: a width that changes
  // after rules were checked against it would load a set that
  // compile_rules rejects.
  bool seen_cols = false;
  bool seen_range_bits = false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "cols") {
      if (seen_cols || !rules.rules.empty()) return std::nullopt;
      seen_cols = true;
      if (!(is >> rules.cols) || rules.cols <= 0) return std::nullopt;
    } else if (tag == "range-bits") {
      if (seen_range_bits || !rules.rules.empty()) return std::nullopt;
      seen_range_bits = true;
      if (!(is >> rules.range_bits) || rules.range_bits < 0 ||
          rules.range_bits > 63 || rules.range_bits > rules.cols) {
        return std::nullopt;
      }
    } else if (tag == "rule" || tag == "rrule") {
      const bool ranged = tag == "rrule";
      std::string word;
      RuleSpec spec;
      spec.has_range = ranged;
      if (!(is >> word)) return std::nullopt;
      try {
        spec.match = arch::word_from_string(word);
      } catch (const std::invalid_argument&) {
        return std::nullopt;
      }
      if (ranged && !(is >> spec.lo >> spec.hi)) return std::nullopt;
      if (!(is >> spec.priority)) return std::nullopt;
      const int want = ranged ? rules.cols - rules.range_bits : rules.cols;
      if (static_cast<int>(spec.match.size()) != want) return std::nullopt;
      if (ranged && rules.range_bits == 0) return std::nullopt;
      rules.rules.push_back(std::move(spec));
    } else {
      return std::nullopt;
    }
  }
  if (rules.cols <= 0) return std::nullopt;
  return rules;
}

}  // namespace fetcam::compiler
