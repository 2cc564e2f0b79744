#include "compiler/compile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fetcam::compiler {

std::vector<arch::TernaryWord> expand_range(std::uint64_t lo, std::uint64_t hi,
                                            int bits) {
  if (bits < 1 || bits > 63) {
    throw std::invalid_argument("range field width must be in [1, 63]");
  }
  const std::uint64_t max = (std::uint64_t{1} << bits) - 1;
  std::vector<arch::TernaryWord> out;
  if (lo > hi || lo > max) return out;
  hi = std::min(hi, max);
  while (lo <= hi) {
    // Largest aligned block starting at lo that stays inside the range:
    // alignment limits it to lowbit(lo) (everything for lo == 0), the
    // remaining span to hi - lo + 1.
    std::uint64_t size =
        lo == 0 ? (std::uint64_t{1} << bits) : (lo & (~lo + 1));
    while (size > hi - lo + 1) size >>= 1;
    const int free_bits = std::countr_zero(size);
    arch::TernaryWord word;
    word.reserve(static_cast<std::size_t>(bits));
    for (int d = 0; d < bits; ++d) {
      const int bit = bits - 1 - d;  // MSB-first
      if (bit < free_bits) {
        word.push_back(arch::Ternary::kX);
      } else {
        word.push_back(((lo >> bit) & 1) != 0 ? arch::Ternary::kOne
                                              : arch::Ternary::kZero);
      }
    }
    out.push_back(std::move(word));
    lo += size;
    if (lo == 0) break;  // wrapped past 2^64 (unreachable for bits <= 63)
  }
  return out;
}

namespace {

/// Lanes where packed `outer` fails to cover packed `inner`: outer cares
/// where inner is 'X', or both care and disagree.  Zero means covered.
inline std::uint64_t cover_miss(std::uint64_t outer_care,
                                std::uint64_t outer_value,
                                std::uint64_t inner_care,
                                std::uint64_t inner_value) {
  return (outer_care & ~inner_care) |
         ((outer_value ^ inner_value) & outer_care);
}

/// Pass-2 survivors, indexed for "lowest-index survivor that covers this
/// word".  Each survivor is filed under the first 8-column chunk it cares
/// on completely, keyed by that chunk's value byte; a survivor with no
/// such chunk goes on the residual list.  Buckets are singly linked in
/// ascending survivor order, so the index never allocates per bucket.
///
/// The index is complete: a coverer cares only where the covered word
/// cares and agrees with it there, so its filing chunk is one the word
/// cares on completely, with the same byte.  A query therefore needs only
/// the residual list plus one bucket per fully cared chunk of the word.
class CoverIndex {
 public:
  explicit CoverIndex(int cols)
      : lanes_(static_cast<std::size_t>(
            arch::ternary_lanes(static_cast<std::size_t>(cols)))),
        chunks_(static_cast<std::size_t>((cols + 7) / 8)),
        last_chunk_mask_(cols % 8 == 0 ? 0xFFu : (1u << (cols % 8)) - 1),
        head_(chunks_ * 256, kNone),
        tail_(chunks_ * 256, kNone) {}

  std::size_t size() const { return next_.size(); }

  void push(const std::uint64_t* care, const std::uint64_t* value) {
    const auto k = static_cast<std::uint32_t>(size());
    care_.insert(care_.end(), care, care + lanes_);
    value_.insert(value_.end(), value, value + lanes_);
    next_.push_back(kNone);
    for (std::size_t q = 0; q < chunks_; ++q) {
      if (chunk_byte(care, q) != chunk_mask(q)) continue;
      const std::size_t b = q * 256 + chunk_byte(value, q);
      if (tail_[b] == kNone) {
        head_[b] = k;
      } else {
        next_[tail_[b]] = k;
      }
      tail_[b] = k;
      return;
    }
    residual_.push_back(k);
  }

  /// Lowest index of a survivor that covers the packed word, or size()
  /// when none does.
  std::size_t first_cover(const std::uint64_t* care,
                          const std::uint64_t* value) const {
    std::size_t best = size();
    for (const std::uint32_t k : residual_) {
      if (covers_word(k, care, value)) {
        best = k;
        break;
      }
    }
    for (std::size_t q = 0; q < chunks_; ++q) {
      if (chunk_byte(care, q) != chunk_mask(q)) continue;
      for (std::uint32_t k = head_[q * 256 + chunk_byte(value, q)];
           k != kNone && k < best; k = next_[k]) {
        if (covers_word(k, care, value)) {
          best = k;
          break;
        }
      }
    }
    return best;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  static unsigned chunk_byte(const std::uint64_t* lanes, std::size_t q) {
    return static_cast<unsigned>(lanes[q / 8] >> (8 * (q % 8))) & 0xFFu;
  }

  /// Columns chunk q spans: all eight but in a partial last chunk.
  unsigned chunk_mask(std::size_t q) const {
    return q + 1 == chunks_ ? last_chunk_mask_ : 0xFFu;
  }

  bool covers_word(std::uint32_t k, const std::uint64_t* care,
                   const std::uint64_t* value) const {
    const std::uint64_t* oc = &care_[k * lanes_];
    const std::uint64_t* ov = &value_[k * lanes_];
    for (std::size_t w = 0; w < lanes_; ++w) {
      if (cover_miss(oc[w], ov[w], care[w], value[w]) != 0) return false;
    }
    return true;
  }

  std::size_t lanes_;
  std::size_t chunks_;
  unsigned last_chunk_mask_;
  std::vector<std::uint32_t> head_;  ///< first survivor per (chunk, byte)
  std::vector<std::uint32_t> tail_;  ///< last survivor per (chunk, byte)
  std::vector<std::uint32_t> next_;  ///< next survivor in the same bucket
  std::vector<std::uint32_t> residual_;  ///< no fully cared chunk
  std::vector<std::uint64_t> care_;   ///< survivor k owns lanes [k*lanes_, ...)
  std::vector<std::uint64_t> value_;
};

}  // namespace

bool covers(const arch::TernaryWord& outer, const arch::TernaryWord& inner) {
  if (outer.size() != inner.size()) return false;
  for (std::size_t c = 0; c < outer.size(); ++c) {
    if (outer[c] == arch::Ternary::kX) continue;
    if (inner[c] != outer[c]) return false;
  }
  return true;
}

CompiledRuleSet compile_rules(const RuleSet& rules) {
  if (rules.cols <= 0) {
    throw std::invalid_argument("rule set needs cols > 0");
  }
  if (rules.range_bits < 0 || rules.range_bits > rules.cols ||
      rules.range_bits > 63) {
    throw std::invalid_argument("range-bits must be in [0, min(cols, 63)]");
  }
  CompiledRuleSet out;
  out.cols = rules.cols;
  out.stats.source_rules = static_cast<int>(rules.rules.size());

  // Pass 1 — expansion into (word, source priority, rule index).
  struct Expanded {
    arch::TernaryWord word;
    int priority = 0;
    int rule = -1;
  };
  std::vector<Expanded> expanded;
  for (std::size_t ri = 0; ri < rules.rules.size(); ++ri) {
    const RuleSpec& spec = rules.rules[ri];
    const int head = rules.cols - (spec.has_range ? rules.range_bits : 0);
    if (static_cast<int>(spec.match.size()) != head) {
      throw std::invalid_argument("rule match width disagrees with cols");
    }
    if (spec.has_range && rules.range_bits == 0) {
      throw std::invalid_argument("ranged rule in a set with range-bits 0");
    }
    if (!spec.has_range) {
      expanded.push_back({spec.match, spec.priority, static_cast<int>(ri)});
      continue;
    }
    const auto suffixes = expand_range(spec.lo, spec.hi, rules.range_bits);
    if (suffixes.empty()) ++out.stats.empty_rules;
    for (const auto& suffix : suffixes) {
      arch::TernaryWord word = spec.match;
      word.insert(word.end(), suffix.begin(), suffix.end());
      expanded.push_back(
          {std::move(word), spec.priority, static_cast<int>(ri)});
    }
  }
  out.stats.expanded_entries = static_cast<long long>(expanded.size());

  // Winning order: ascending (priority, rule index); expansion order within
  // a rule is kept (its entries are disjoint, so it never matters).
  std::stable_sort(expanded.begin(), expanded.end(),
                   [](const Expanded& a, const Expanded& b) {
                     if (a.priority != b.priority) {
                       return a.priority < b.priority;
                     }
                     return a.rule < b.rule;
                   });

  // Pass 2 — drop entries covered by an earlier (winning) survivor.  Each
  // entry is packed once and looked up in the cover index, which returns
  // the FIRST coverer in kept order, so it decides the shadowed /
  // redundant split exactly as a linear scan would.
  const int lanes = arch::ternary_lanes(static_cast<std::size_t>(rules.cols));
  CoverIndex survivors(rules.cols);
  std::vector<std::size_t> kept;  // indices into expanded, in kept order
  kept.reserve(expanded.size());
  std::vector<std::uint64_t> care(static_cast<std::size_t>(lanes));
  std::vector<std::uint64_t> value(static_cast<std::size_t>(lanes));
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    const Expanded& e = expanded[i];
    arch::pack_ternary(e.word, care.data(), value.data());
    const std::size_t k = survivors.first_cover(care.data(), value.data());
    if (k < kept.size()) {
      if (expanded[kept[k]].priority < e.priority) {
        ++out.stats.shadowed_removed;
      } else {
        ++out.stats.redundant_removed;
      }
      continue;
    }
    survivors.push(care.data(), value.data());
    kept.push_back(i);
  }

  // Pass 3 — dense priority per surviving rule, in winning order.
  int next_priority = 0;
  int last_rule = -1;
  out.entries.reserve(kept.size());
  for (const std::size_t i : kept) {
    Expanded& e = expanded[i];
    if (e.rule != last_rule) {
      last_rule = e.rule;
      ++next_priority;
    }
    CompiledEntry ce;
    ce.word = std::move(e.word);
    ce.priority = next_priority - 1;
    ce.source_rule = e.rule;
    out.entries.push_back(std::move(ce));
  }
  out.stats.priority_levels = next_priority;
  out.stats.expansion_factor =
      out.stats.source_rules > 0
          ? static_cast<double>(out.entries.size()) /
                static_cast<double>(out.stats.source_rules)
          : 0.0;
  return out;
}

int reference_winner(const CompiledRuleSet& compiled,
                     const arch::BitWord& key) {
  // Entries are in winning order, so the first match wins.
  for (std::size_t i = 0; i < compiled.entries.size(); ++i) {
    if (arch::word_matches(compiled.entries[i].word, key)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace fetcam::compiler
