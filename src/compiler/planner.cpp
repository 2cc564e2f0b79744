#include "compiler/planner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace fetcam::compiler {
namespace {

/// Words of one width packed once into (care, value) lanes
/// (arch::pack_ternary), row-major: word i owns lanes
/// [i * lanes, (i + 1) * lanes).
class PackedWords {
 public:
  PackedWords(int cols, std::size_t words)
      : lanes_(static_cast<std::size_t>(
            arch::ternary_lanes(static_cast<std::size_t>(cols)))),
        cols_(static_cast<std::size_t>(cols)),
        care_(words * lanes_),
        value_(words * lanes_) {}

  void set(std::size_t i, const arch::TernaryWord& word) {
    if (word.size() != cols_) {
      throw std::invalid_argument("entry word width disagrees with cols");
    }
    arch::pack_ternary(word, &care_[i * lanes_], &value_[i * lanes_]);
  }

  bool equal(std::size_t i, const PackedWords& other, std::size_t j) const {
    for (std::size_t w = 0; w < lanes_; ++w) {
      if (care_[i * lanes_ + w] != other.care_[j * lanes_ + w] ||
          value_[i * lanes_ + w] != other.value_[j * lanes_ + w]) {
        return false;
      }
    }
    return true;
  }

  /// Digits that differ ('X' differs from '0' and '1').
  int distance(std::size_t i, const PackedWords& other, std::size_t j) const {
    int d = 0;
    for (std::size_t w = 0; w < lanes_; ++w) {
      d += std::popcount(
          (care_[i * lanes_ + w] ^ other.care_[j * lanes_ + w]) |
          (value_[i * lanes_ + w] ^ other.value_[j * lanes_ + w]));
    }
    return d;
  }

  /// Each lane passes through a full splitmix64 round, so words that
  /// differ in any one digit land on unrelated keys.
  std::uint64_t hash(std::size_t i) const {
    std::uint64_t h = 0;
    for (std::size_t w = 0; w < lanes_; ++w) {
      h = util::SplitMix64(h ^ care_[i * lanes_ + w]).next();
      h = util::SplitMix64(h ^ value_[i * lanes_ + w]).next();
    }
    return h;
  }

 private:
  std::size_t lanes_;
  std::size_t cols_;
  std::vector<std::uint64_t> care_;
  std::vector<std::uint64_t> value_;
};

void add_cost(PlanCost& cost, const engine::WriteCost& wc) {
  cost.write_phases += wc.phases;
  cost.switched_cells += wc.cells;
  cost.energy_j += wc.energy_j;
}

}  // namespace

UpdatePlan plan_update(const Installation& current, const CompiledRuleSet& next,
                       const engine::TcamTable& table,
                       const PlannerOptions& options) {
  if (!current.entries.empty() && current.cols != next.cols) {
    throw std::invalid_argument("installation / compiled rule set width mismatch");
  }
  if (next.cols != table.cols()) {
    throw std::invalid_argument("compiled rule set width disagrees with table");
  }

  UpdatePlan plan;
  Placer placer(table, options.placement);

  const std::size_t n_cur = current.entries.size();
  const std::size_t n_next = next.entries.size();
  std::vector<int> cur_match(n_cur, -1);   // compiled index claimed by entry
  std::vector<int> next_match(n_next, -1);  // installed index claimed

  PackedWords cur_words(next.cols, n_cur);
  for (std::size_t i = 0; i < n_cur; ++i) {
    cur_words.set(i, current.entries[i].word);
  }
  PackedWords next_words(next.cols, n_next);
  for (std::size_t j = 0; j < n_next; ++j) {
    next_words.set(j, next.entries[j].word);
  }

  // Pass 1 — exact word reuse.  Prefer a same-priority row (a pure keep)
  // over one that needs a flip; among equal words, earlier installed
  // entries are claimed first (deterministic).  Installed entries are
  // sorted by (hash of the packed lanes, index); words sharing a hash may
  // differ on a collision, so each candidate is checked for equality.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_word(n_cur);
  for (std::size_t i = 0; i < n_cur; ++i) by_word[i] = {cur_words.hash(i), i};
  std::sort(by_word.begin(), by_word.end());
  for (std::size_t j = 0; j < n_next; ++j) {
    const std::uint64_t h = next_words.hash(j);
    std::size_t pick = n_cur;
    for (auto it = std::lower_bound(by_word.begin(), by_word.end(),
                                    std::pair{h, std::size_t{0}});
         it != by_word.end() && it->first == h; ++it) {
      const std::size_t i = it->second;
      if (cur_match[i] >= 0 || !cur_words.equal(i, next_words, j)) continue;
      if (pick == n_cur) pick = i;
      if (current.entries[i].priority == next.entries[j].priority) {
        pick = i;
        break;
      }
    }
    if (pick == n_cur) continue;
    cur_match[pick] = static_cast<int>(j);
    next_match[j] = static_cast<int>(pick);
  }

  // Pass 2 — pair leftovers greedily by digit distance (ties: lowest
  // installed index) for in-place delta rewrites.  A rewrite of d digits
  // never costs more than a fresh write, and it spares a row.
  std::vector<std::size_t> unpaired;  // installed, ascending index
  for (std::size_t i = 0; i < n_cur; ++i) {
    if (cur_match[i] < 0) unpaired.push_back(i);
  }
  for (std::size_t j = 0; j < n_next && !unpaired.empty(); ++j) {
    if (next_match[j] >= 0) continue;
    std::size_t best = 0;
    int best_d = cur_words.distance(unpaired[0], next_words, j);
    for (std::size_t k = 1; k < unpaired.size(); ++k) {
      const int d = cur_words.distance(unpaired[k], next_words, j);
      if (d < best_d) {
        best = k;
        best_d = d;
      }
    }
    cur_match[unpaired[best]] = static_cast<int>(j);
    next_match[j] = static_cast<int>(unpaired[best]);
    unpaired.erase(unpaired.begin() + static_cast<std::ptrdiff_t>(best));
  }

  // Emit ops for paired entries, with the placer steering wear.
  for (std::size_t j = 0; j < n_next; ++j) {
    if (next_match[j] < 0) continue;
    const auto i = static_cast<std::size_t>(next_match[j]);
    const InstalledEntry& cur = current.entries[i];
    const CompiledEntry& want = next.entries[j];
    PlanOp op;
    op.target = cur.id;
    op.compiled_index = static_cast<int>(j);
    const auto loc = table.locate(cur.id);
    if (!loc.has_value()) {
      throw std::invalid_argument("installation references a dead entry id");
    }
    if (cur_words.equal(i, next_words, j)) {
      op.kind = cur.priority == want.priority ? PlanOpKind::kKeep
                                              : PlanOpKind::kSetPriority;
      if (op.kind == PlanOpKind::kKeep) {
        ++plan.keeps;
      } else {
        ++plan.priority_flips;
      }
      plan.ops.push_back(op);
      if (placer.should_relocate(*loc)) {
        const int mat = placer.place_relocation(*loc);
        if (mat >= 0) {
          PlanOp move;
          move.kind = PlanOpKind::kRelocate;
          move.target = cur.id;
          move.mat = mat;
          plan.ops.push_back(move);
          ++plan.relocations;
          add_cost(plan.cost, table.cost_write(want.word, nullptr));
        }
      }
      continue;
    }
    if (placer.should_spread_rewrite(*loc)) {
      // Hot row: write the new word on a cold mat instead and free the
      // old row (still make-before-break — the insert lands first).
      const int mat = placer.place_insert();
      if (mat >= 0) {
        PlanOp ins;
        ins.kind = PlanOpKind::kInsert;
        ins.compiled_index = static_cast<int>(j);
        ins.mat = mat;
        plan.ops.push_back(ins);
        ++plan.inserts;
        add_cost(plan.cost, table.cost_write(want.word, nullptr));
        PlanOp del;
        del.kind = PlanOpKind::kErase;
        del.target = cur.id;
        plan.ops.push_back(del);
        ++plan.erases;
        continue;
      }
    }
    op.kind = PlanOpKind::kRewrite;
    op.changed_digits = cur_words.distance(i, next_words, j);
    plan.ops.push_back(op);
    ++plan.rewrites;
    add_cost(plan.cost, table.cost_rewrite(want.word, cur.word));
  }

  // Leftover compiled entries are fresh writes; leftover installed rows
  // are erased (peripheral-only, so they add no cost).
  for (std::size_t j = 0; j < n_next; ++j) {
    if (next_match[j] >= 0) continue;
    PlanOp op;
    op.kind = PlanOpKind::kInsert;
    op.compiled_index = static_cast<int>(j);
    op.mat = placer.place_insert();
    if (op.mat == -2) {
      throw std::runtime_error(
          "plan needs more free rows than the table has "
          "(make-before-break requires slack)");
    }
    plan.ops.push_back(op);
    ++plan.inserts;
    add_cost(plan.cost, table.cost_write(next.entries[j].word, nullptr));
  }
  for (std::size_t i = 0; i < n_cur; ++i) {
    if (cur_match[i] >= 0) continue;
    PlanOp op;
    op.kind = PlanOpKind::kErase;
    op.target = current.entries[i].id;
    plan.ops.push_back(op);
    ++plan.erases;
  }

  // Naive baseline: erase everything, program every compiled entry fresh.
  for (const CompiledEntry& e : next.entries) {
    const auto wc = table.cost_write(e.word, nullptr);
    plan.cost.naive_write_phases += wc.phases;
    plan.cost.naive_switched_cells += wc.cells;
    plan.cost.naive_energy_j += wc.energy_j;
  }

  // Shadow band: inserted entries carry final priority + offset until the
  // commit flip, so they outrank nothing that is currently live.
  int max_live = -1;
  for (const InstalledEntry& e : current.entries) {
    max_live = std::max(max_live, e.priority);
  }
  plan.shadow_priority_offset = max_live + 1;
  return plan;
}

}  // namespace fetcam::compiler
