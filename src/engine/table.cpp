#include "engine/table.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "engine/approx_kernel.hpp"

namespace fetcam::engine {

namespace {

// Even (cell1 / step-1) digit positions — digit c sits at bit (c & 63)
// and 64 is even, so global parity equals bit parity (packed_kernel.hpp).
constexpr std::uint64_t kEvenDigits = 0x5555555555555555ULL;

arch::WriteVoltages table_write_voltages(arch::TcamDesign design) {
  switch (design) {
    case arch::TcamDesign::k2SgFefet:
    case arch::TcamDesign::k1p5SgFe:
      return {.vw = 4.0, .vm = 3.39, .vdd = 0.8};
    case arch::TcamDesign::k2DgFefet:
    case arch::TcamDesign::k1p5DgFe:
      return {.vw = 2.0, .vm = 1.66, .vdd = 0.8};
    case arch::TcamDesign::kCmos16T:
      return {.vw = 0.9, .vm = 0.0, .vdd = 0.8};
  }
  return {};
}

}  // namespace

TcamTable::TcamTable(const TableConfig& config)
    : config_(config),
      two_step_(arch::default_op_costs(config.design).two_step),
      write_voltages_(table_write_voltages(config.design)) {
  if (config.mats <= 0 || config.rows_per_mat <= 0 || config.cols <= 0) {
    throw std::invalid_argument("table needs mats, rows_per_mat, cols > 0");
  }
  if (two_step_ && config.cols % 2 != 0) {
    throw std::invalid_argument(
        "two-step design needs an even word length (table is " +
        std::to_string(config.rows_per_mat) + " rows x " +
        std::to_string(config.cols) + " cols per mat)");
  }
  if (config.subarrays_per_mat <= 0 || config.subarrays_per_mat % 2 != 0 ||
      config.rows_per_mat % config.subarrays_per_mat != 0) {
    throw std::invalid_argument(
        "subarrays_per_mat must be even and divide rows_per_mat");
  }
  if (config.digit_bits < 1 || config.digit_bits > 3) {
    throw std::invalid_argument("TableConfig::digit_bits must be in [1, 3]");
  }
  if (config.cols % config.digit_bits != 0) {
    throw std::invalid_argument(
        "TableConfig::digit_bits must divide cols (table is " +
        std::to_string(config.cols) + " cols, digit_bits " +
        std::to_string(config.digit_bits) + ")");
  }
  shards_.reserve(static_cast<std::size_t>(config.mats));
  energy_.reserve(static_cast<std::size_t>(config.mats));
  endurance_.reserve(static_cast<std::size_t>(config.mats));
  free_rows_.resize(static_cast<std::size_t>(config.mats));
  row_entry_.resize(static_cast<std::size_t>(config.mats));
  for (int m = 0; m < config.mats; ++m) {
    shards_.emplace_back(config.rows_per_mat, config.cols);
    energy_.emplace_back(config.design, config.rows_per_mat, config.cols);
    endurance_.emplace_back(config.design, config.rows_per_mat);
    auto& heap = free_rows_[static_cast<std::size_t>(m)];
    heap.reserve(static_cast<std::size_t>(config.rows_per_mat));
    // std::greater heap pops the smallest row first.
    for (int r = config.rows_per_mat - 1; r >= 0; --r) heap.push_back(r);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    row_entry_[static_cast<std::size_t>(m)].assign(
        static_cast<std::size_t>(config.rows_per_mat), kInvalidEntry);
  }
  search_counts_.resize(static_cast<std::size_t>(config.mats));
  aggregates_.resize(static_cast<std::size_t>(config.mats));
  agg_words_ = (static_cast<std::size_t>(config.cols) + 63) / 64;
  for (MatAggregate& ag : aggregates_) {
    ag.require_one.assign(agg_words_, 0);
    ag.require_zero.assign(agg_words_, 0);
    ag.one_count.assign(static_cast<std::size_t>(config.cols), 0);
    ag.zero_count.assign(static_cast<std::size_t>(config.cols), 0);
  }
  skip_masks_.resize(static_cast<std::size_t>(config.mats) *
                     (1 + 2 * agg_words_));
  for (int m = 0; m < config.mats; ++m) refresh_skip_masks(m);
}

std::size_t TcamTable::capacity() const {
  return static_cast<std::size_t>(config_.mats) *
         static_cast<std::size_t>(config_.rows_per_mat);
}

std::size_t TcamTable::checked_mat(int mat) const {
  if (mat < 0 || mat >= config_.mats) {
    throw std::out_of_range("mat out of range");
  }
  return static_cast<std::size_t>(mat);
}

void TcamTable::check_entry(EntryId id) const {
  if (id < 0 || id >= static_cast<EntryId>(slots_.size()) ||
      !slots_[static_cast<std::size_t>(id)].live) {
    throw std::out_of_range("unknown entry id");
  }
}

void TcamTable::write_slot(const Slot& slot, const arch::TernaryWord& entry) {
  auto& shard = shards_[static_cast<std::size_t>(slot.mat)];
  const bool was_valid = shard.valid(slot.row);
  const arch::TernaryWord previous =
      was_valid ? shard.entry(slot.row) : arch::TernaryWord{};
  if (was_valid) aggregate_remove(slot.mat, previous);
  aggregate_add(slot.mat, entry);
  const arch::WritePlan plan =
      two_step_ ? arch::three_step_plan(entry, previous, write_voltages_)
                : arch::complementary_plan(entry, write_voltages_);
  last_write_phases_ = static_cast<int>(plan.phases.size());
  write_pulses_ += last_write_phases_;
  // 2FeFET designs switch every cell regardless of data; the 1.5T1Fe plans
  // charge only switching cells (same policy as TcamController::update).
  const int cells =
      two_step_ ? plan.total_switching_cells() : config_.cols;
  energy_[static_cast<std::size_t>(slot.mat)].on_write(cells);
  endurance_[static_cast<std::size_t>(slot.mat)].on_write(slot.row);
  shard.write(slot.row, entry);
}

EntryId TcamTable::insert(const arch::TernaryWord& entry, int priority) {
  return insert(entry, priority, -1);
}

EntryId TcamTable::insert(const arch::TernaryWord& entry, int priority,
                          int mat) {
  int best = -1;
  if (mat >= 0) {
    // Placer-directed: this mat or nothing (capacity drift must surface).
    checked_mat(mat);
    if (!free_rows_[static_cast<std::size_t>(mat)].empty()) best = mat;
  } else {
    // Emptiest mat, lowest index on ties — deterministic spread.
    std::size_t best_free = 0;
    for (int m = 0; m < config_.mats; ++m) {
      const std::size_t free = free_rows_[static_cast<std::size_t>(m)].size();
      if (free > best_free) {
        best = m;
        best_free = free;
      }
    }
  }
  if (best < 0) return kInvalidEntry;
  auto& heap = free_rows_[static_cast<std::size_t>(best)];
  std::pop_heap(heap.begin(), heap.end(), std::greater<>());
  const int row = heap.back();
  heap.pop_back();

  const EntryId id = static_cast<EntryId>(slots_.size());
  Slot slot;
  slot.mat = best;
  slot.row = row;
  slot.priority = priority;
  slot.live = true;
  write_slot(slot, entry);
  slots_.push_back(slot);
  row_entry_[static_cast<std::size_t>(best)][static_cast<std::size_t>(row)] =
      id;
  ++live_;
  return id;
}

void TcamTable::update(EntryId id, const arch::TernaryWord& entry) {
  check_entry(id);
  write_slot(slots_[static_cast<std::size_t>(id)], entry);
}

void TcamTable::update(EntryId id, const arch::TernaryWord& entry,
                       int priority) {
  check_entry(id);
  slots_[static_cast<std::size_t>(id)].priority = priority;
  write_slot(slots_[static_cast<std::size_t>(id)], entry);
}

void TcamTable::rewrite_digits(EntryId id, const arch::TernaryWord& entry) {
  check_entry(id);
  const Slot& slot = slots_[static_cast<std::size_t>(id)];
  auto& shard = shards_[static_cast<std::size_t>(slot.mat)];
  const arch::TernaryWord previous = shard.entry(slot.row);
  int changed = 0;
  for (std::size_t c = 0; c < entry.size(); ++c) {
    if (entry[c] != previous[c]) ++changed;
  }
  const arch::WritePlan plan =
      two_step_
          ? arch::incremental_three_step_plan(entry, previous, write_voltages_)
          : arch::incremental_complementary_plan(entry, previous,
                                                 write_voltages_);
  last_write_phases_ = static_cast<int>(plan.phases.size());
  write_pulses_ += last_write_phases_;
  if (changed > 0) {
    // Energy: the two-step designs pay the cells that switch polarization;
    // the complementary designs pay the (per-cell-pair) cost of every
    // driven column — here only the changed ones.
    const int cells = two_step_ ? plan.total_switching_cells() : changed;
    energy_[static_cast<std::size_t>(slot.mat)].on_write(cells);
    endurance_[static_cast<std::size_t>(slot.mat)].on_write(slot.row);
    aggregate_remove(slot.mat, previous);
    aggregate_add(slot.mat, entry);
    shard.write(slot.row, entry);
  }
}

void TcamTable::set_priority(EntryId id, int priority) {
  check_entry(id);
  slots_[static_cast<std::size_t>(id)].priority = priority;
}

bool TcamTable::relocate(EntryId id, int target_mat) {
  check_entry(id);
  checked_mat(target_mat);
  auto& heap = free_rows_[static_cast<std::size_t>(target_mat)];
  if (heap.empty()) return false;
  Slot& slot = slots_[static_cast<std::size_t>(id)];
  const int old_mat = slot.mat;
  const int old_row = slot.row;
  const arch::TernaryWord word =
      shards_[static_cast<std::size_t>(old_mat)].entry(old_row);

  std::pop_heap(heap.begin(), heap.end(), std::greater<>());
  const int row = heap.back();
  heap.pop_back();
  slot.mat = target_mat;
  slot.row = row;
  // One write at the destination (erased previous), endurance charged
  // there; vacating the source is peripheral-only, exactly like erase().
  write_slot(slot, word);
  row_entry_[static_cast<std::size_t>(target_mat)]
            [static_cast<std::size_t>(row)] = id;
  aggregate_remove(old_mat, word);
  shards_[static_cast<std::size_t>(old_mat)].erase(old_row);
  row_entry_[static_cast<std::size_t>(old_mat)]
            [static_cast<std::size_t>(old_row)] = kInvalidEntry;
  auto& old_heap = free_rows_[static_cast<std::size_t>(old_mat)];
  old_heap.push_back(old_row);
  std::push_heap(old_heap.begin(), old_heap.end(), std::greater<>());
  return true;
}

void TcamTable::erase(EntryId id) {
  check_entry(id);
  Slot& slot = slots_[static_cast<std::size_t>(id)];
  aggregate_remove(slot.mat,
                   shards_[static_cast<std::size_t>(slot.mat)].entry(slot.row));
  shards_[static_cast<std::size_t>(slot.mat)].erase(slot.row);
  row_entry_[static_cast<std::size_t>(slot.mat)]
            [static_cast<std::size_t>(slot.row)] = kInvalidEntry;
  auto& heap = free_rows_[static_cast<std::size_t>(slot.mat)];
  heap.push_back(slot.row);
  std::push_heap(heap.begin(), heap.end(), std::greater<>());
  slot.live = false;
  --live_;
}

bool TcamTable::contains(EntryId id) const {
  return id >= 0 && id < static_cast<EntryId>(slots_.size()) &&
         slots_[static_cast<std::size_t>(id)].live;
}

std::optional<EntryLocation> TcamTable::locate(EntryId id) const {
  if (!contains(id)) return std::nullopt;
  const Slot& slot = slots_[static_cast<std::size_t>(id)];
  EntryLocation loc;
  loc.mat = slot.mat;
  loc.row = slot.row;
  loc.subarray =
      slot.row / (config_.rows_per_mat / config_.subarrays_per_mat);
  return loc;
}

int TcamTable::priority_of(EntryId id) const {
  check_entry(id);
  return slots_[static_cast<std::size_t>(id)].priority;
}

arch::TernaryWord TcamTable::entry_word(EntryId id) const {
  check_entry(id);
  const Slot& slot = slots_[static_cast<std::size_t>(id)];
  return shards_[static_cast<std::size_t>(slot.mat)].entry(slot.row);
}

std::size_t TcamTable::free_rows(int mat) const {
  return free_rows_[checked_mat(mat)].size();
}

// The cost_* functions count what the arch write plans would drive
// (three_step_plan / complementary_plan and their incremental variants)
// without building the plans: phases issued and cells switched.
WriteCost TcamTable::cost_write(const arch::TernaryWord& next,
                                const arch::TernaryWord* previous) const {
  WriteCost cost;
  if (two_step_) {
    // Erase pulls every non-'0' previous cell to HVT (an absent or empty
    // previous is erased already); program-1 / program-X switch the '1'
    // and 'X' cells of the new word.
    if (previous != nullptr && !previous->empty() &&
        previous->size() != next.size()) {
      throw std::invalid_argument("previous/data width mismatch");
    }
    int cells = 0;
    for (const arch::Ternary t : next) {
      cells += t == arch::Ternary::kOne || t == arch::Ternary::kX ? 1 : 0;
    }
    if (previous != nullptr) {
      for (const arch::Ternary t : *previous) {
        cells += t != arch::Ternary::kZero ? 1 : 0;
      }
    }
    cost.phases = 3;
    // Same charging policy as write_slot: the 1.5T1Fe plans pay switching
    // cells only.
    cost.cells = cells;
  } else {
    // One complementary phase; the 2FeFET designs pay every cell.
    cost.phases = 1;
    cost.cells = config_.cols;
  }
  cost.energy_j = energy_[0].projected_write_energy_j(cost.cells);
  return cost;
}

WriteCost TcamTable::cost_rewrite(const arch::TernaryWord& next,
                                  const arch::TernaryWord& previous) const {
  if (previous.size() != next.size()) {
    throw std::invalid_argument("previous/data width mismatch");
  }
  // Only changed digits are driven: erase where the previous cell sits
  // above HVT, program-1 / program-X where the new digit is '1' / 'X'.
  int changed = 0;
  int erase = 0;
  int program_one = 0;
  int program_x = 0;
  for (std::size_t c = 0; c < next.size(); ++c) {
    if (next[c] == previous[c]) continue;
    ++changed;
    erase += previous[c] != arch::Ternary::kZero ? 1 : 0;
    program_one += next[c] == arch::Ternary::kOne ? 1 : 0;
    program_x += next[c] == arch::Ternary::kX ? 1 : 0;
  }
  WriteCost cost;
  if (two_step_) {
    // Phases that drive no column are omitted.
    cost.phases = (erase > 0 ? 1 : 0) + (program_one > 0 ? 1 : 0) +
                  (program_x > 0 ? 1 : 0);
    cost.cells = erase + program_one + program_x;
  } else {
    // One delta phase when anything changed; pays the changed columns.
    cost.phases = changed > 0 ? 1 : 0;
    cost.cells = changed;
  }
  cost.energy_j = energy_[0].projected_write_energy_j(cost.cells);
  return cost;
}

void TcamTable::aggregate_add(int mat, const arch::TernaryWord& word) {
  MatAggregate& ag = aggregates_[static_cast<std::size_t>(mat)];
  for (std::size_t c = 0; c < word.size(); ++c) {
    if (word[c] == arch::Ternary::kOne) {
      ++ag.one_count[c];
    } else if (word[c] == arch::Ternary::kZero) {
      ++ag.zero_count[c];
    }
  }
  ++ag.valid_rows;
  rebuild_aggregate_masks(ag);
  refresh_skip_masks(mat);
}

void TcamTable::aggregate_remove(int mat, const arch::TernaryWord& word) {
  MatAggregate& ag = aggregates_[static_cast<std::size_t>(mat)];
  for (std::size_t c = 0; c < word.size(); ++c) {
    if (word[c] == arch::Ternary::kOne) {
      --ag.one_count[c];
    } else if (word[c] == arch::Ternary::kZero) {
      --ag.zero_count[c];
    }
  }
  --ag.valid_rows;
  rebuild_aggregate_masks(ag);
  refresh_skip_masks(mat);
}

void TcamTable::rebuild_aggregate_masks(MatAggregate& ag) const {
  std::fill(ag.require_one.begin(), ag.require_one.end(), 0);
  std::fill(ag.require_zero.begin(), ag.require_zero.end(), 0);
  if (ag.valid_rows <= 0) return;  // empty mats skip via valid_rows
  for (int c = 0; c < config_.cols; ++c) {
    const std::uint64_t bit = 1ULL << (c & 63);
    if (ag.one_count[static_cast<std::size_t>(c)] == ag.valid_rows) {
      ag.require_one[static_cast<std::size_t>(c) >> 6] |= bit;
    } else if (ag.zero_count[static_cast<std::size_t>(c)] == ag.valid_rows) {
      ag.require_zero[static_cast<std::size_t>(c) >> 6] |= bit;
    }
  }
}

void TcamTable::refresh_skip_masks(int mat) {
  const MatAggregate& ag = aggregates_[static_cast<std::size_t>(mat)];
  std::uint64_t* row =
      skip_masks_.data() + static_cast<std::size_t>(mat) * (1 + 2 * agg_words_);
  row[0] = ag.valid_rows == 0 ? ~0ULL : 0;  // nothing stored: matchless
  // Two-step designs only accept proofs on even (cell1) columns: a step-1
  // wipeout has exactly-known stats (every row is a step-1 miss), while an
  // odd-column proof would leave step1/step2 accounting unknowable without
  // the scan the skip exists to avoid.
  const std::uint64_t keep = two_step_ ? kEvenDigits : ~0ULL;
  for (std::size_t w = 0; w < agg_words_; ++w) {
    row[1 + w] = ag.require_one[w] & keep;
    row[1 + agg_words_ + w] = ag.require_zero[w] & keep;
  }
}

MatAggregate TcamTable::scan_aggregate(int mat) const {
  const std::size_t m = checked_mat(mat);
  const PackedShard& shard = shards_[m];
  MatAggregate ag;
  ag.require_one.assign(
      (static_cast<std::size_t>(config_.cols) + 63) / 64, 0);
  ag.require_zero.assign(ag.require_one.size(), 0);
  ag.one_count.assign(static_cast<std::size_t>(config_.cols), 0);
  ag.zero_count.assign(static_cast<std::size_t>(config_.cols), 0);
  for (int r = 0; r < config_.rows_per_mat; ++r) {
    if (!shard.valid(r)) continue;
    const arch::TernaryWord word = shard.entry(r);
    for (std::size_t c = 0; c < word.size(); ++c) {
      if (word[c] == arch::Ternary::kOne) {
        ++ag.one_count[c];
      } else if (word[c] == arch::Ternary::kZero) {
        ++ag.zero_count[c];
      }
    }
    ++ag.valid_rows;
  }
  rebuild_aggregate_masks(ag);
  return ag;
}

int TcamTable::aggregate_overlap(int mat, const arch::TernaryWord& word) const {
  const MatAggregate& ag = aggregates_[checked_mat(mat)];
  if (ag.valid_rows == 0) {
    // An empty mat's aggregate becomes exactly the word's cared digits.
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

bool TcamTable::mat_skips(std::size_t mat, const PackedQuery& query) const {
  const std::uint64_t* row = skip_masks_.data() + mat * (1 + 2 * agg_words_);
  const std::uint64_t* require_one = row + 1;
  const std::uint64_t* require_zero = row + 1 + agg_words_;
  std::uint64_t miss = row[0];
  for (std::size_t w = 0; w < agg_words_; ++w) {
    miss |= (require_one[w] & ~query.bits[w]) |
            (require_zero[w] & query.bits[w]);
  }
  return miss != 0;
}

arch::SearchStats TcamTable::skipped_stats() const {
  arch::SearchStats s;
  s.rows = config_.rows_per_mat;
  if (two_step_) {
    s.step1_misses = config_.rows_per_mat;  // every row dies in step 1
  } else {
    s.step2_evaluated = config_.rows_per_mat;  // single-step accounting
  }
  return s;
}

arch::SearchStats TcamTable::nearest_skipped_stats() const {
  arch::SearchStats s;
  s.rows = config_.rows_per_mat;
  s.step2_evaluated = config_.rows_per_mat;
  return s;
}

namespace {

void add_stats(arch::SearchStats& into, const arch::SearchStats& s) {
  into.rows += s.rows;
  into.step1_misses += s.step1_misses;
  into.step2_evaluated += s.step2_evaluated;
  into.matches += s.matches;
}

/// Fold `skips` skipped mats' stats into a lane's merged stats at once:
/// integer sums, so this equals adding them one mat at a time.
void add_skipped(arch::SearchStats& into, const arch::SearchStats& skipped,
                 int skips) {
  into.rows += skips * skipped.rows;
  into.step1_misses += skips * skipped.step1_misses;
  into.step2_evaluated += skips * skipped.step2_evaluated;
  into.matches += skips * skipped.matches;
}

}  // namespace

void TcamTable::scan_hits(std::size_t mat, const std::uint64_t* mask,
                          std::size_t words, TableMatch& out) const {
  const auto& rows = row_entry_[mat];
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      const int r = static_cast<int>(w * 64) + std::countr_zero(bits);
      bits &= bits - 1;
      const EntryId id = rows[static_cast<std::size_t>(r)];
      const int prio = slots_[static_cast<std::size_t>(id)].priority;
      if (!out.hit || prio < out.priority ||
          (prio == out.priority && id < out.entry)) {
        out.hit = true;
        out.entry = id;
        out.priority = prio;
      }
    }
  }
}

void TcamTable::match(const arch::BitWord& query, MatchScratch& scratch,
                      TableMatch& out) const {
  scratch.query.repack(query);
  match_mats(scratch.query, scratch, out);
}

void TcamTable::match_mats(const PackedQuery& query, MatchScratch& scratch,
                           TableMatch& out) const {
  out.hit = false;
  out.entry = kInvalidEntry;
  out.priority = 0;
  out.stats = arch::SearchStats{};
  out.scanned.clear();

  int skipped = 0;
  for (int m = 0; m < config_.mats; ++m) {
    if (config_.mat_skip && mat_skips(static_cast<std::size_t>(m), query)) {
      ++skipped;
      continue;
    }
    const auto& shard = shards_[static_cast<std::size_t>(m)];
    const arch::SearchStats s =
        two_step_ ? shard.two_step_match(query, scratch.mask)
                  : shard.full_match(query, scratch.mask);
    out.scanned.push_back({m, s});
    add_stats(out.stats, s);
    // Priority scan over this shard's hits: lowest (priority, id) wins.
    scan_hits(static_cast<std::size_t>(m), scratch.mask.data(),
              scratch.mask.size(), out);
  }
  add_skipped(out.stats, skipped_stats(), skipped);
  mats_considered_.fetch_add(config_.mats, std::memory_order_relaxed);
  if (skipped != 0) {
    mats_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  }
}

void TcamTable::match_mats_block(const arch::BitWord* const* queries, int nq,
                                 BlockMatchScratch& scratch,
                                 TableMatch* const* outs) const {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("query block size must be in [1, " +
                                std::to_string(kMaxQueryBlock) + "], got " +
                                std::to_string(nq));
  }
  if (scratch.queries.size() < static_cast<std::size_t>(nq)) {
    scratch.queries.resize(static_cast<std::size_t>(nq));
  }
  const PackedQuery* packed[kMaxQueryBlock];
  for (int q = 0; q < nq; ++q) {
    scratch.queries[static_cast<std::size_t>(q)].repack(*queries[q]);
    packed[q] = &scratch.queries[static_cast<std::size_t>(q)];
  }
  match_mats_block(packed, nq, scratch, outs);
}

void TcamTable::match_mats_block(const PackedQuery* const* queries, int nq,
                                 BlockMatchScratch& scratch,
                                 TableMatch* const* outs) const {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("query block size must be in [1, " +
                                std::to_string(kMaxQueryBlock) + "], got " +
                                std::to_string(nq));
  }
  if (scratch.masks.size() < static_cast<std::size_t>(nq)) {
    scratch.masks.resize(static_cast<std::size_t>(nq));
  }
  const std::size_t mask_words = shards_[0].mask_words();
  for (int q = 0; q < nq; ++q) {
    scratch.masks[static_cast<std::size_t>(q)].resize(mask_words);
    TableMatch& out = *outs[q];
    out.hit = false;
    out.entry = kInvalidEntry;
    out.priority = 0;
    out.stats = arch::SearchStats{};
    out.scanned.clear();
  }

  // Per mat: prune per lane, then one blocked kernel pass over the
  // surviving lanes.  Lane results are independent of the sub-block's
  // composition, so a lane sees identical masks and stats whether its
  // neighbors were pruned or not.
  const PackedQuery* kernel_queries[kMaxQueryBlock];
  std::uint64_t* kernel_masks[kMaxQueryBlock];
  arch::SearchStats kernel_stats[kMaxQueryBlock];
  int lane_of[kMaxQueryBlock];
  int skips[kMaxQueryBlock] = {};
  for (int m = 0; m < config_.mats; ++m) {
    int live = 0;
    for (int q = 0; q < nq; ++q) {
      if (config_.mat_skip &&
          mat_skips(static_cast<std::size_t>(m), *queries[q])) {
        ++skips[q];
        continue;
      }
      kernel_queries[live] = queries[q];
      kernel_masks[live] =
          scratch.masks[static_cast<std::size_t>(q)].data();
      lane_of[live] = q;
      ++live;
    }
    if (live == 0) continue;
    const auto& shard = shards_[static_cast<std::size_t>(m)];
    if (two_step_) {
      shard.two_step_match_block(kernel_queries, live, kernel_masks,
                                 kernel_stats);
    } else {
      shard.full_match_block(kernel_queries, live, kernel_masks,
                             kernel_stats);
    }
    for (int j = 0; j < live; ++j) {
      TableMatch& out = *outs[lane_of[j]];
      const arch::SearchStats& s = kernel_stats[j];
      out.scanned.push_back({m, s});
      add_stats(out.stats, s);
      scan_hits(static_cast<std::size_t>(m), kernel_masks[j], mask_words,
                out);
    }
  }
  const arch::SearchStats skipped_mat = skipped_stats();
  long long skipped = 0;
  for (int q = 0; q < nq; ++q) {
    add_skipped(outs[q]->stats, skipped_mat, skips[q]);
    skipped += skips[q];
  }
  mats_considered_.fetch_add(static_cast<long long>(config_.mats) * nq,
                             std::memory_order_relaxed);
  if (skipped != 0) {
    mats_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  }
}

bool TcamTable::nearest_mat_skips(std::size_t mat, const PackedQuery& query,
                                  int threshold) const {
  const MatAggregate& ag = aggregates_[mat];
  if (ag.valid_rows == 0) return true;  // nothing stored: trivially empty
  // Guaranteed-miss columns (every valid row mismatches there), collapsed
  // onto digit groups: the popcount lower-bounds every row's distance, so
  // exceeding the threshold proves the whole mat is beyond it.  No
  // even-column restriction here — approximate accounting is single-step,
  // so a skip never has to reconstruct step-1/step-2 splits.
  int bound = 0;
  const std::size_t words = ag.require_one.size();
  std::uint64_t next =
      (ag.require_one[0] & ~query.bits[0]) |
      (ag.require_zero[0] & query.bits[0]);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t miss = next;
    next = w + 1 < words
               ? (ag.require_one[w + 1] & ~query.bits[w + 1]) |
                     (ag.require_zero[w + 1] & query.bits[w + 1])
               : 0;
    bound += std::popcount(detail::collapse_digits(
        miss, next, static_cast<int>(w), config_.digit_bits));
    if (bound > threshold) return true;
  }
  return false;
}

void TcamTable::nearest_mats(const PackedQuery& query, int k, int threshold,
                             NearestScratch& scratch,
                             NearestMatch& out) const {
  const PackedQuery* queries[1] = {&query};
  NearestMatch* outs[1] = {&out};
  nearest_mats_block(queries, &k, &threshold, 1, scratch, outs);
}

void TcamTable::nearest_mats_block(const PackedQuery* const* queries,
                                   const int* ks, const int* thresholds,
                                   int nq, NearestScratch& scratch,
                                   NearestMatch* const* outs) const {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("query block size must be in [1, " +
                                std::to_string(kMaxQueryBlock) + "], got " +
                                std::to_string(nq));
  }
  for (int q = 0; q < nq; ++q) {
    if (ks[q] < 1) {
      throw std::invalid_argument("k must be >= 1, got " +
                                  std::to_string(ks[q]));
    }
    if (thresholds[q] < 0) {
      throw std::invalid_argument("distance_threshold must be >= 0, got " +
                                  std::to_string(thresholds[q]));
    }
  }
  if (scratch.within.size() < static_cast<std::size_t>(nq)) {
    scratch.within.resize(static_cast<std::size_t>(nq));
    scratch.distances.resize(static_cast<std::size_t>(nq));
  }
  const std::size_t mask_words = shards_[0].mask_words();
  for (int q = 0; q < nq; ++q) {
    // The kernel overwrites both buffers in full, so no fill is needed.
    scratch.within[static_cast<std::size_t>(q)].resize(mask_words);
    scratch.distances[static_cast<std::size_t>(q)].resize(mask_words * 64);
    NearestMatch& out = *outs[q];
    out.top.clear();
    out.stats = arch::SearchStats{};
    out.scanned.clear();
  }

  // Per mat: prune per lane, then one blocked kernel pass over the
  // surviving lanes.  Lane results are independent of the sub-block's
  // composition, so a lane sees identical candidates and stats whether its
  // neighbors were pruned or not.
  const PackedQuery* kernel_queries[kMaxQueryBlock];
  int kernel_thresholds[kMaxQueryBlock];
  std::uint64_t* kernel_within[kMaxQueryBlock];
  std::uint16_t* kernel_distances[kMaxQueryBlock];
  arch::SearchStats kernel_stats[kMaxQueryBlock];
  int lane_of[kMaxQueryBlock];
  int skips[kMaxQueryBlock] = {};
  for (int m = 0; m < config_.mats; ++m) {
    int live = 0;
    for (int q = 0; q < nq; ++q) {
      if (config_.mat_skip &&
          nearest_mat_skips(static_cast<std::size_t>(m), *queries[q],
                            thresholds[q])) {
        // Charged nearest_skipped_stats() below — identical to the kernel
        // scan this skip replaces, so the knob changes cost only.
        ++skips[q];
        continue;
      }
      kernel_queries[live] = queries[q];
      kernel_thresholds[live] = thresholds[q];
      kernel_within[live] = scratch.within[static_cast<std::size_t>(q)].data();
      kernel_distances[live] =
          scratch.distances[static_cast<std::size_t>(q)].data();
      lane_of[live] = q;
      ++live;
    }
    if (live == 0) continue;
    approx_match_block(shards_[static_cast<std::size_t>(m)], kernel_queries,
                       live, config_.digit_bits, kernel_thresholds,
                       kernel_within, kernel_distances, kernel_stats);
    const auto& rows = row_entry_[static_cast<std::size_t>(m)];
    for (int j = 0; j < live; ++j) {
      const int q = lane_of[j];
      NearestMatch& out = *outs[q];
      const std::size_t k = static_cast<std::size_t>(ks[q]);
      const arch::SearchStats& s = kernel_stats[j];
      out.scanned.push_back({m, s});
      add_stats(out.stats, s);
      // Candidate scan: bounded insertion keeps out.top sorted by
      // (distance, priority, id), at most k entries.
      for (std::size_t w = 0; w < mask_words; ++w) {
        std::uint64_t bits = kernel_within[j][w];
        while (bits != 0) {
          const int r = static_cast<int>(w * 64) + std::countr_zero(bits);
          bits &= bits - 1;
          NearCandidate cand;
          cand.entry = rows[static_cast<std::size_t>(r)];
          cand.priority =
              slots_[static_cast<std::size_t>(cand.entry)].priority;
          cand.distance = static_cast<int>(
              kernel_distances[j][static_cast<std::size_t>(r)]);
          if (out.top.size() == k &&
              !near_candidate_less(cand, out.top.back())) {
            continue;
          }
          const auto at = std::upper_bound(
              out.top.begin(), out.top.end(), cand,
              [](const NearCandidate& a, const NearCandidate& b) {
                return near_candidate_less(a, b);
              });
          out.top.insert(at, cand);
          if (out.top.size() > k) out.top.pop_back();
        }
      }
    }
  }
  const arch::SearchStats skipped_mat = nearest_skipped_stats();
  long long skipped = 0;
  for (int q = 0; q < nq; ++q) {
    add_skipped(outs[q]->stats, skipped_mat, skips[q]);
    skipped += skips[q];
  }
  mats_considered_.fetch_add(static_cast<long long>(config_.mats) * nq,
                             std::memory_order_relaxed);
  if (skipped != 0) {
    mats_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  }
}

NearestMatch TcamTable::search_nearest(const arch::BitWord& query, int k,
                                       int threshold) {
  NearestScratch scratch;
  NearestMatch out;
  scratch.query.repack(query);
  nearest_mats(scratch.query, k, threshold, scratch, out);
  account_nearest(out);
  return out;
}

void TcamTable::charge_scan(const MatStats& s) {
  MatSearchCounts& c = search_counts_[static_cast<std::size_t>(s.mat)];
  c.terminated_rows += s.stats.rows - s.stats.step2_evaluated;
  c.step2_rows += s.stats.step2_evaluated;
}

void TcamTable::account_nearest(const NearestMatch& m) {
  ++nearest_searches_;
  for (const MatStats& s : m.scanned) {
    ++search_counts_[static_cast<std::size_t>(s.mat)].nearest_scans;
    charge_scan(s);
  }
  stats_.add(m.stats);
}

TableMatch TcamTable::search(const arch::BitWord& query) {
  MatchScratch scratch;
  TableMatch out;
  match(query, scratch, out);
  account_search(out);
  return out;
}

void TcamTable::account_search(const TableMatch& m) {
  ++exact_searches_;
  for (const MatStats& s : m.scanned) {
    ++search_counts_[static_cast<std::size_t>(s.mat)].exact_scans;
    charge_scan(s);
  }
  stats_.add(m.stats);
}

double TcamTable::total_energy_j() const {
  // Each search not scanned on a mat skipped it: charge those in closed
  // form, then price the rows like ArrayEnergyModel::on_search — step-1
  // terminated rows at the 1-step energy and step-2 rows at the full
  // energy on two-step designs, every row at the full energy otherwise.
  const arch::SearchStats exact_skip = skipped_stats();
  const arch::SearchStats near_skip = nearest_skipped_stats();
  const arch::OpCosts& costs = op_costs();
  double e = 0.0;
  for (int m = 0; m < config_.mats; ++m) {
    const MatSearchCounts& c = search_counts_[static_cast<std::size_t>(m)];
    const long long exact_skips = exact_searches_ - c.exact_scans;
    const long long near_skips = nearest_searches_ - c.nearest_scans;
    const long long terminated =
        c.terminated_rows +
        exact_skips * (exact_skip.rows - exact_skip.step2_evaluated) +
        near_skips * (near_skip.rows - near_skip.step2_evaluated);
    const long long step2 = c.step2_rows +
                            exact_skips * exact_skip.step2_evaluated +
                            near_skips * near_skip.step2_evaluated;
    const double search_e =
        costs.two_step
            ? terminated * config_.cols * costs.search_e1 +
                  static_cast<double>(step2) * config_.cols * costs.search_e2
            : static_cast<double>(terminated + step2) * config_.cols *
                  costs.search_e2;
    e += energy_[static_cast<std::size_t>(m)].total_energy_j() + search_e;
  }
  return e;
}

}  // namespace fetcam::engine
