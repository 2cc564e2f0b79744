// Sharded TCAM table: entries spread across N mats of bit-packed shards,
// with free-slot allocation, global priority resolution, and per-mat
// energy / endurance / write accounting.
//
// The paper's macro organization (Sec. III-C) tiles 1.5T1Fe subarrays into
// mats; a service-scale table is many mats searched broadside: every query
// is broadcast to all shards, each shard reports its matching rows, and the
// table resolves the global winner by (priority, entry id).  Writes touch
// exactly one mat — which is what makes the shared-HV-driver admission
// model (engine.hpp) interesting: a mat that is writing cannot serve the
// search broadcast.
//
// Accounting: writes reuse the arch layer unchanged (one ArrayEnergyModel
// and one EnduranceModel per mat), fed the phase and switching-cell counts
// of cost_write / cost_rewrite — what a TcamController's write plan would
// drive, counted without building the plan.  Searches are charged as
// integer counts per mat — scans, step-1-terminated rows, step-2 rows —
// for the mats a search actually scanned; a mat the pruning proof skipped
// has exactly known stats, so it is charged in closed form on read
// (total_energy_j).
// Matching itself is pure (TcamTable::match is const and thread-safe
// against other match calls); accounting and mutation are serial — the
// engine's dispatcher owns them.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/endurance.hpp"
#include "arch/energy_model.hpp"
#include "arch/ternary.hpp"
#include "engine/packed_kernel.hpp"

namespace fetcam::engine {

/// Stable handle for a stored entry.  Monotonically increasing; never
/// reused, so (priority, id) is a total order for deterministic
/// tie-breaking.
using EntryId = std::int64_t;
constexpr EntryId kInvalidEntry = -1;

struct TableConfig {
  arch::TcamDesign design = arch::TcamDesign::k1p5DgFe;
  int mats = 4;
  int rows_per_mat = 64;
  int cols = 64;
  /// Subarrays per mat sharing HV driver banks (paper Fig. 6; must be
  /// even).  Rows are striped contiguously: subarray = row / (rows/subs).
  int subarrays_per_mat = 4;
  /// Mat-skip pruning: consult the per-mat aggregate masks before each
  /// row scan and skip mats that provably cannot match (docs/ENGINE.md).
  /// Results and accounting are bit-identical either way — the knob
  /// exists for A/B measurement and the pruning tests.
  bool mat_skip = true;
  /// Bits per stored digit for the approximate-match path (FeCAM-style
  /// multi-level cells): d consecutive bit columns form one digit, and
  /// search_nearest counts mismatching digits (approx_kernel.hpp).  Must
  /// be in [1, 3] and divide cols.  Exact match is unaffected — it always
  /// operates on raw bit columns.
  int digit_bits = 1;
};

/// Mat-skip pruning index for one mat: for each bit column c, bit c of
/// require_one (require_zero) is set iff EVERY valid row cares about c and
/// stores '1' ('0') there.  A query with a 0 (1) at such a column
/// mismatches every valid row, so the whole mat is provably matchless —
/// two AND-type ops per word replace the row scan.  All-'X' columns (and
/// any column where even one row doesn't care) never set a bit, so they
/// can never prune.  Maintained incrementally on every insert / erase /
/// rewrite / relocate: adding a row is a word-level AND of the masks with
/// its packed digits, removing one rebuilds the masks from per-column
/// counts.  Bits at and above cols stay zero so query padding cannot fake
/// a proof.
struct MatAggregate {
  std::vector<std::uint64_t> require_one;   ///< ceil(cols/64) words
  std::vector<std::uint64_t> require_zero;  ///< same shape
  /// Counts backing the incremental update: valid rows whose digit at
  /// column c is '1' / '0' (an aggregate bit is set iff its count equals
  /// valid_rows — the form that survives erase, unlike a running AND).
  std::vector<int> one_count;
  std::vector<int> zero_count;
  int valid_rows = 0;

  bool operator==(const MatAggregate&) const = default;
};

/// Step accounting of one mat a search scanned.
struct MatStats {
  int mat = 0;
  arch::SearchStats stats;
};

/// Result of one broadcast search.  `stats` merges all mats; `scanned`
/// carries the own step accounting of each mat the kernel scanned, in
/// ascending mat order.  A mat absent from it was skipped by the pruning
/// proof and reported TcamTable::skipped_stats().
struct TableMatch {
  bool hit = false;
  EntryId entry = kInvalidEntry;
  int priority = 0;
  arch::SearchStats stats;
  std::vector<MatStats> scanned;
};

/// Reusable per-thread buffers for TcamTable::match / match_mats /
/// match_mats_block: a packed query (match) plus one row bitmask per block
/// lane.  After the first call every lane's buffer is warm, so a
/// steady-state broadcast allocates nothing.
struct MatchScratch {
  PackedQuery query;
  std::vector<std::vector<std::uint64_t>> masks;
};

/// One approximate-match candidate.  The global order is (distance,
/// priority, id) ascending — a strict total order because ids are unique,
/// which is what makes the top-k selection deterministic.
struct NearCandidate {
  EntryId entry = kInvalidEntry;
  int priority = 0;
  int distance = 0;
};

/// (distance, priority, id) ascending.
inline bool near_candidate_less(const NearCandidate& a,
                                const NearCandidate& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.entry < b.entry;
}

/// Result of one top-k threshold search.
/// `top` is sorted by near_candidate_less and holds at most k candidates;
/// `stats`/`scanned` follow the single-step accounting the approx kernels
/// report (approx_kernel.hpp).  A mat absent from `scanned` was skipped
/// and reported TcamTable::nearest_skipped_stats().
struct NearestMatch {
  std::vector<NearCandidate> top;
  arch::SearchStats stats;
  std::vector<MatStats> scanned;
};

/// Reusable buffers for TcamTable::nearest_mats / nearest_mats_block: a
/// packed query (search_nearest) plus one within mask and one per-row
/// distance array per block lane.  After the first call every lane's
/// buffers are warm, so a steady-state blocked search allocates nothing.
struct NearestScratch {
  PackedQuery query;
  std::vector<std::vector<std::uint64_t>> within;
  std::vector<std::vector<std::uint16_t>> distances;
};

/// Physical location of an entry (used by the driver-multiplex model).
struct EntryLocation {
  int mat = 0;
  int row = 0;
  int subarray = 0;
};

/// Projected cost of one row write (planner pricing; nothing is charged).
struct WriteCost {
  int phases = 0;       ///< HV driver pulses the plan issues
  int cells = 0;        ///< FeFET cells that switch polarization
  double energy_j = 0.0;
};

class TcamTable {
 public:
  explicit TcamTable(const TableConfig& config);

  const TableConfig& config() const { return config_; }
  int mats() const { return config_.mats; }
  int cols() const { return config_.cols; }
  bool two_step() const { return two_step_; }
  std::size_t capacity() const;
  std::size_t size() const { return live_; }

  /// Store an entry; lower `priority` values win searches (ties resolve to
  /// the older entry).  Allocates a free slot on the emptiest mat (lowest
  /// mat index on ties, lowest free row within the mat — deterministic).
  /// Returns kInvalidEntry when the table is full.
  EntryId insert(const arch::TernaryWord& entry, int priority);
  /// Targeted variant: allocate on `mat` specifically (the endurance-aware
  /// placer's lever).  mat < 0 falls back to the default emptiest-mat
  /// policy; a full target mat returns kInvalidEntry (no silent fallback —
  /// the placer accounted for capacity and must hear about drift).
  EntryId insert(const arch::TernaryWord& entry, int priority, int mat);
  /// Rewrite an existing entry in place (same slot, same priority unless
  /// given); charges cost_write's counts, like a controller update.
  void update(EntryId id, const arch::TernaryWord& entry);
  void update(EntryId id, const arch::TernaryWord& entry, int priority);
  /// In-place DELTA rewrite: drives only the digits that differ from the
  /// stored word (charged as cost_rewrite counts arch::incremental_*_plan),
  /// so an unchanged word costs zero pulses.  The compiler's delta planner
  /// issues these; update() stays the full row refresh a naive controller
  /// performs.
  void rewrite_digits(EntryId id, const arch::TernaryWord& entry);
  /// Peripheral-only priority change: the priority lives in the match
  /// resolver, not in FeFET cells, so no pulses and no energy are charged
  /// (the make-before-break applier's "flip" step).
  void set_priority(EntryId id, int priority);
  /// Remove an entry and recycle its slot (peripheral-only: no pulses).
  void erase(EntryId id);
  /// Move an entry to a free row on `target_mat`, keeping its id and
  /// priority.  Charges exactly ONE write — the 3-phase (or complementary)
  /// program of the word at the destination row — plus destination-row
  /// endurance; vacating the source row is peripheral-only, like erase.
  /// Returns false (and changes nothing) if target_mat has no free row.
  bool relocate(EntryId id, int target_mat);
  bool contains(EntryId id) const;
  std::optional<EntryLocation> locate(EntryId id) const;
  int priority_of(EntryId id) const;
  /// The stored word of a live entry (unpacked from its shard row).
  arch::TernaryWord entry_word(EntryId id) const;
  /// Free rows remaining on one mat (planner capacity checks).
  std::size_t free_rows(int mat) const;
  /// Price the write `next` would cost on top of `previous` (nullptr =
  /// erased slot), with this table's design/voltages.  Pure projection:
  /// counts what the arch write plan would drive without building it.
  /// Throws std::invalid_argument when a two-step design is given a
  /// non-empty `previous` of another width (the 2FeFET write ignores it).
  WriteCost cost_write(const arch::TernaryWord& next,
                       const arch::TernaryWord* previous) const;
  /// Price a rewrite_digits of `next` over `previous` (delta plan).
  /// Throws std::invalid_argument when the widths differ.
  WriteCost cost_rewrite(const arch::TernaryWord& next,
                         const arch::TernaryWord& previous) const;

  /// Pure broadcast match: no accounting, const, safe to call from many
  /// threads concurrently (against other match calls only).  Packs the
  /// query into scratch.query, then runs match_mats.
  void match(const arch::BitWord& query, MatchScratch& scratch,
             TableMatch& out) const;

  /// Pre-packed match(): the caller packed the query once, so the call
  /// does no repack.  The one-lane call of match_mats_block; const and
  /// concurrency-safe like match().
  void match_mats(const PackedQuery& query, MatchScratch& scratch,
                  TableMatch& out) const;

  /// Query-blocked broadcast: nq (1..kMaxQueryBlock) pre-packed queries
  /// against every mat in ONE pass per shard, so each planar care/value
  /// word loaded from memory serves all nq queries.  outs[q] is the same
  /// whatever the rest of the block holds — per-query results never
  /// depend on block composition, the invariant the engine's block
  /// scheduler (and its determinism sweep) relies on.  Mats
  /// the pruning index proves matchless for a lane are skipped for that
  /// lane only; survivors form the kernel sub-block.  Const and
  /// concurrency-safe like match().
  void match_mats_block(const PackedQuery* const* queries, int nq,
                        MatchScratch& scratch,
                        TableMatch* const* outs) const;

  /// Top-k threshold search over every mat — the approximate-match
  /// analogue of match_mats.  Rows whose digit distance
  /// (config().digit_bits bits per digit) is <= threshold are candidates;
  /// the k best by (distance, priority, id) are returned sorted.  Mats
  /// the WIDENED pruning proof (see nearest_mat_skips) shows are beyond
  /// the threshold are skipped with accounting identical to a kernel
  /// scan, so mat_skip on/off cannot change results or energy.  Const and
  /// concurrency-safe like match().  Throws std::invalid_argument naming
  /// `k` / `distance_threshold` when out of range.
  void nearest_mats(const PackedQuery& query, int k, int threshold,
                    NearestScratch& scratch, NearestMatch& out) const;
  /// Query-blocked nearest_mats: nq (1..kMaxQueryBlock) lanes, lane q with
  /// its own ks[q] / thresholds[q], in ONE kernel pass per shard.  outs[q]
  /// receives exactly what nearest_mats(*queries[q], ks[q], thresholds[q],
  /// ...) would have produced, whatever the rest of the block holds.  Mats
  /// the widened proof skips for a lane are skipped for that lane only;
  /// the surviving lanes form the kernel sub-block (the match_mats_block
  /// pattern).  nearest_mats is the one-lane call.
  void nearest_mats_block(const PackedQuery* const* queries, const int* ks,
                          const int* thresholds, int nq,
                          NearestScratch& scratch,
                          NearestMatch* const* outs) const;

  /// Serial convenience: whole-table nearest_mats + accounting.  At
  /// digit_bits = 1, threshold = 0, k = 1 the single candidate equals the
  /// exact search() winner.
  NearestMatch search_nearest(const arch::BitWord& query, int k,
                              int threshold);
  /// Charge one threshold search's energy/stats (serial, request order —
  /// mirrors account_search).
  void account_nearest(const NearestMatch& m);

  /// Incrementally-maintained pruning aggregate of one mat.
  const MatAggregate& aggregate(int mat) const {
    return aggregates_[checked_mat(mat)];
  }
  /// Golden rebuild: recompute the aggregate by scanning the shard's rows.
  /// The incremental-vs-rebuilt property test pins aggregate(m) ==
  /// scan_aggregate(m) under arbitrary churn.
  MatAggregate scan_aggregate(int mat) const;
  /// Columns of `word` that would keep mat's aggregate bits alive if
  /// inserted there (the endurance-aware placer's tie-break: prefer mats
  /// whose pruning index stays tight).  Throws std::invalid_argument when
  /// the word is not cols() digits wide.
  int aggregate_overlap(int mat, const arch::TernaryWord& word) const;
  /// The same count for a word packed by arch::pack_ternary:
  /// arch::ternary_lanes(cols()) care and value lanes.  A caller probing
  /// many mats with one word packs it once.
  int aggregate_overlap(int mat, const std::uint64_t* care,
                        const std::uint64_t* value) const;

  /// Pruning counters (lifetime totals; deterministic: every query tests
  /// every mat in its range exactly once, regardless of dispatch shape).
  long long mats_considered() const {
    return mats_considered_.load(std::memory_order_relaxed);
  }
  long long mats_skipped() const {
    return mats_skipped_.load(std::memory_order_relaxed);
  }

  /// Serial convenience: match + account in one call.
  TableMatch search(const arch::BitWord& query);
  /// Charge one broadcast search's energy/stats (serial; the engine calls
  /// this in request order after the parallel match phase).
  void account_search(const TableMatch& m);

  const PackedShard& shard(int mat) const { return shards_[checked_mat(mat)]; }
  /// Calibrated per-cell costs of this table's design (every mat shares
  /// them).
  const arch::OpCosts& op_costs() const { return energy_[0].costs(); }
  /// Stats a mat the exact-match proof skips (or an empty mat) reports —
  /// exactly what its kernel would have produced, so accounting stays
  /// bit-identical.
  arch::SearchStats skipped_stats() const;
  /// Same for a threshold search: single-step accounting, every row fires
  /// and nothing is within the threshold.
  arch::SearchStats nearest_skipped_stats() const;
  const arch::EnduranceModel& endurance(int mat) const {
    return endurance_[checked_mat(mat)];
  }
  const arch::SearchStatsAccumulator& search_stats() const { return stats_; }
  long long write_pulses() const { return write_pulses_; }
  /// Write phases the last insert/update issued (driver-occupancy model).
  int last_write_phases() const { return last_write_phases_; }
  /// Write energy plus search energy derived from the per-mat counts,
  /// skipped mats charged in closed form.
  double total_energy_j() const;

 private:
  struct Slot {
    int mat = -1;
    int row = -1;
    int priority = 0;
    bool live = false;
  };

  std::size_t checked_mat(int mat) const;
  void check_entry(EntryId id) const;
  void write_slot(const Slot& slot, const arch::TernaryWord& entry);
  /// Pruning-index maintenance: fold a word into / out of a mat's
  /// per-column counts and refresh its aggregate masks — by a word-level
  /// AND on add, by a rebuild from the counts on remove.
  void aggregate_add(int mat, const arch::TernaryWord& word);
  void aggregate_remove(int mat, const arch::TernaryWord& word);
  void rebuild_aggregate_masks(MatAggregate& ag) const;
  /// Two-AND-per-word matchless proof for one (mat, query) pair, read
  /// from skip_masks_.
  bool mat_skips(std::size_t mat, const PackedQuery& query) const;
  /// Refresh mat's row of skip_masks_ from its aggregate.
  void refresh_skip_masks(int mat);
  /// Widened proof for threshold search: the aggregate's guaranteed-miss
  /// columns, collapsed onto digit groups, lower-bound EVERY row's
  /// distance — the mat is skippable only when that bound exceeds the
  /// threshold.  The exact-match proof (any guaranteed-miss column) would
  /// silently mis-prune rows within the threshold.
  bool nearest_mat_skips(std::size_t mat, const PackedQuery& query,
                         int threshold) const;
  /// Priority-scan one shard's hit mask into the accumulated winner.
  void scan_hits(std::size_t mat, const std::uint64_t* mask,
                 std::size_t words, TableMatch& out) const;

  TableConfig config_;
  bool two_step_;
  /// Search energy counts of one mat (scans of each kind, and the rows
  /// they charged at the step-1 and at the full energy).
  struct MatSearchCounts {
    long long exact_scans = 0;
    long long nearest_scans = 0;
    long long terminated_rows = 0;  ///< rows - step2_evaluated
    long long step2_rows = 0;
  };
  /// Fold one scanned mat's stats into its counts.
  void charge_scan(const MatStats& s);

  std::vector<PackedShard> shards_;
  /// Write energy per mat (searches are charged through search_counts_).
  std::vector<arch::ArrayEnergyModel> energy_;
  std::vector<MatSearchCounts> search_counts_;
  long long exact_searches_ = 0;
  long long nearest_searches_ = 0;
  std::vector<arch::EnduranceModel> endurance_;
  arch::SearchStatsAccumulator stats_;
  /// Per-mat min-heaps of free rows (smallest row first).
  std::vector<std::vector<int>> free_rows_;
  /// Slot table indexed by EntryId (monotonic; erased slots stay dead).
  std::vector<Slot> slots_;
  /// Per (mat, row): the EntryId currently stored there (priority scan).
  std::vector<std::vector<EntryId>> row_entry_;
  std::size_t live_ = 0;
  long long write_pulses_ = 0;
  int last_write_phases_ = 0;
  /// Per-mat pruning aggregates (maintained even when mat_skip is off, so
  /// toggling the knob or asking the placer never needs a rebuild).
  std::vector<MatAggregate> aggregates_;
  /// The exact-match proof's view of aggregates_, one contiguous row per
  /// mat: [empty flag | require_one words | require_zero words].  The flag
  /// word is all ones for an empty mat, and two-step designs pre-mask the
  /// words to the even (step-1) columns, so mat_skips is one OR-reduce.
  std::vector<std::uint64_t> skip_masks_;
  std::size_t agg_words_ = 0;
  /// aggregate_add's packing buffer: agg_words_ care then value lanes.
  std::vector<std::uint64_t> lanes_;
  /// Pruning counters; mutable atomics because match paths are const and
  /// concurrency-safe.  Totals are deterministic, increment order is not.
  mutable std::atomic<long long> mats_considered_{0};
  mutable std::atomic<long long> mats_skipped_{0};
};

}  // namespace fetcam::engine
