// Bit-packed TCAM shard kernel: the service-engine representation of one
// mat's worth of entries.
//
// The behavioral TcamArray stores one byte per ternary digit and matches
// digit-by-digit — exact, but a serving layer scanning thousands of rows
// per query cannot afford 1 byte/digit.  A PackedShard stores each row as
// (care, value) uint64 mask pairs, 64 ternary digits per word pair:
//
//   care bit  = 1  digit is '0' or '1' (participates in matching)
//   care bit  = 0  digit is 'X' (don't-care)
//   value bit = 1  digit is '1' (kept 0 wherever care = 0, canonical form)
//
// A 64-digit block of a query mismatches iff  care & (value ^ query) != 0,
// so a whole row of N digits is matched in ceil(N/64) word operations.
//
// Digit c lives at bit (c & 63) of word (c >> 6), LSB-first.  Because 64 is
// even, a digit's global parity equals its bit parity, so the paper's
// two-step schedule (step 1 = even/cell1 digits, step 2 = odd/cell2 digits,
// Sec. III-B3) is the same mismatch test under constant parity masks.  The
// two-step kernel reproduces arch::two_step_search semantics AND its
// SearchStats bit-exactly: invalid rows and step-1 mismatches terminate
// early (step1_misses), only survivors evaluate the odd digits
// (step2_evaluated), and matches are flagged per row.
//
// Storage is PLANAR (word-major): word w of every row is contiguous in
// memory (`care[w * rows_pad + r]`), rows padded to a multiple of 64.
// That makes word 0 of consecutive rows a streaming read for the scalar
// kernel, and lets the AVX2 kernel compare 4 rows per 256-bit vector with
// plain aligned-ish loads (no gathers).  Padded rows have care = value =
// valid = 0, so they can never match or perturb statistics.
//
// Kernel tiers: a portable scalar uint64 loop, always built, and an AVX2
// path (compiled only when -DFETCAM_SIMD=ON and the compiler supports
// -mavx2) selected at runtime via CPU detection.  Each tier has ONE
// exact-match kernel body, a template on the search mode and the query
// block size: the two-step search is the single-step scan with step 1
// settled on the even digits and the odd digits tested for step-1
// survivors only, so the mode fixes just the early-exit mask and the
// SearchStats accounting.  A single query is a block of one.  The
// references are the behavioral TcamArray::search and
// arch::two_step_search; every lane of both tiers is mask- and
// stats-exact against them (tests/engine/kernel_differential_test.cpp).
// Every entry point takes its tier as a defaulted argument,
// best_kernel_tier(); tests and benches pass one explicitly.
//
// Match results are reported as a row bitmask (64 rows per word) so the
// sharded table can priority-scan hits with countr_zero instead of walking
// a std::vector<bool>.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "arch/behavioral_array.hpp"
#include "arch/search_scheduler.hpp"

namespace fetcam::engine {

/// Match-loop implementation tier.  kScalar is the portable loop and is
/// always available; kAvx2 requires both compile-time support
/// (-DFETCAM_SIMD=ON + a -mavx2-capable compiler) and runtime CPU support.
/// Both produce identical masks and stats; only the cost differs.
enum class KernelTier : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// Largest query block the blocked kernels accept.  Eight keeps the AVX2
/// per-query mismatch accumulators register-resident (8 ymm accumulators +
/// the shared care/value/broadcast registers fit in 16); larger blocks
/// spill and lose the bandwidth win they were buying.
inline constexpr int kMaxQueryBlock = 8;

const char* kernel_tier_name(KernelTier tier);

/// True when `tier` was compiled in AND the running CPU supports it.
bool kernel_tier_available(KernelTier tier);

/// Best available tier on this machine (runtime CPU dispatch): the
/// default of every kernel entry point.
KernelTier best_kernel_tier();

namespace detail {

/// Borrowed view of one shard's planar arrays, consumed by the per-tier
/// kernels.  Mask outputs are rows_pad/64 words, fully overwritten.
struct ShardView {
  const std::uint64_t* care = nullptr;   ///< wpr planes of rows_pad words
  const std::uint64_t* value = nullptr;  ///< same shape as care
  const std::uint64_t* valid = nullptr;  ///< rows_pad/64 words
  int rows = 0;      ///< real row count
  int rows_pad = 0;  ///< padded row count (multiple of 64)
  int wpr = 0;       ///< words per row (ceil(cols/64))
};

/// Exact-match search mode: single-step (TcamArray::search) or the
/// paper's two-step schedule (arch::two_step_search).
enum class MatchMode : std::uint8_t { kFull = 0, kTwoStep = 1 };

// Digit parity masks: digit c sits at bit (c & 63), and 64 is even, so
// even global digits are even bit positions in every word.
inline constexpr std::uint64_t kEvenDigits = 0x5555555555555555ULL;
inline constexpr std::uint64_t kOddDigits = 0xAAAAAAAAAAAAAAAAULL;

// The exact-match kernel of each tier: match nq (1..kMaxQueryBlock,
// checked by PackedShard) queries in ONE pass over the shard's planar
// words, so each care/value word loaded from memory is reused nq times.
// queries[q] points to wpr packed words; match_masks[q] points to
// rows_pad/64 words and is fully overwritten; stats[q] is reset and
// filled.  A lane's mask and stats never depend on the rest of the block
// — block composition only changes cost, never results (the determinism
// argument the engine's block scheduler rests on, docs/ENGINE.md).  A row
// (scalar) or 4-row group (AVX2) of a multi-word shard stops loading
// words once every lane of every query has failed step 1 (all digits
// single-step, the even digits two-step).  The AVX2 tier lives in
// packed_kernel_avx2.cpp; scalar-only builds link an unreachable stub
// (the tier reports unavailable).
void exact_match_block_scalar(const ShardView& s, MatchMode mode,
                              const std::uint64_t* const* queries, int nq,
                              std::uint64_t* const* match_masks,
                              arch::SearchStats* stats);
void exact_match_block_avx2(const ShardView& s, MatchMode mode,
                            const std::uint64_t* const* queries, int nq,
                            std::uint64_t* const* match_masks,
                            arch::SearchStats* stats);

/// Reset lane stats for a scan of `s`.  Single-step accounting evaluates
/// every row fully (step2_evaluated = rows, no step-1 misses); two-step
/// fills those counters per block in finish_exact_block.
template <MatchMode M>
void begin_exact_stats(const ShardView& s, arch::SearchStats& st) {
  st = arch::SearchStats{};
  st.rows = s.rows;
  if constexpr (M == MatchMode::kFull) st.step2_evaluated = s.rows;
}

/// Fold 64-row block b's per-row step-1 / step-2 pass bits into one
/// lane's mask and stats.  Invalid (and padded) rows miss in step 1, as
/// in arch::two_step_search; per-block popcounts give its per-row
/// counters.  Single-step ignores step2_ok.
template <MatchMode M>
void finish_exact_block(const ShardView& s, int b, std::uint64_t step1_ok,
                        std::uint64_t step2_ok, std::uint64_t* match_mask,
                        arch::SearchStats& st) {
  std::uint64_t match = step1_ok & s.valid[static_cast<std::size_t>(b)];
  if constexpr (M == MatchMode::kTwoStep) {
    const int real_rows = s.rows - b * 64 < 64 ? s.rows - b * 64 : 64;
    const int alive_count = std::popcount(match);
    st.step1_misses += real_rows - alive_count;
    st.step2_evaluated += alive_count;
    match &= step2_ok;
  }
  match_mask[static_cast<std::size_t>(b)] = match;
  st.matches += std::popcount(match);
}

}  // namespace detail

/// A query packed to the shard's digit layout: bit (c & 63) of word
/// (c >> 6) is query digit c; bits at and above `cols` are zero.
struct PackedQuery {
  int cols = 0;
  std::vector<std::uint64_t> bits;

  static PackedQuery pack(const arch::BitWord& query);
  /// Allocation-free repack into an existing PackedQuery (hot path: the
  /// engine packs every query once per fan-out task; reusing the buffer
  /// keeps that off the allocator).
  void repack(const arch::BitWord& query);
};

class PackedShard {
 public:
  /// rows entries of `cols` ternary digits, all-'X' and invalid (erased).
  /// rows >= 0, cols > 0.
  PackedShard(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int words_per_row() const { return words_per_row_; }

  /// Store an entry (marks the row valid).
  void write(int row, const arch::TernaryWord& entry);
  /// Invalidate a row (content is retained, like TcamArray::erase).
  void erase(int row);
  bool valid(int row) const;
  /// Reconstruct the stored word from the packed masks (exact: the packing
  /// is lossless per digit).
  arch::TernaryWord entry(int row) const;

  /// Single-step full match (TcamArray::search semantics: invalid rows
  /// never match).  Sets bit (r & 63) of match_mask[r >> 6] per matching
  /// row; stats are shaped like TcamController's single-step accounting
  /// (every row evaluates fully: step2_evaluated = rows, no step-1 misses).
  /// The one-lane call of full_match_block.
  arch::SearchStats full_match(const PackedQuery& query,
                               std::vector<std::uint64_t>& match_mask,
                               KernelTier tier = best_kernel_tier()) const {
    return match_one(detail::MatchMode::kFull, query, match_mask, tier);
  }

  /// Two-step early-terminating match, bit-exact vs arch::two_step_search
  /// (match flags and SearchStats).  Requires an even word length.  The
  /// one-lane call of two_step_match_block.
  arch::SearchStats two_step_match(const PackedQuery& query,
                                   std::vector<std::uint64_t>& match_mask,
                                   KernelTier tier = best_kernel_tier()) const {
    return match_one(detail::MatchMode::kTwoStep, query, match_mask, tier);
  }

  /// Query-blocked match: nq (1..kMaxQueryBlock) queries in one pass over
  /// the planar words.  match_masks[q] must hold mask_words() words and is
  /// fully overwritten; stats[q] is reset.  Per-query results are those
  /// of full_match / two_step_match whatever the rest of the block holds.
  void full_match_block(const PackedQuery* const* queries, int nq,
                        std::uint64_t* const* match_masks,
                        arch::SearchStats* stats,
                        KernelTier tier = best_kernel_tier()) const {
    match_block(detail::MatchMode::kFull, queries, nq, match_masks, stats,
                tier);
  }
  void two_step_match_block(const PackedQuery* const* queries, int nq,
                            std::uint64_t* const* match_masks,
                            arch::SearchStats* stats,
                            KernelTier tier = best_kernel_tier()) const {
    match_block(detail::MatchMode::kTwoStep, queries, nq, match_masks, stats,
                tier);
  }

  /// Convenience wrappers mirroring the behavioral API (used by the
  /// equivalence tests against TcamArray / arch::two_step_search).
  std::vector<bool> search(const arch::BitWord& query) const;
  arch::ScheduledSearchResult two_step_search(const arch::BitWord& query) const;

  /// Words in a row bitmask covering all rows.
  std::size_t mask_words() const {
    return static_cast<std::size_t>(rows_pad_) / 64;
  }

  /// Borrowed read-only view of the planar arrays, consumed by the
  /// per-tier kernels (including the approximate-match kernels in
  /// approx_kernel.hpp, which live in their own translation unit).
  /// Valid until the next mutating call.
  detail::ShardView view() const;

 private:
  void check_row(int row) const;
  /// The one dispatcher behind the four match entry points: argument
  /// checks, the empty shard, and the tier switch.
  void match_block(detail::MatchMode mode, const PackedQuery* const* queries,
                   int nq, std::uint64_t* const* match_masks,
                   arch::SearchStats* stats, KernelTier tier) const;
  /// One-lane call of match_block; sizes match_mask.
  arch::SearchStats match_one(detail::MatchMode mode, const PackedQuery& query,
                              std::vector<std::uint64_t>& match_mask,
                              KernelTier tier) const;
  std::size_t plane_index(int row, int word) const {
    return static_cast<std::size_t>(word) *
               static_cast<std::size_t>(rows_pad_) +
           static_cast<std::size_t>(row);
  }

  int rows_;
  int cols_;
  int words_per_row_;
  int rows_pad_;  ///< rows rounded up to a multiple of 64 (0 when rows = 0)
  std::vector<std::uint64_t> care_;   ///< planar: wpr x rows_pad
  std::vector<std::uint64_t> value_;  ///< planar: wpr x rows_pad
  std::vector<std::uint64_t> valid_;  ///< row bitmask, 64 rows/word
};

}  // namespace fetcam::engine
