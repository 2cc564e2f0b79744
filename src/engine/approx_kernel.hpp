// Packed approximate-match (threshold Hamming) kernels over the
// PackedShard planar layout — the engine tier of the multi-bit CAM
// (arch/approx_search.hpp is the behavioral reference).
//
// Digit encoding: a d-bit digit (d = digit_bits in {1, 2, 3}) is d
// consecutive bit columns of the existing ternary storage, so the planar
// (care, value) planes and the per-word mismatch test
//
//   mis = care & (value ^ query)
//
// are unchanged.  A digit mismatches when ANY cared column in its d-column
// group mismatches; a row's distance is the number of mismatching digits.
// The per-word digit collapse folds a mismatch word onto the digit-start
// bit positions:
//
//   d = 1:  every bit is a digit start                      (collapse = mis)
//   d = 2:  64 % 2 == 0, groups never straddle words:
//           (mis | mis >> 1) & 0x5555...
//   d = 3:  64 % 3 != 0, so groups straddle word boundaries; the next
//           word's low bits are shifted in and the start mask cycles with
//           the word's phase (64w mod 3):
//           (mis | (mis >> 1 | next << 63) | (mis >> 2 | next << 62))
//             & kDigitStarts3[(3 - w % 3) % 3]
//
// popcount of the collapsed word counts each digit exactly once, at the
// word its group starts in.  At d = 1 and threshold = 0 the within mask
// equals the exact full-match mask bit-for-bit (kernel_differential tier
// anchor).
//
// Early exit: a row (scalar) or a 4-row vector group (AVX2) stops
// accumulating once it is past the threshold of EVERY query in the block;
// at d in {1, 2} its remaining words are then never loaded (d = 3 reads
// one word ahead for the straddling digit).  This changes cost only — rows
// within a query's threshold always accumulate their full distance, so
// the reported (within, distance) pairs are bit-exact across tiers and
// block compositions.  Rows past the threshold report kDistanceOverflow.
//
// Query blocking: one pass over the planar words serves nq (1..
// kMaxQueryBlock) queries, each with its own threshold — every care/value
// word is loaded once per block instead of once per query.  The kernels
// are templates on (digit width, nq), so the digit collapse is resolved at
// compile time; the single-query search is the nq = 1 instance.
//
// Statistics are single-step (full-match convention): every row fires
// once, step1_misses = 0, step2_evaluated = rows, matches = rows within
// the threshold.  There is no two-step saving to model — the threshold
// search reads all digits — which is exactly what the exact-vs-approx
// energy A/B in bench_engine_throughput measures.
#pragma once

#include "engine/packed_kernel.hpp"

namespace fetcam::engine {

/// Distance reported for rows past the threshold (their true distance is
/// not computed — the kernels early-exit).
inline constexpr std::uint16_t kDistanceOverflow = 0xFFFF;

namespace detail {

/// Digit-start bits of one word: every even bit at d = 2; at d = 3 bits i
/// with (64w + i) % 3 == 0, indexed by the word's phase (3 - w % 3) % 3.
inline constexpr std::uint64_t kDigitStarts2 = 0x5555555555555555ULL;
inline constexpr std::uint64_t kDigitStarts3[3] = {
    0x9249249249249249ULL,  // bits 0, 3, ..., 63
    0x2492492492492492ULL,  // bits 1, 4, ..., 61
    0x4924924924924924ULL,  // bits 2, 5, ..., 62
};

/// Fold mismatch word `mis` (word index w of a row) onto its digit-start
/// bits; `next` is the row's following mismatch word (0 for the last).
/// Exposed for the differential tests.
std::uint64_t collapse_digits(std::uint64_t mis, std::uint64_t next, int w,
                              int digit_bits);

// Per-tier blocked kernels: nq (1..kMaxQueryBlock) queries in one pass
// over the shard's planar words.  queries[q] points to wpr packed words
// and thresholds[q] (>= 0) is query q's own threshold.  within_masks[q]
// (rows_pad/64 words) is fully overwritten: bit r set = valid row r
// within thresholds[q].  distances[q] (rows_pad entries) is fully
// overwritten: rows within the threshold hold the digit distance, all
// other entries (past-threshold, invalid-but-close, padded) hold
// kDistanceOverflow.  stats[q] is reset and filled.  Per-query outputs
// never depend on the rest of the block.
void approx_match_block_scalar(const ShardView& s,
                               const std::uint64_t* const* queries, int nq,
                               int digit_bits, const int* thresholds,
                               std::uint64_t* const* within_masks,
                               std::uint16_t* const* distances,
                               arch::SearchStats* stats);
// Defined in approx_kernel_avx2.cpp (FETCAM_HAVE_AVX2 builds only).
void approx_match_block_avx2(const ShardView& s,
                             const std::uint64_t* const* queries, int nq,
                             int digit_bits, const int* thresholds,
                             std::uint64_t* const* within_masks,
                             std::uint16_t* const* distances,
                             arch::SearchStats* stats);

}  // namespace detail

/// Threshold match against one shard: rows whose digit distance is <=
/// threshold get their within bit set and their distance recorded.
/// within_mask is resized to shard.mask_words(), distances to the padded
/// row count.  Requires query.cols == shard.cols(), cols % digit_bits ==
/// 0, digit_bits in [1, 3], threshold >= 0.  The tier-less overloads use
/// active_kernel_tier().
arch::SearchStats approx_match(const PackedShard& shard,
                               const PackedQuery& query, int digit_bits,
                               int threshold,
                               std::vector<std::uint64_t>& within_mask,
                               std::vector<std::uint16_t>& distances);
arch::SearchStats approx_match(const PackedShard& shard,
                               const PackedQuery& query, int digit_bits,
                               int threshold,
                               std::vector<std::uint64_t>& within_mask,
                               std::vector<std::uint16_t>& distances,
                               KernelTier tier);

/// Query-blocked threshold match: nq (1..kMaxQueryBlock) queries, each
/// with its own threshold, in one pass over the shard.  within_masks[q]
/// must hold shard.mask_words() words and distances[q] mask_words() * 64
/// entries; both are fully overwritten, and stats[q] is reset.  Lane q's
/// outputs equal approx_match(shard, *queries[q], digit_bits,
/// thresholds[q], ...) bit for bit, whatever the rest of the block holds.
/// Same argument checks as approx_match, per lane.
void approx_match_block(const PackedShard& shard,
                        const PackedQuery* const* queries, int nq,
                        int digit_bits, const int* thresholds,
                        std::uint64_t* const* within_masks,
                        std::uint16_t* const* distances,
                        arch::SearchStats* stats);
void approx_match_block(const PackedShard& shard,
                        const PackedQuery* const* queries, int nq,
                        int digit_bits, const int* thresholds,
                        std::uint64_t* const* within_masks,
                        std::uint16_t* const* distances,
                        arch::SearchStats* stats, KernelTier tier);

}  // namespace fetcam::engine
