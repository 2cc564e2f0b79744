#include "engine/packed_kernel.hpp"

#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fetcam::engine {

namespace {

// Digit parity masks: digit c sits at bit (c & 63), and 64 is even, so
// even global digits are even bit positions in every word.
constexpr std::uint64_t kEvenDigits = 0x5555555555555555ULL;
constexpr std::uint64_t kOddDigits = 0xAAAAAAAAAAAAAAAAULL;

bool cpu_has_avx2() {
#if defined(FETCAM_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// -1 = no override; otherwise the KernelTier value.  Relaxed is enough:
// the override is a test/bench knob set between runs, not a hot-path
// synchronization point.
std::atomic<int> g_tier_override{-1};

}  // namespace

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kAvx2: return "avx2";
  }
  return "?";
}

bool kernel_tier_available(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return true;
    case KernelTier::kAvx2: return cpu_has_avx2();
  }
  return false;
}

KernelTier best_kernel_tier() {
  return cpu_has_avx2() ? KernelTier::kAvx2 : KernelTier::kScalar;
}

KernelTier active_kernel_tier() {
  const int o = g_tier_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<KernelTier>(o);
  return best_kernel_tier();
}

void set_kernel_tier_override(KernelTier tier) {
  if (!kernel_tier_available(tier)) {
    throw std::invalid_argument(std::string("kernel tier ") +
                                kernel_tier_name(tier) +
                                " is not available on this build/CPU");
  }
  g_tier_override.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void clear_kernel_tier_override() {
  g_tier_override.store(-1, std::memory_order_relaxed);
}

namespace detail {

namespace {

/// True when every query's accumulated mismatch word has a bit under
/// `digits` — each query has mismatched the row there, so the remaining
/// words cannot change its outcome (acc only grows).  The blocked kernels'
/// per-row early exit on multi-word rows.
template <int NQ>
bool all_queries_mismatch(const std::uint64_t (&acc)[NQ],
                          std::uint64_t digits) {
  for (int q = 0; q < NQ; ++q) {
    if ((acc[q] & digits) == 0) return false;
  }
  return true;
}

// Shared shape of the blocked scalar kernels: one pass over the planar
// words per 64-row block, each (care, value) word pair loaded ONCE and
// tested against all NQ queries.  A single mismatch accumulator per query
// suffices for both steps because OR commutes with the parity masks:
// OR_w(mis_w & even) == (OR_w mis_w) & even — so the step-1 / step-2 zero
// tests read the even / odd halves of the same accumulator.  NQ is a
// template parameter so the accumulator array unrolls into registers.
template <int NQ>
void full_match_block_scalar_impl(const ShardView& s,
                                  const std::uint64_t* const* queries,
                                  std::uint64_t* const* match_masks,
                                  arch::SearchStats* stats) {
  for (int q = 0; q < NQ; ++q) {
    stats[q] = arch::SearchStats{};
    stats[q].rows = s.rows;
    stats[q].step2_evaluated = s.rows;  // single-step accounting
  }
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  for (int b = 0; b < blocks; ++b) {
    std::uint64_t ok[NQ] = {};
    for (int r = 0; r < 64; ++r) {
      const std::size_t row = static_cast<std::size_t>(b) * 64 +
                              static_cast<std::size_t>(r);
      std::uint64_t acc[NQ] = {};
      for (int w = 0; w < s.wpr; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * pad + row;
        const std::uint64_t c = s.care[at];
        const std::uint64_t v = s.value[at];
        for (int q = 0; q < NQ; ++q) acc[q] |= c & (v ^ queries[q][w]);
        if (w + 1 < s.wpr && all_queries_mismatch(acc, ~0ULL)) break;
      }
      for (int q = 0; q < NQ; ++q) {
        ok[q] |= static_cast<std::uint64_t>(acc[q] == 0) << r;
      }
    }
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    for (int q = 0; q < NQ; ++q) {
      const std::uint64_t match = ok[q] & valid;
      match_masks[q][static_cast<std::size_t>(b)] = match;
      stats[q].matches += std::popcount(match);
    }
  }
}

template <int NQ>
void two_step_match_block_scalar_impl(const ShardView& s,
                                      const std::uint64_t* const* queries,
                                      std::uint64_t* const* match_masks,
                                      arch::SearchStats* stats) {
  for (int q = 0; q < NQ; ++q) {
    stats[q] = arch::SearchStats{};
    stats[q].rows = s.rows;
  }
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  for (int b = 0; b < blocks; ++b) {
    std::uint64_t step1_ok[NQ] = {};
    std::uint64_t step2_ok[NQ] = {};
    for (int r = 0; r < 64; ++r) {
      const std::size_t row = static_cast<std::size_t>(b) * 64 +
                              static_cast<std::size_t>(r);
      std::uint64_t acc[NQ] = {};
      for (int w = 0; w < s.wpr; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * pad + row;
        const std::uint64_t c = s.care[at];
        const std::uint64_t v = s.value[at];
        for (int q = 0; q < NQ; ++q) acc[q] |= c & (v ^ queries[q][w]);
        // Every query already fails step 1: the odd bits left unfinished
        // are masked off by `alive` below, so the row's outcome is settled.
        if (w + 1 < s.wpr && all_queries_mismatch(acc, kEvenDigits)) break;
      }
      for (int q = 0; q < NQ; ++q) {
        step1_ok[q] |=
            static_cast<std::uint64_t>((acc[q] & kEvenDigits) == 0) << r;
        step2_ok[q] |=
            static_cast<std::uint64_t>((acc[q] & kOddDigits) == 0) << r;
      }
    }
    // Invalid (and padded) rows miss in step 1, as in
    // arch::two_step_search; per-block popcounts give its per-row counters.
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    const int real_rows = s.rows - b * 64 < 64 ? s.rows - b * 64 : 64;
    for (int q = 0; q < NQ; ++q) {
      const std::uint64_t alive = step1_ok[q] & valid;
      const int alive_count = std::popcount(alive);
      stats[q].step1_misses += real_rows - alive_count;
      stats[q].step2_evaluated += alive_count;
      const std::uint64_t match = alive & step2_ok[q];
      match_masks[q][static_cast<std::size_t>(b)] = match;
      stats[q].matches += std::popcount(match);
    }
  }
}

}  // namespace

void full_match_block_scalar(const ShardView& s,
                             const std::uint64_t* const* queries, int nq,
                             std::uint64_t* const* match_masks,
                             arch::SearchStats* stats) {
  switch (nq) {
    case 1: return full_match_block_scalar_impl<1>(s, queries, match_masks,
                                                   stats);
    case 2: return full_match_block_scalar_impl<2>(s, queries, match_masks,
                                                   stats);
    case 3: return full_match_block_scalar_impl<3>(s, queries, match_masks,
                                                   stats);
    case 4: return full_match_block_scalar_impl<4>(s, queries, match_masks,
                                                   stats);
    case 5: return full_match_block_scalar_impl<5>(s, queries, match_masks,
                                                   stats);
    case 6: return full_match_block_scalar_impl<6>(s, queries, match_masks,
                                                   stats);
    case 7: return full_match_block_scalar_impl<7>(s, queries, match_masks,
                                                   stats);
    case 8: return full_match_block_scalar_impl<8>(s, queries, match_masks,
                                                   stats);
    default:
      throw std::invalid_argument("block size out of range");
  }
}

void two_step_match_block_scalar(const ShardView& s,
                                 const std::uint64_t* const* queries, int nq,
                                 std::uint64_t* const* match_masks,
                                 arch::SearchStats* stats) {
  switch (nq) {
    case 1: return two_step_match_block_scalar_impl<1>(s, queries,
                                                       match_masks, stats);
    case 2: return two_step_match_block_scalar_impl<2>(s, queries,
                                                       match_masks, stats);
    case 3: return two_step_match_block_scalar_impl<3>(s, queries,
                                                       match_masks, stats);
    case 4: return two_step_match_block_scalar_impl<4>(s, queries,
                                                       match_masks, stats);
    case 5: return two_step_match_block_scalar_impl<5>(s, queries,
                                                       match_masks, stats);
    case 6: return two_step_match_block_scalar_impl<6>(s, queries,
                                                       match_masks, stats);
    case 7: return two_step_match_block_scalar_impl<7>(s, queries,
                                                       match_masks, stats);
    case 8: return two_step_match_block_scalar_impl<8>(s, queries,
                                                       match_masks, stats);
    default:
      throw std::invalid_argument("block size out of range");
  }
}

#if !defined(FETCAM_HAVE_AVX2)
// Stubs so the dispatch switch links in scalar-only builds; the tier is
// reported unavailable, so these are unreachable.
void full_match_block_avx2(const ShardView& s,
                           const std::uint64_t* const* queries, int nq,
                           std::uint64_t* const* match_masks,
                           arch::SearchStats* stats) {
  full_match_block_scalar(s, queries, nq, match_masks, stats);
}
void two_step_match_block_avx2(const ShardView& s,
                               const std::uint64_t* const* queries, int nq,
                               std::uint64_t* const* match_masks,
                               arch::SearchStats* stats) {
  two_step_match_block_scalar(s, queries, nq, match_masks, stats);
}
#endif

}  // namespace detail

PackedQuery PackedQuery::pack(const arch::BitWord& query) {
  PackedQuery q;
  q.repack(query);
  return q;
}

void PackedQuery::repack(const arch::BitWord& query) {
  cols = static_cast<int>(query.size());
  bits.assign((query.size() + 63) / 64, 0);
  std::size_t c = 0;
#if defined(__SSE2__)
  // 16 digits per step: nonzero bytes -> a 16-bit mask (byte-per-digit
  // semantics preserved: any nonzero value is a 1, same as `!= 0`).
  for (; c + 16 <= query.size(); c += 16) {
    const __m128i d = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(query.data() + c));
    const std::uint64_t ones = static_cast<std::uint64_t>(
        ~_mm_movemask_epi8(_mm_cmpeq_epi8(d, _mm_setzero_si128())) & 0xFFFF);
    bits[c >> 6] |= ones << (c & 63);
  }
#endif
  for (; c < query.size(); ++c) {
    bits[c >> 6] |= static_cast<std::uint64_t>(query[c] != 0) << (c & 63);
  }
}

PackedShard::PackedShard(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_((cols + 63) / 64),
      rows_pad_(((rows + 63) / 64) * 64) {
  if (rows < 0 || cols <= 0) {
    throw std::invalid_argument("shard needs rows >= 0 and cols > 0");
  }
  const std::size_t words = static_cast<std::size_t>(rows_pad_) *
                            static_cast<std::size_t>(words_per_row_);
  care_.assign(words, 0);   // all-'X': nothing participates in matching
  value_.assign(words, 0);
  valid_.assign(mask_words(), 0);
}

void PackedShard::check_row(int row) const {
  if (row < 0 || row >= rows_) throw std::out_of_range("row out of range");
}

void PackedShard::check_query(const PackedQuery& query) const {
  if (query.cols != cols_) {
    throw std::invalid_argument("query width mismatch");
  }
}

detail::ShardView PackedShard::view() const {
  detail::ShardView v;
  v.care = care_.data();
  v.value = value_.data();
  v.valid = valid_.data();
  v.rows = rows_;
  v.rows_pad = rows_pad_;
  v.wpr = words_per_row_;
  return v;
}

void PackedShard::write(int row, const arch::TernaryWord& entry) {
  check_row(row);
  if (static_cast<int>(entry.size()) != cols_) {
    throw std::invalid_argument("entry width mismatch");
  }
  arch::pack_ternary(entry, &care_[plane_index(row, 0)],
                     &value_[plane_index(row, 0)],
                     static_cast<std::size_t>(rows_pad_));
  valid_[static_cast<std::size_t>(row) >> 6] |= 1ULL << (row & 63);
}

void PackedShard::erase(int row) {
  check_row(row);
  valid_[static_cast<std::size_t>(row) >> 6] &= ~(1ULL << (row & 63));
}

bool PackedShard::valid(int row) const {
  check_row(row);
  return (valid_[static_cast<std::size_t>(row) >> 6] >> (row & 63)) & 1ULL;
}

arch::TernaryWord PackedShard::entry(int row) const {
  check_row(row);
  arch::TernaryWord out(static_cast<std::size_t>(cols_), arch::Ternary::kX);
  for (int c = 0; c < cols_; ++c) {
    const std::size_t word = plane_index(row, c >> 6);
    const std::uint64_t bit = 1ULL << (c & 63);
    if ((care_[word] & bit) == 0) continue;
    out[static_cast<std::size_t>(c)] = (value_[word] & bit) != 0
                                           ? arch::Ternary::kOne
                                           : arch::Ternary::kZero;
  }
  return out;
}

arch::SearchStats PackedShard::full_match(
    const PackedQuery& query, std::vector<std::uint64_t>& match_mask) const {
  return full_match(query, match_mask, active_kernel_tier());
}

arch::SearchStats PackedShard::full_match(const PackedQuery& query,
                                          std::vector<std::uint64_t>& match_mask,
                                          KernelTier tier) const {
  // The kernel overwrites every word, so no fill is needed.
  match_mask.resize(mask_words());
  const PackedQuery* queries[1] = {&query};
  std::uint64_t* masks[1] = {match_mask.data()};
  arch::SearchStats stats;
  full_match_block(queries, 1, masks, &stats, tier);
  return stats;
}

arch::SearchStats PackedShard::two_step_match(
    const PackedQuery& query, std::vector<std::uint64_t>& match_mask) const {
  return two_step_match(query, match_mask, active_kernel_tier());
}

arch::SearchStats PackedShard::two_step_match(
    const PackedQuery& query, std::vector<std::uint64_t>& match_mask,
    KernelTier tier) const {
  match_mask.resize(mask_words());
  const PackedQuery* queries[1] = {&query};
  std::uint64_t* masks[1] = {match_mask.data()};
  arch::SearchStats stats;
  two_step_match_block(queries, 1, masks, &stats, tier);
  return stats;
}

void PackedShard::check_block(const PackedQuery* const* queries,
                              int nq) const {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("query block size must be in [1, " +
                                std::to_string(kMaxQueryBlock) + "], got " +
                                std::to_string(nq));
  }
  for (int q = 0; q < nq; ++q) check_query(*queries[q]);
}

void PackedShard::full_match_block(const PackedQuery* const* queries, int nq,
                                   std::uint64_t* const* match_masks,
                                   arch::SearchStats* stats) const {
  full_match_block(queries, nq, match_masks, stats, active_kernel_tier());
}

void PackedShard::full_match_block(const PackedQuery* const* queries, int nq,
                                   std::uint64_t* const* match_masks,
                                   arch::SearchStats* stats,
                                   KernelTier tier) const {
  check_block(queries, nq);
  if (rows_ == 0) {
    for (int q = 0; q < nq; ++q) stats[q] = arch::SearchStats{};
    return;
  }
  const std::uint64_t* qbits[kMaxQueryBlock];
  for (int q = 0; q < nq; ++q) qbits[q] = queries[q]->bits.data();
  switch (tier) {
    case KernelTier::kAvx2:
      detail::full_match_block_avx2(view(), qbits, nq, match_masks, stats);
      return;
    case KernelTier::kScalar:
      break;
  }
  detail::full_match_block_scalar(view(), qbits, nq, match_masks, stats);
}

void PackedShard::two_step_match_block(const PackedQuery* const* queries,
                                       int nq,
                                       std::uint64_t* const* match_masks,
                                       arch::SearchStats* stats) const {
  two_step_match_block(queries, nq, match_masks, stats, active_kernel_tier());
}

void PackedShard::two_step_match_block(const PackedQuery* const* queries,
                                       int nq,
                                       std::uint64_t* const* match_masks,
                                       arch::SearchStats* stats,
                                       KernelTier tier) const {
  check_block(queries, nq);
  if (cols_ % 2 != 0) {
    throw std::invalid_argument(
        "two-step search needs an even word length (shard is " +
        std::to_string(rows_) + " rows x " + std::to_string(cols_) + " cols)");
  }
  if (rows_ == 0) {
    for (int q = 0; q < nq; ++q) stats[q] = arch::SearchStats{};
    return;
  }
  const std::uint64_t* qbits[kMaxQueryBlock];
  for (int q = 0; q < nq; ++q) qbits[q] = queries[q]->bits.data();
  switch (tier) {
    case KernelTier::kAvx2:
      detail::two_step_match_block_avx2(view(), qbits, nq, match_masks,
                                        stats);
      return;
    case KernelTier::kScalar:
      break;
  }
  detail::two_step_match_block_scalar(view(), qbits, nq, match_masks, stats);
}

std::vector<bool> PackedShard::search(const arch::BitWord& query) const {
  std::vector<std::uint64_t> mask;
  full_match(PackedQuery::pack(query), mask);
  std::vector<bool> out(static_cast<std::size_t>(rows_), false);
  for (int r = 0; r < rows_; ++r) {
    out[static_cast<std::size_t>(r)] =
        (mask[static_cast<std::size_t>(r) >> 6] >> (r & 63)) & 1ULL;
  }
  return out;
}

arch::ScheduledSearchResult PackedShard::two_step_search(
    const arch::BitWord& query) const {
  std::vector<std::uint64_t> mask;
  arch::ScheduledSearchResult res;
  res.stats = two_step_match(PackedQuery::pack(query), mask);
  res.matches.assign(static_cast<std::size_t>(rows_), false);
  for (int r = 0; r < rows_; ++r) {
    res.matches[static_cast<std::size_t>(r)] =
        (mask[static_cast<std::size_t>(r) >> 6] >> (r & 63)) & 1ULL;
  }
  return res;
}

}  // namespace fetcam::engine
