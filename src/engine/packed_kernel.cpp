#include "engine/packed_kernel.hpp"

#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fetcam::engine {

namespace {

bool cpu_has_avx2() {
#if defined(FETCAM_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

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

namespace detail {

namespace {

/// True when every query's accumulated mismatch word has a bit under
/// `digits` — each query has mismatched the row there, so the remaining
/// words cannot change its outcome (acc only grows).  The per-row early
/// exit on multi-word rows.
template <int NQ>
bool all_queries_mismatch(const std::uint64_t (&acc)[NQ],
                          std::uint64_t digits) {
  for (int q = 0; q < NQ; ++q) {
    if ((acc[q] & digits) == 0) return false;
  }
  return true;
}

// The scalar tier: one pass over the planar words per 64-row block, each
// (care, value) word pair loaded ONCE and tested against all NQ queries.
// A single mismatch accumulator per query suffices for both steps because
// OR commutes with the parity masks: OR_w(mis_w & even) ==
// (OR_w mis_w) & even — so the step-1 / step-2 zero tests read the even /
// odd halves of the same accumulator.  Invalid and padded rows load no
// words: finish_exact_block masks them off whatever their pass bits say.
// M and NQ are template parameters, so the step masks fold into the loop
// and the accumulator array unrolls into registers.
template <MatchMode M, int NQ>
void exact_block_scalar(const ShardView& s,
                        const std::uint64_t* const* queries,
                        std::uint64_t* const* match_masks,
                        arch::SearchStats* stats) {
  constexpr bool kTwoStep = M == MatchMode::kTwoStep;
  // Step 1 settles a row: all digits single-step, the even ones two-step.
  constexpr std::uint64_t kStep1 = kTwoStep ? kEvenDigits : ~0ULL;
  for (int q = 0; q < NQ; ++q) begin_exact_stats<M>(s, stats[q]);
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  for (int b = 0; b < blocks; ++b) {
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    std::uint64_t step1_ok[NQ] = {};
    std::uint64_t step2_ok[NQ] = {};
    const auto match_row = [&](int r) {
      const std::size_t row = static_cast<std::size_t>(b) * 64 +
                              static_cast<std::size_t>(r);
      std::uint64_t acc[NQ] = {};
      for (int w = 0; w < s.wpr; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * pad + row;
        const std::uint64_t c = s.care[at];
        const std::uint64_t v = s.value[at];
        for (int q = 0; q < NQ; ++q) acc[q] |= c & (v ^ queries[q][w]);
        // Every query already fails step 1: the odd bits left unfinished
        // (two-step) are masked off with the row, so its outcome is settled.
        if (w + 1 < s.wpr && all_queries_mismatch(acc, kStep1)) break;
      }
      for (int q = 0; q < NQ; ++q) {
        step1_ok[q] |= static_cast<std::uint64_t>((acc[q] & kStep1) == 0) << r;
        if constexpr (kTwoStep) {
          step2_ok[q] |=
              static_cast<std::uint64_t>((acc[q] & kOddDigits) == 0) << r;
        }
      }
    };
    // Only valid rows load words.  A full block keeps the plain row loop:
    // walking its valid bits made an all-valid 4,096 x 128 single query
    // ~20% slower.
    if (valid == ~0ULL) {
      for (int r = 0; r < 64; ++r) match_row(r);
    } else {
      for (std::uint64_t live = valid; live != 0; live &= live - 1) {
        match_row(std::countr_zero(live));
      }
    }
    for (int q = 0; q < NQ; ++q) {
      finish_exact_block<M>(s, b, step1_ok[q], step2_ok[q], match_masks[q],
                            stats[q]);
    }
  }
}

using ExactKernel = void (*)(const ShardView&, const std::uint64_t* const*,
                             std::uint64_t* const*, arch::SearchStats*);

template <MatchMode M, std::size_t... I>
constexpr std::array<ExactKernel, kMaxQueryBlock> scalar_kernels(
    std::index_sequence<I...>) {
  return {&exact_block_scalar<M, static_cast<int>(I) + 1>...};
}

/// Instance table indexed [mode][nq - 1].
constexpr std::array<std::array<ExactKernel, kMaxQueryBlock>, 2>
    kScalarKernels = {
        scalar_kernels<MatchMode::kFull>(
            std::make_index_sequence<kMaxQueryBlock>{}),
        scalar_kernels<MatchMode::kTwoStep>(
            std::make_index_sequence<kMaxQueryBlock>{}),
};

}  // namespace

void exact_match_block_scalar(const ShardView& s, MatchMode mode,
                              const std::uint64_t* const* queries, int nq,
                              std::uint64_t* const* match_masks,
                              arch::SearchStats* stats) {
  kScalarKernels[static_cast<std::size_t>(mode)]
                [static_cast<std::size_t>(nq - 1)](s, queries, match_masks,
                                                   stats);
}

#if !defined(FETCAM_HAVE_AVX2)
// Stub so the dispatch switch links in scalar-only builds; the tier is
// reported unavailable, so it is unreachable.
void exact_match_block_avx2(const ShardView& s, MatchMode mode,
                            const std::uint64_t* const* queries, int nq,
                            std::uint64_t* const* match_masks,
                            arch::SearchStats* stats) {
  exact_match_block_scalar(s, mode, queries, nq, match_masks, stats);
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

void PackedShard::match_block(detail::MatchMode mode,
                              const PackedQuery* const* queries, int nq,
                              std::uint64_t* const* match_masks,
                              arch::SearchStats* stats,
                              KernelTier tier) const {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("query block size must be in [1, " +
                                std::to_string(kMaxQueryBlock) + "], got " +
                                std::to_string(nq));
  }
  for (int q = 0; q < nq; ++q) {
    if (queries[q]->cols != cols_) {
      throw std::invalid_argument("query width mismatch");
    }
  }
  if (mode == detail::MatchMode::kTwoStep && cols_ % 2 != 0) {
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
      detail::exact_match_block_avx2(view(), mode, qbits, nq, match_masks,
                                     stats);
      return;
    case KernelTier::kScalar:
      break;
  }
  detail::exact_match_block_scalar(view(), mode, qbits, nq, match_masks,
                                   stats);
}

arch::SearchStats PackedShard::match_one(detail::MatchMode mode,
                                         const PackedQuery& query,
                                         std::vector<std::uint64_t>& match_mask,
                                         KernelTier tier) const {
  // The kernel overwrites every word, so no fill is needed.
  match_mask.resize(mask_words());
  const PackedQuery* queries[1] = {&query};
  std::uint64_t* masks[1] = {match_mask.data()};
  arch::SearchStats stats;
  match_block(mode, queries, 1, masks, &stats, tier);
  return stats;
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
