// Scalar tier + dispatch of the packed approximate-match kernels.  The
// scalar loop is the golden reference (the AVX2 tier and the behavioral
// arch::approx_search are validated against it and each other by
// tests/engine/approx_kernel_test.cpp).
#include "engine/approx_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace fetcam::engine {

namespace detail {

namespace {

/// collapse_digits with the digit width fixed at compile time.  `phase`
/// is the word's (3 - w % 3) % 3 and `next` the following mismatch word;
/// both are read at d = 3 only.
template <int D>
inline std::uint64_t collapse(std::uint64_t mis, std::uint64_t next,
                              int phase) {
  if constexpr (D == 1) {
    return mis;
  } else if constexpr (D == 2) {
    // 64 % 2 == 0: groups never straddle words, `next` is irrelevant.
    return (mis | (mis >> 1)) & kDigitStarts2;
  } else {
    // Groups straddle word boundaries: pull the next word's low bits into
    // the straddling group's start position, then keep only the starts
    // whose global bit index is a multiple of 3.  64 ≡ 1 (mod 3), so the
    // start offset cycles with w mod 3.
    const std::uint64_t gather = mis | ((mis >> 1) | (next << 63)) |
                                 ((mis >> 2) | (next << 62));
    return gather & kDigitStarts3[phase];
  }
}

/// One (digit width, block size) instance of the scalar tier: per valid
/// row, each care/value word is loaded once and scored against all NQ
/// queries; the row stops once it is past every query's threshold.
template <int D, int NQ>
void approx_block_scalar(const ShardView& s,
                         const std::uint64_t* const* queries,
                         const int* thresholds,
                         std::uint64_t* const* within_masks,
                         std::uint16_t* const* distances,
                         arch::SearchStats* stats) {
  for (int q = 0; q < NQ; ++q) {
    stats[q] = arch::SearchStats{};
    stats[q].rows = s.rows;
    stats[q].step2_evaluated = s.rows;  // single-step accounting
    std::fill_n(distances[q], s.rows_pad, kDistanceOverflow);
  }
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  for (int b = 0; b < blocks; ++b) {
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    std::uint64_t ok[NQ] = {};
    const int real_rows = s.rows - b * 64 < 64 ? s.rows - b * 64 : 64;
    for (int i = 0; i < real_rows; ++i) {
      if (((valid >> i) & 1ULL) == 0) continue;  // erased rows never match
      const std::size_t r = static_cast<std::size_t>(b) * 64 +
                            static_cast<std::size_t>(i);
      int dist[NQ] = {};
      // d = 3 collapses word w with word w + 1's mismatch, so the
      // mismatch runs one word ahead of the count.
      std::uint64_t next[NQ] = {};
      if constexpr (D == 3) {
        for (int q = 0; q < NQ; ++q) {
          next[q] = s.care[r] & (s.value[r] ^ queries[q][0]);
        }
      }
      int phase = 0;
      for (int w = 0; w < s.wpr; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * pad + r;
        bool far = true;
        if constexpr (D == 3) {
          const bool more = w + 1 < s.wpr;
          const std::uint64_t c = more ? s.care[at + pad] : 0;
          const std::uint64_t v = more ? s.value[at + pad] : 0;
          for (int q = 0; q < NQ; ++q) {
            const std::uint64_t mis = next[q];
            next[q] = more ? c & (v ^ queries[q][w + 1]) : 0;
            dist[q] += std::popcount(collapse<3>(mis, next[q], phase));
            far = far && dist[q] > thresholds[q];
          }
          phase = phase == 0 ? 2 : phase - 1;
        } else {
          const std::uint64_t c = s.care[at];
          const std::uint64_t v = s.value[at];
          for (int q = 0; q < NQ; ++q) {
            dist[q] += std::popcount(
                collapse<D>(c & (v ^ queries[q][w]), 0, 0));
            far = far && dist[q] > thresholds[q];
          }
        }
        if (far) break;  // outcome settled: too far for every query
      }
      for (int q = 0; q < NQ; ++q) {
        if (dist[q] <= thresholds[q]) {
          ok[q] |= 1ULL << i;
          distances[q][r] = static_cast<std::uint16_t>(dist[q]);
        }
      }
    }
    for (int q = 0; q < NQ; ++q) {
      within_masks[q][static_cast<std::size_t>(b)] = ok[q];
      stats[q].matches += std::popcount(ok[q]);
    }
  }
}

using BlockKernel = void (*)(const ShardView&, const std::uint64_t* const*,
                             const int*, std::uint64_t* const*,
                             std::uint16_t* const*, arch::SearchStats*);

template <int D, std::size_t... I>
constexpr std::array<BlockKernel, kMaxQueryBlock> scalar_kernels(
    std::index_sequence<I...>) {
  return {&approx_block_scalar<D, static_cast<int>(I) + 1>...};
}

/// Instance table indexed [digit_bits - 1][nq - 1].
constexpr std::array<std::array<BlockKernel, kMaxQueryBlock>, 3>
    kScalarKernels = {
        scalar_kernels<1>(std::make_index_sequence<kMaxQueryBlock>{}),
        scalar_kernels<2>(std::make_index_sequence<kMaxQueryBlock>{}),
        scalar_kernels<3>(std::make_index_sequence<kMaxQueryBlock>{}),
};

}  // namespace

std::uint64_t collapse_digits(std::uint64_t mis, std::uint64_t next, int w,
                              int digit_bits) {
  switch (digit_bits) {
    case 1:
      return collapse<1>(mis, next, 0);
    case 2:
      return collapse<2>(mis, next, 0);
    case 3:
      return collapse<3>(mis, next, (3 - w % 3) % 3);
    default:
      throw std::invalid_argument("digit_bits must be in [1, 3]");
  }
}

void approx_match_block_scalar(const ShardView& s,
                               const std::uint64_t* const* queries, int nq,
                               int digit_bits, const int* thresholds,
                               std::uint64_t* const* within_masks,
                               std::uint16_t* const* distances,
                               arch::SearchStats* stats) {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("block size out of range");
  }
  if (digit_bits < 1 || digit_bits > 3) {
    throw std::invalid_argument("digit_bits must be in [1, 3]");
  }
  kScalarKernels[static_cast<std::size_t>(digit_bits - 1)]
                [static_cast<std::size_t>(nq - 1)](
      s, queries, thresholds, within_masks, distances, stats);
}

}  // namespace detail

namespace {

void check_approx_args(const PackedShard& shard, const PackedQuery& query,
                       int digit_bits, int threshold) {
  if (digit_bits < 1 || digit_bits > 3) {
    throw std::invalid_argument("digit_bits must be in [1, 3]");
  }
  if (shard.cols() % digit_bits != 0) {
    throw std::invalid_argument("cols must be a multiple of digit_bits");
  }
  if (threshold < 0) {
    throw std::invalid_argument("distance_threshold must be >= 0");
  }
  if (query.cols != shard.cols()) {
    throw std::invalid_argument("query width mismatch");
  }
}

}  // namespace

arch::SearchStats approx_match(const PackedShard& shard,
                               const PackedQuery& query, int digit_bits,
                               int threshold,
                               std::vector<std::uint64_t>& within_mask,
                               std::vector<std::uint16_t>& distances,
                               KernelTier tier) {
  // The kernel overwrites every word and entry, so no fill is needed.
  within_mask.resize(shard.mask_words());
  distances.resize(shard.mask_words() * 64);
  const PackedQuery* queries[1] = {&query};
  std::uint64_t* masks[1] = {within_mask.data()};
  std::uint16_t* dists[1] = {distances.data()};
  arch::SearchStats stats;
  approx_match_block(shard, queries, 1, digit_bits, &threshold, masks, dists,
                     &stats, tier);
  return stats;
}

void approx_match_block(const PackedShard& shard,
                        const PackedQuery* const* queries, int nq,
                        int digit_bits, const int* thresholds,
                        std::uint64_t* const* within_masks,
                        std::uint16_t* const* distances,
                        arch::SearchStats* stats, KernelTier tier) {
  if (nq < 1 || nq > kMaxQueryBlock) {
    throw std::invalid_argument("query block size must be in [1, " +
                                std::to_string(kMaxQueryBlock) + "], got " +
                                std::to_string(nq));
  }
  for (int q = 0; q < nq; ++q) {
    check_approx_args(shard, *queries[q], digit_bits, thresholds[q]);
  }
  if (shard.rows() == 0) {
    for (int q = 0; q < nq; ++q) stats[q] = arch::SearchStats{};
    return;
  }
  const std::uint64_t* qbits[kMaxQueryBlock];
  for (int q = 0; q < nq; ++q) qbits[q] = queries[q]->bits.data();
  const detail::ShardView s = shard.view();
  switch (tier) {
    case KernelTier::kAvx2:
      detail::approx_match_block_avx2(s, qbits, nq, digit_bits, thresholds,
                                      within_masks, distances, stats);
      return;
    case KernelTier::kScalar:
      break;
  }
  detail::approx_match_block_scalar(s, qbits, nq, digit_bits, thresholds,
                                    within_masks, distances, stats);
}

#if !defined(FETCAM_HAVE_AVX2)

namespace detail {

// Scalar stub so non-SIMD builds link; never selected at runtime
// (kernel_tier_available(kAvx2) is false without FETCAM_HAVE_AVX2).
void approx_match_block_avx2(const ShardView& s,
                             const std::uint64_t* const* queries, int nq,
                             int digit_bits, const int* thresholds,
                             std::uint64_t* const* within_masks,
                             std::uint16_t* const* distances,
                             arch::SearchStats* stats) {
  approx_match_block_scalar(s, queries, nq, digit_bits, thresholds,
                            within_masks, distances, stats);
}

}  // namespace detail

#endif  // !FETCAM_HAVE_AVX2

}  // namespace fetcam::engine
