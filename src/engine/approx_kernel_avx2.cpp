// AVX2 tier of the packed approximate-match kernel.  Same planar layout
// as packed_kernel_avx2.cpp: one 256-bit load covers 4 rows' care (or
// value) words, so the digit count runs on 4 rows per vector op, and each
// load is scored against every query of the block before the next one.
//
// Digit counting is specialised per width (template D; lane sums via
// psadbw):
//   d = 1, 2: a 4-bit nibble holds whole digits (4 or 2), so a pshufb
//             nibble LUT counts mismatching digits straight off the
//             mismatch word — no collapse step;
//   d = 3:    digits straddle nibbles and words, so the mismatch word is
//             collapsed onto digit starts first (collapse_digits), then
//             popcounted with the same nibble LUT scheme.
//
// Budget accumulators: a lane starts at -(threshold + 1) and adds its
// digit counts, so its sign bit is set exactly while distance <=
// threshold.  One OR across the block's accumulators plus one movemask
// tells whether any lane of any query is still within — the early-exit
// test — and the final within lanes are the accumulators' sign bits.
//
// Early exit is per 4-row group: once no lane of any query is within its
// threshold the remaining words cannot change any outcome.  Lanes still
// within keep accumulating, so (within, distance) pairs are bit-exact
// against the scalar tier (enforced by tests/engine/approx_kernel_test.cpp).
#include "engine/approx_kernel.hpp"

#if defined(FETCAM_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fetcam::engine::detail {

namespace {

/// Nibble LUT: mismatching digits inside one 4-bit nibble.  d = 2 packs two
/// digits per nibble (bits 0-1, 2-3); d = 1 and the collapsed d = 3 word
/// count set bits.
template <int D>
inline __m256i digit_lut() {
  if constexpr (D == 2) {
    return _mm256_setr_epi8(0, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2,
                            0, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2);
  } else {
    return _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  }
}

/// Per-64-bit-lane sum of lut[nibble] over the lane's 16 nibbles.
inline __m256i nibble_sum_epi64(__m256i v, __m256i lut) {
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), low);
  const __m256i cnt8 = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                       _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt8, _mm256_setzero_si256());
}

/// d = 3 collapse of a 4-row mismatch vector (the vector form of
/// collapse_digits); `starts` is the word's kDigitStarts3 broadcast.
inline __m256i collapse3_epi64(__m256i mis, __m256i next, __m256i starts) {
  const __m256i s1 = _mm256_or_si256(_mm256_srli_epi64(mis, 1),
                                     _mm256_slli_epi64(next, 63));
  const __m256i s2 = _mm256_or_si256(_mm256_srli_epi64(mis, 2),
                                     _mm256_slli_epi64(next, 62));
  return _mm256_and_si256(_mm256_or_si256(mis, _mm256_or_si256(s1, s2)),
                          starts);
}

inline int sign_lanes(__m256i v) {
  return _mm256_movemask_pd(_mm256_castsi256_pd(v));
}

/// One (digit width, block size) instance of the AVX2 tier.
template <int D, int NQ>
void approx_block_avx2(const ShardView& s,
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
  const int wpr = s.wpr;
  const int blocks = s.rows_pad / 64;

  // Query broadcasts, hoisted out of the row walk: word w of query q is
  // the 4-copy vector at qv(w, q).  Thread-local, so a steady-state search
  // allocates nothing.
  thread_local std::vector<std::uint64_t> qbuf;
  qbuf.resize(static_cast<std::size_t>(wpr) * NQ * 4);
  for (int w = 0; w < wpr; ++w) {
    for (int q = 0; q < NQ; ++q) {
      std::fill_n(qbuf.data() + (static_cast<std::size_t>(w) * NQ + q) * 4, 4,
                  queries[q][w]);
    }
  }
  const std::uint64_t* qbase = qbuf.data();
  const auto qv = [qbase](int w, int q) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        qbase + (static_cast<std::size_t>(w) * NQ + q) * 4));
  };
  __m256i budget[NQ];
  for (int q = 0; q < NQ; ++q) {
    budget[q] = _mm256_set1_epi64x(-static_cast<long long>(thresholds[q]) - 1);
  }
  const __m256i lut = digit_lut<D>();

  for (int b = 0; b < blocks; ++b) {
    const std::size_t r0 = static_cast<std::size_t>(b) * 64;
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    std::uint64_t ok[NQ] = {};
    for (int g = 0; g < 16; ++g) {
      const std::size_t r = r0 + static_cast<std::size_t>(g) * 4;
      __m256i acc[NQ];
      for (int q = 0; q < NQ; ++q) acc[q] = budget[q];
      if constexpr (D == 3) {
        // The straddling digit needs word w + 1's mismatch to count word
        // w, so mismatches run one word ahead of the count.
        __m256i next[NQ];
        {
          const __m256i c = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(s.care + r));
          const __m256i v = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(s.value + r));
          for (int q = 0; q < NQ; ++q) {
            next[q] = _mm256_and_si256(c, _mm256_xor_si256(v, qv(0, q)));
          }
        }
        int phase = 0;
        for (int w = 0; w < wpr; ++w) {
          const bool more = w + 1 < wpr;
          const __m256i starts = _mm256_set1_epi64x(
              static_cast<long long>(kDigitStarts3[phase]));
          phase = phase == 0 ? 2 : phase - 1;
          __m256i c = _mm256_setzero_si256();
          __m256i v = _mm256_setzero_si256();
          if (more) {
            const std::size_t at = static_cast<std::size_t>(w + 1) * pad + r;
            c = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(s.care + at));
            v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(s.value + at));
          }
          __m256i near = _mm256_setzero_si256();
          for (int q = 0; q < NQ; ++q) {
            const __m256i mis = next[q];
            next[q] = more ? _mm256_and_si256(
                                 c, _mm256_xor_si256(v, qv(w + 1, q)))
                           : _mm256_setzero_si256();
            acc[q] = _mm256_add_epi64(
                acc[q], nibble_sum_epi64(
                            collapse3_epi64(mis, next[q], starts), lut));
            near = _mm256_or_si256(near, acc[q]);
          }
          // No lane of any query within its threshold: settled.
          if (more && sign_lanes(near) == 0) break;
        }
      } else {
        for (int w = 0; w < wpr; ++w) {
          const std::size_t at = static_cast<std::size_t>(w) * pad + r;
          const __m256i c = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(s.care + at));
          const __m256i v = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(s.value + at));
          __m256i near = _mm256_setzero_si256();
          for (int q = 0; q < NQ; ++q) {
            const __m256i mis =
                _mm256_and_si256(c, _mm256_xor_si256(v, qv(w, q)));
            acc[q] = _mm256_add_epi64(acc[q], nibble_sum_epi64(mis, lut));
            near = _mm256_or_si256(near, acc[q]);
          }
          // No lane of any query within its threshold: settled, and the
          // remaining words are never loaded.
          if (w + 1 < wpr && sign_lanes(near) == 0) break;
        }
      }
      const std::uint64_t group_valid = (valid >> (g * 4)) & 0xf;
      for (int q = 0; q < NQ; ++q) {
        const std::uint64_t near_lanes =
            static_cast<std::uint64_t>(sign_lanes(acc[q]));
        ok[q] |= near_lanes << (g * 4);
        // Only rows that survive the valid gate keep a real distance.
        if ((near_lanes & group_valid) != 0) {
          alignas(32) long long lane[4];
          _mm256_store_si256(reinterpret_cast<__m256i*>(lane), acc[q]);
          for (int l = 0; l < 4; ++l) {
            if (((near_lanes & group_valid) >> l & 1ULL) == 0) continue;
            distances[q][r + static_cast<std::size_t>(l)] =
                static_cast<std::uint16_t>(lane[l] + thresholds[q] + 1);
          }
        }
      }
    }
    for (int q = 0; q < NQ; ++q) {
      const std::uint64_t within = ok[q] & valid;
      within_masks[q][static_cast<std::size_t>(b)] = within;
      stats[q].matches += std::popcount(within);
    }
  }
}

using BlockKernel = void (*)(const ShardView&, const std::uint64_t* const*,
                             const int*, std::uint64_t* const*,
                             std::uint16_t* const*, arch::SearchStats*);

template <int D, std::size_t... I>
constexpr std::array<BlockKernel, kMaxQueryBlock> avx2_kernels(
    std::index_sequence<I...>) {
  return {&approx_block_avx2<D, static_cast<int>(I) + 1>...};
}

/// Instance table indexed [digit_bits - 1][nq - 1].
constexpr std::array<std::array<BlockKernel, kMaxQueryBlock>, 3>
    kAvx2Kernels = {
        avx2_kernels<1>(std::make_index_sequence<kMaxQueryBlock>{}),
        avx2_kernels<2>(std::make_index_sequence<kMaxQueryBlock>{}),
        avx2_kernels<3>(std::make_index_sequence<kMaxQueryBlock>{}),
};

}  // namespace

void approx_match_block_avx2(const ShardView& s,
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
  kAvx2Kernels[static_cast<std::size_t>(digit_bits - 1)]
              [static_cast<std::size_t>(nq - 1)](
      s, queries, thresholds, within_masks, distances, stats);
}

}  // namespace fetcam::engine::detail

#endif  // FETCAM_HAVE_AVX2
