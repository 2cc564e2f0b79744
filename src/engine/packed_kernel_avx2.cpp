// AVX2 tier of the PackedShard match kernels.  Compiled with -mavx2 only
// when FETCAM_SIMD=ON and the compiler supports the flag; selected at
// runtime via __builtin_cpu_supports("avx2") (packed_kernel.cpp).
//
// The planar layout stores word w of rows r..r+3 contiguously, so one
// 256-bit load covers 4 rows' care (or value) words — the mismatch test
//
//   care & (value ^ query) != 0
//
// runs on 4 rows per vector op with no gathers.  Rows are padded to a
// multiple of 64 with care = value = valid = 0: padded lanes report
// "match" out of the compare (zero care never mismatches) and are then
// stripped by the valid mask, exactly like erased rows.
//
// Statistics are computed from the per-64-row-block bitmasks with
// popcounts and are bit-exact against the scalar tier and the behavioral
// per-row counters: early termination changes how much work a group
// costs, never its mismatch outcome (enforced by kernel_differential_test).
#include "engine/packed_kernel.hpp"

#if defined(FETCAM_HAVE_AVX2)

#include <immintrin.h>

#include <array>
#include <bit>
#include <utility>

namespace fetcam::engine::detail {

namespace {

/// 4 lanes -> 4 bits: 1 where the lane's accumulated mismatch word is 0.
inline std::uint64_t zero_lanes(__m256i acc) {
  const __m256i eq = _mm256_cmpeq_epi64(acc, _mm256_setzero_si256());
  return static_cast<std::uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}

/// The digits step 1 tests: all of them single-step, the even ones
/// two-step.
template <MatchMode M>
inline __m256i step1_digits(__m256i mis) {
  if constexpr (M == MatchMode::kTwoStep) {
    return _mm256_and_si256(
        mis, _mm256_set1_epi64x(static_cast<long long>(kEvenDigits)));
  } else {
    return mis;
  }
}

/// True when every lane of every query's accumulated mismatch word fails
/// step 1 — all 4 rows of the group have mismatched every query there, so
/// the remaining words cannot change the outcome (acc only grows).  The
/// vector form of the scalar tier's per-row early exit: it only affects
/// how much work a group costs, never the match bits.
template <MatchMode M, int NQ>
inline bool all_lanes_fail_step1(const __m256i (&acc)[NQ]) {
  std::uint64_t any_zero = 0;
  for (int q = 0; q < NQ; ++q) {
    any_zero |= zero_lanes(step1_digits<M>(acc[q]));
  }
  return any_zero == 0;
}

// The AVX2 tier: one pass over the planar words per 4-row vector group,
// the shared care/value loads reused by all NQ queries.  A single
// mismatch accumulator per query serves both steps because OR commutes
// with the parity masks: OR_w(mis_w & even) == (OR_w mis_w) & even, so
// the step-1 / step-2 zero tests read the even / odd halves of the same
// accumulator.  M and NQ are template parameters: the single-step
// instance tests each accumulator once, and `acc` unrolls into NQ ymm
// registers (NQ <= kMaxQueryBlock = 8 accumulators + care/value/broadcast
// temporaries fit the 16 available).
template <MatchMode M, int NQ>
void exact_block_avx2(const ShardView& s, const std::uint64_t* const* queries,
                      std::uint64_t* const* match_masks,
                      arch::SearchStats* stats) {
  constexpr bool kTwoStep = M == MatchMode::kTwoStep;
  for (int q = 0; q < NQ; ++q) begin_exact_stats<M>(s, stats[q]);
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  const __m256i odd = _mm256_set1_epi64x(static_cast<long long>(kOddDigits));
  // One-word rows (cols <= 64, the serving sweet spot): each query's
  // broadcast is loop-invariant, so hoist all NQ of them out of the row
  // walk.  The row walk then shares every care/value load across NQ
  // queries; no accumulator array (the mismatch word feeds the step tests
  // directly), so even NQ = 8 stays within the 16 ymm registers.
  if (s.wpr == 1) {
    __m256i qw[NQ];
    for (int q = 0; q < NQ; ++q) {
      qw[q] = _mm256_set1_epi64x(static_cast<long long>(queries[q][0]));
    }
    for (int b = 0; b < blocks; ++b) {
      const std::size_t r0 = static_cast<std::size_t>(b) * 64;
      std::uint64_t step1_ok[NQ] = {};
      std::uint64_t step2_ok[NQ] = {};
      for (int g = 0; g < 16; ++g) {
        const std::size_t r = r0 + static_cast<std::size_t>(g) * 4;
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.care + r));
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.value + r));
        for (int q = 0; q < NQ; ++q) {
          const __m256i mis =
              _mm256_and_si256(c, _mm256_xor_si256(v, qw[q]));
          step1_ok[q] |= zero_lanes(step1_digits<M>(mis)) << (g * 4);
          if constexpr (kTwoStep) {
            step2_ok[q] |= zero_lanes(_mm256_and_si256(mis, odd)) << (g * 4);
          }
        }
      }
      for (int q = 0; q < NQ; ++q) {
        finish_exact_block<M>(s, b, step1_ok[q], step2_ok[q], match_masks[q],
                              stats[q]);
      }
    }
    return;
  }
  for (int b = 0; b < blocks; ++b) {
    const std::size_t r0 = static_cast<std::size_t>(b) * 64;
    std::uint64_t step1_ok[NQ] = {};
    std::uint64_t step2_ok[NQ] = {};
    for (int g = 0; g < 16; ++g) {
      const std::size_t r = r0 + static_cast<std::size_t>(g) * 4;
      __m256i acc[NQ];
      for (int q = 0; q < NQ; ++q) acc[q] = _mm256_setzero_si256();
      for (int w = 0; w < s.wpr; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * pad + r;
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.care + at));
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.value + at));
        for (int q = 0; q < NQ; ++q) {
          const __m256i qw = _mm256_set1_epi64x(
              static_cast<long long>(queries[q][w]));
          acc[q] = _mm256_or_si256(
              acc[q], _mm256_and_si256(c, _mm256_xor_si256(v, qw)));
        }
        // Every query already fails step 1 on all 4 rows: the odd bits
        // left unfinished (two-step) are masked off with the rows.
        if (w + 1 < s.wpr && all_lanes_fail_step1<M>(acc)) break;
      }
      for (int q = 0; q < NQ; ++q) {
        step1_ok[q] |= zero_lanes(step1_digits<M>(acc[q])) << (g * 4);
        if constexpr (kTwoStep) {
          step2_ok[q] |= zero_lanes(_mm256_and_si256(acc[q], odd)) << (g * 4);
        }
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
constexpr std::array<ExactKernel, kMaxQueryBlock> avx2_kernels(
    std::index_sequence<I...>) {
  return {&exact_block_avx2<M, static_cast<int>(I) + 1>...};
}

/// Instance table indexed [mode][nq - 1].
constexpr std::array<std::array<ExactKernel, kMaxQueryBlock>, 2>
    kAvx2Kernels = {
        avx2_kernels<MatchMode::kFull>(
            std::make_index_sequence<kMaxQueryBlock>{}),
        avx2_kernels<MatchMode::kTwoStep>(
            std::make_index_sequence<kMaxQueryBlock>{}),
};

}  // namespace

void exact_match_block_avx2(const ShardView& s, MatchMode mode,
                            const std::uint64_t* const* queries, int nq,
                            std::uint64_t* const* match_masks,
                            arch::SearchStats* stats) {
  kAvx2Kernels[static_cast<std::size_t>(mode)]
              [static_cast<std::size_t>(nq - 1)](s, queries, match_masks,
                                                 stats);
}

}  // namespace fetcam::engine::detail

#endif  // FETCAM_HAVE_AVX2
