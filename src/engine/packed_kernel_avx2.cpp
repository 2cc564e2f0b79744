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

#include <bit>
#include <stdexcept>

namespace fetcam::engine::detail {

namespace {

constexpr std::uint64_t kEvenDigits = 0x5555555555555555ULL;
constexpr std::uint64_t kOddDigits = 0xAAAAAAAAAAAAAAAAULL;

/// 4 lanes -> 4 bits: 1 where the lane's accumulated mismatch word is 0.
inline std::uint64_t zero_lanes(__m256i acc) {
  const __m256i eq = _mm256_cmpeq_epi64(acc, _mm256_setzero_si256());
  return static_cast<std::uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}

/// True when every lane of every query's accumulated mismatch word has a
/// bit under `digits` — all 4 rows of the group have mismatched every
/// query there, so the remaining words cannot change the outcome (acc
/// only grows).  The vector form of the scalar tier's per-row early exit:
/// it only affects how much work a group costs, never the match bits.
template <int NQ>
inline bool all_lanes_mismatch(const __m256i (&acc)[NQ], __m256i digits) {
  std::uint64_t any_zero = 0;
  for (int q = 0; q < NQ; ++q) {
    any_zero |= zero_lanes(_mm256_and_si256(acc[q], digits));
  }
  return any_zero == 0;
}

// Query-blocked tiers: one pass over the planar words per 4-row vector
// group, the shared care/value loads reused by all NQ queries.  A single
// mismatch accumulator per query serves both steps because OR commutes
// with the parity masks: OR_w(mis_w & even) == (OR_w mis_w) & even, so
// the step-1 / step-2 zero tests read the even / odd halves of the same
// accumulator.  NQ is a template parameter so `acc` unrolls into NQ ymm
// registers (NQ <= kMaxQueryBlock = 8 accumulators + care/value/broadcast
// temporaries fit the 16 available).
template <int NQ>
void full_match_block_avx2_impl(const ShardView& s,
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
  // One-word rows (cols <= 64, the serving sweet spot): each query's
  // broadcast is loop-invariant, so hoist all NQ of them out of the row
  // walk.  The row walk then shares every care/value load across NQ
  // queries at 3 ALU ops per query per 4-row group.
  if (s.wpr == 1) {
    __m256i qw[NQ];
    for (int q = 0; q < NQ; ++q) {
      qw[q] = _mm256_set1_epi64x(static_cast<long long>(queries[q][0]));
    }
    for (int b = 0; b < blocks; ++b) {
      const std::size_t r0 = static_cast<std::size_t>(b) * 64;
      std::uint64_t ok_bits[NQ] = {};
      for (int g = 0; g < 16; ++g) {
        const std::size_t r = r0 + static_cast<std::size_t>(g) * 4;
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.care + r));
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.value + r));
        for (int q = 0; q < NQ; ++q) {
          const __m256i mis =
              _mm256_and_si256(c, _mm256_xor_si256(v, qw[q]));
          ok_bits[q] |= zero_lanes(mis) << (g * 4);
        }
      }
      const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
      for (int q = 0; q < NQ; ++q) {
        const std::uint64_t match = ok_bits[q] & valid;
        match_masks[q][static_cast<std::size_t>(b)] = match;
        stats[q].matches += std::popcount(match);
      }
    }
    return;
  }
  const __m256i all_digits = _mm256_set1_epi64x(-1);
  for (int b = 0; b < blocks; ++b) {
    const std::size_t r0 = static_cast<std::size_t>(b) * 64;
    std::uint64_t ok_bits[NQ] = {};
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
        if (w + 1 < s.wpr && all_lanes_mismatch(acc, all_digits)) break;
      }
      for (int q = 0; q < NQ; ++q) {
        ok_bits[q] |= zero_lanes(acc[q]) << (g * 4);
      }
    }
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    for (int q = 0; q < NQ; ++q) {
      const std::uint64_t match = ok_bits[q] & valid;
      match_masks[q][static_cast<std::size_t>(b)] = match;
      stats[q].matches += std::popcount(match);
    }
  }
}

template <int NQ>
void two_step_match_block_avx2_impl(const ShardView& s,
                                    const std::uint64_t* const* queries,
                                    std::uint64_t* const* match_masks,
                                    arch::SearchStats* stats) {
  for (int q = 0; q < NQ; ++q) {
    stats[q] = arch::SearchStats{};
    stats[q].rows = s.rows;
  }
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  const __m256i even = _mm256_set1_epi64x(static_cast<long long>(kEvenDigits));
  const __m256i odd = _mm256_set1_epi64x(static_cast<long long>(kOddDigits));
  // One-word fast path, as in the full-match tier: broadcasts hoisted,
  // no accumulator array (a single mismatch word feeds both parity
  // tests directly), so even NQ = 8 stays within the 16 ymm registers.
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
          step1_ok[q] |= zero_lanes(_mm256_and_si256(mis, even)) << (g * 4);
          step2_ok[q] |= zero_lanes(_mm256_and_si256(mis, odd)) << (g * 4);
        }
      }
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
        // left unfinished are masked off by `alive` below.
        if (w + 1 < s.wpr && all_lanes_mismatch(acc, even)) break;
      }
      for (int q = 0; q < NQ; ++q) {
        step1_ok[q] |= zero_lanes(_mm256_and_si256(acc[q], even)) << (g * 4);
        step2_ok[q] |= zero_lanes(_mm256_and_si256(acc[q], odd)) << (g * 4);
      }
    }
    // Invalid (and padded) rows miss in step 1; per-block popcount
    // accounting reproduces the behavioral per-row counters exactly.
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

void full_match_block_avx2(const ShardView& s,
                           const std::uint64_t* const* queries, int nq,
                           std::uint64_t* const* match_masks,
                           arch::SearchStats* stats) {
  switch (nq) {
    case 1: return full_match_block_avx2_impl<1>(s, queries, match_masks,
                                                 stats);
    case 2: return full_match_block_avx2_impl<2>(s, queries, match_masks,
                                                 stats);
    case 3: return full_match_block_avx2_impl<3>(s, queries, match_masks,
                                                 stats);
    case 4: return full_match_block_avx2_impl<4>(s, queries, match_masks,
                                                 stats);
    case 5: return full_match_block_avx2_impl<5>(s, queries, match_masks,
                                                 stats);
    case 6: return full_match_block_avx2_impl<6>(s, queries, match_masks,
                                                 stats);
    case 7: return full_match_block_avx2_impl<7>(s, queries, match_masks,
                                                 stats);
    case 8: return full_match_block_avx2_impl<8>(s, queries, match_masks,
                                                 stats);
    default:
      throw std::invalid_argument("block size out of range");
  }
}

void two_step_match_block_avx2(const ShardView& s,
                               const std::uint64_t* const* queries, int nq,
                               std::uint64_t* const* match_masks,
                               arch::SearchStats* stats) {
  switch (nq) {
    case 1: return two_step_match_block_avx2_impl<1>(s, queries, match_masks,
                                                     stats);
    case 2: return two_step_match_block_avx2_impl<2>(s, queries, match_masks,
                                                     stats);
    case 3: return two_step_match_block_avx2_impl<3>(s, queries, match_masks,
                                                     stats);
    case 4: return two_step_match_block_avx2_impl<4>(s, queries, match_masks,
                                                     stats);
    case 5: return two_step_match_block_avx2_impl<5>(s, queries, match_masks,
                                                     stats);
    case 6: return two_step_match_block_avx2_impl<6>(s, queries, match_masks,
                                                     stats);
    case 7: return two_step_match_block_avx2_impl<7>(s, queries, match_masks,
                                                     stats);
    case 8: return two_step_match_block_avx2_impl<8>(s, queries, match_masks,
                                                     stats);
    default:
      throw std::invalid_argument("block size out of range");
  }
}

}  // namespace fetcam::engine::detail

#endif  // FETCAM_HAVE_AVX2
