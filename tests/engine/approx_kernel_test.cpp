// Differential suite for the packed approximate-match kernels: scalar and
// AVX2 tiers (and their query-blocked variants) must reproduce the
// behavioral arch::approx_search reference bit-exactly — within flags,
// distances of within-threshold rows, and single-step SearchStats — across
// digit widths d in {1, 2, 3}, word lengths that straddle the 64-bit word
// boundary (63/64/65 digits), all-X rows, and every threshold regime
// (0, 1, whole-row).  Rows past the threshold must report
// kDistanceOverflow regardless of where the early exit fired.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "arch/approx_search.hpp"
#include "arch/behavioral_array.hpp"
#include "engine/approx_kernel.hpp"
#include "engine/packed_kernel.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

arch::TernaryWord random_word(std::mt19937& rng, int cols,
                              double x_fraction) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> bit(0, 1);
  arch::TernaryWord w;
  w.reserve(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    if (u(rng) < x_fraction) {
      w.push_back(arch::Ternary::kX);
    } else {
      w.push_back(bit(rng) != 0 ? arch::Ternary::kOne : arch::Ternary::kZero);
    }
  }
  return w;
}

arch::BitWord random_query(std::mt19937& rng, int cols) {
  std::uniform_int_distribution<int> bit(0, 1);
  arch::BitWord q(static_cast<std::size_t>(cols));
  for (auto& b : q) b = static_cast<std::uint8_t>(bit(rng));
  return q;
}

void build_pair(std::mt19937& rng, int rows, int cols, arch::TcamArray& a,
                PackedShard& p) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int r = 0; r < rows; ++r) {
    const double style = u(rng);
    if (style < 0.12) continue;  // never written (invalid)
    const double xf = style < 0.25 ? 1.0 : 0.25;  // some rows all-X
    const auto w = random_word(rng, cols, xf);
    a.write(r, w);
    p.write(r, w);
    if (style >= 0.9) {
      a.erase(r);
      p.erase(r);
    }
  }
}

/// Compare one tier's output against the behavioral reference.
void expect_matches_reference(const arch::TcamArray& a, const PackedShard& p,
                              const arch::BitWord& query, int digit_bits,
                              int threshold, KernelTier tier,
                              const char* what) {
  const arch::ApproxSearchResult ref =
      arch::approx_search(a, query, digit_bits, threshold);
  const PackedQuery packed = PackedQuery::pack(query);
  std::vector<std::uint64_t> within;
  std::vector<std::uint16_t> distances;
  const arch::SearchStats stats =
      approx_match(p, packed, digit_bits, threshold, within, distances, tier);
  for (int r = 0; r < p.rows(); ++r) {
    const bool got =
        (within[static_cast<std::size_t>(r) / 64] >> (r % 64) & 1) != 0;
    ASSERT_EQ(got, ref.within[static_cast<std::size_t>(r)])
        << what << ": row " << r << " d=" << digit_bits
        << " t=" << threshold;
    if (got) {
      ASSERT_EQ(distances[static_cast<std::size_t>(r)],
                ref.distances[static_cast<std::size_t>(r)])
          << what << ": row " << r << " within but distance differs";
    } else {
      // Past-threshold / invalid / padded rows all report the overflow
      // sentinel — the early exit may not know the true distance.
      ASSERT_EQ(distances[static_cast<std::size_t>(r)], kDistanceOverflow)
          << what << ": row " << r << " not within but not overflow";
    }
  }
  // Single-step accounting: every valid row fires once, no step-1 saving.
  EXPECT_EQ(stats.rows, ref.stats.rows) << what;
  EXPECT_EQ(stats.step1_misses, 0) << what;
  EXPECT_EQ(stats.step2_evaluated, ref.stats.step2_evaluated) << what;
  EXPECT_EQ(stats.matches, ref.stats.matches) << what;
}

TEST(ApproxKernel, ScalarMatchesBehavioralAcrossShapes) {
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    auto rng = util::trial_rng(31, trial, 0);
    for (const int d : {1, 2, 3}) {
      // Digit counts that straddle the word boundary: 63, 64, 65 digits
      // plus a trial-varied count, all times d columns.
      for (const int digits : {63, 64, 65, 5 + static_cast<int>(trial)}) {
        const int cols = digits * d;
        const int rows = std::uniform_int_distribution<int>(0, 90)(rng);
        arch::TcamArray a(rows, cols);
        PackedShard p(rows, cols);
        build_pair(rng, rows, cols, a, p);
        const auto query = random_query(rng, cols);
        for (const int threshold : {0, 1, digits}) {
          expect_matches_reference(a, p, query, d, threshold,
                                   KernelTier::kScalar, "scalar");
        }
      }
    }
  }
}

TEST(ApproxKernel, Avx2MatchesScalarBitExactly) {
  if (!kernel_tier_available(KernelTier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier unavailable in this build/host";
  }
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    auto rng = util::trial_rng(32, trial, 0);
    for (const int d : {1, 2, 3}) {
      const int digits = 40 + static_cast<int>(trial % 30);
      const int cols = digits * d;
      // Row counts around the 4-row AVX2 group size, plus bigger shards.
      const int rows = std::uniform_int_distribution<int>(0, 260)(rng);
      arch::TcamArray a(rows, cols);
      PackedShard p(rows, cols);
      build_pair(rng, rows, cols, a, p);
      const auto query = random_query(rng, cols);
      for (const int threshold : {0, 1, 3, digits}) {
        expect_matches_reference(a, p, query, d, threshold,
                                 KernelTier::kAvx2, "avx2");
      }
    }
  }
}

TEST(ApproxKernel, ExactDegenerationAtDigitOneThresholdZero) {
  // d = 1, threshold = 0: the within mask must equal the exact full-match
  // mask bit for bit — the anchor that ties the approx tier to the
  // validated exact kernels.
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    auto rng = util::trial_rng(33, trial, 0);
    const int cols = 1 + static_cast<int>(trial * 11 % 150);
    const int rows = std::uniform_int_distribution<int>(0, 120)(rng);
    arch::TcamArray a(rows, cols);
    PackedShard p(rows, cols);
    build_pair(rng, rows, cols, a, p);
    const auto query = random_query(rng, cols);
    const auto exact = a.search(query);
    const PackedQuery packed = PackedQuery::pack(query);
    std::vector<std::uint64_t> within;
    std::vector<std::uint16_t> distances;
    approx_match(p, packed, 1, 0, within, distances);
    for (int r = 0; r < rows; ++r) {
      const bool got =
          (within[static_cast<std::size_t>(r) / 64] >> (r % 64) & 1) != 0;
      ASSERT_EQ(got, exact[static_cast<std::size_t>(r)])
          << "trial " << trial << " row " << r;
      if (got) {
        ASSERT_EQ(distances[static_cast<std::size_t>(r)], 0);
      }
    }
  }
}

TEST(ApproxKernel, BlockedVariantsMatchSingleQueryKernels) {
  // Every lane carries its own threshold (0, small, whole-row), so lanes
  // that settle after one word share groups with lanes that read them
  // all; each lane must still equal the single-query kernel bit for bit.
  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  if (kernel_tier_available(KernelTier::kAvx2)) {
    tiers.push_back(KernelTier::kAvx2);
  }
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    auto rng = util::trial_rng(34, trial, 0);
    for (const int d : {1, 2, 3}) {
      const int digits = 30 + static_cast<int>(trial);
      const int cols = digits * d;
      const int rows = std::uniform_int_distribution<int>(1, 150)(rng);
      arch::TcamArray a(rows, cols);
      PackedShard p(rows, cols);
      build_pair(rng, rows, cols, a, p);
      const detail::ShardView view = p.view();
      for (int nq = 1; nq <= kMaxQueryBlock; ++nq) {
        std::vector<PackedQuery> queries;
        std::vector<int> thresholds;
        for (int q = 0; q < nq; ++q) {
          queries.push_back(PackedQuery::pack(random_query(rng, cols)));
          const int t = static_cast<int>(trial + 3 * q) % 6;
          thresholds.push_back(t == 5 ? digits : t);
        }
        std::vector<const std::uint64_t*> qptrs;
        std::vector<std::vector<std::uint64_t>> masks(
            static_cast<std::size_t>(nq),
            std::vector<std::uint64_t>(p.mask_words(), 0xA5A5ULL));
        std::vector<std::vector<std::uint16_t>> dists(
            static_cast<std::size_t>(nq),
            std::vector<std::uint16_t>(
                static_cast<std::size_t>(p.mask_words()) * 64, 7));
        std::vector<std::uint64_t*> mptrs;
        std::vector<std::uint16_t*> dptrs;
        for (int q = 0; q < nq; ++q) {
          qptrs.push_back(queries[static_cast<std::size_t>(q)].bits.data());
          mptrs.push_back(masks[static_cast<std::size_t>(q)].data());
          dptrs.push_back(dists[static_cast<std::size_t>(q)].data());
        }
        for (const KernelTier tier : tiers) {
          std::vector<arch::SearchStats> stats(static_cast<std::size_t>(nq));
          if (tier == KernelTier::kScalar) {
            detail::approx_match_block_scalar(view, qptrs.data(), nq, d,
                                              thresholds.data(), mptrs.data(),
                                              dptrs.data(), stats.data());
          } else {
            detail::approx_match_block_avx2(view, qptrs.data(), nq, d,
                                            thresholds.data(), mptrs.data(),
                                            dptrs.data(), stats.data());
          }
          for (int q = 0; q < nq; ++q) {
            const std::size_t qi = static_cast<std::size_t>(q);
            std::vector<std::uint64_t> single_mask;
            std::vector<std::uint16_t> single_dist;
            const arch::SearchStats single =
                approx_match(p, queries[qi], d, thresholds[qi], single_mask,
                             single_dist, KernelTier::kScalar);
            ASSERT_EQ(masks[qi], single_mask)
                << kernel_tier_name(tier) << " block nq=" << nq
                << " q=" << q << " d=" << d << " t=" << thresholds[qi];
            ASSERT_EQ(dists[qi], single_dist)
                << kernel_tier_name(tier) << " block nq=" << nq
                << " q=" << q << " d=" << d << " t=" << thresholds[qi];
            EXPECT_EQ(stats[qi].rows, single.rows);
            EXPECT_EQ(stats[qi].step1_misses, single.step1_misses);
            EXPECT_EQ(stats[qi].step2_evaluated, single.step2_evaluated);
            EXPECT_EQ(stats[qi].matches, single.matches);
          }
        }
      }
    }
  }
}

TEST(ApproxKernel, PublicBlockEntryMatchesSingleAndValidatesLanes) {
  auto rng = util::trial_rng(35, 0, 0);
  const int d = 2, cols = 130, rows = 97;
  arch::TcamArray a(rows, cols);
  PackedShard p(rows, cols);
  build_pair(rng, rows, cols, a, p);
  const PackedQuery q0 = PackedQuery::pack(random_query(rng, cols));
  const PackedQuery q1 = PackedQuery::pack(random_query(rng, cols));
  const PackedQuery* queries[2] = {&q0, &q1};
  const int thresholds[2] = {cols / d, 1};
  std::vector<std::uint64_t> m0(p.mask_words()), m1(p.mask_words());
  std::vector<std::uint16_t> d0(p.mask_words() * 64), d1(p.mask_words() * 64);
  std::uint64_t* masks[2] = {m0.data(), m1.data()};
  std::uint16_t* dists[2] = {d0.data(), d1.data()};
  arch::SearchStats stats[2];
  approx_match_block(p, queries, 2, d, thresholds, masks, dists, stats);
  std::vector<std::uint64_t> want_mask;
  std::vector<std::uint16_t> want_dist;
  approx_match(p, q1, d, 1, want_mask, want_dist);
  EXPECT_EQ(m1, want_mask);
  EXPECT_EQ(d1, want_dist);
  approx_match(p, q0, d, cols / d, want_mask, want_dist);
  EXPECT_EQ(m0, want_mask);
  EXPECT_EQ(d0, want_dist);
  EXPECT_EQ(stats[0].matches, std::popcount(m0[0]) + std::popcount(m0[1]));

  // Every lane is checked, not just the first.
  const int bad_thresholds[2] = {0, -1};
  EXPECT_THROW(approx_match_block(p, queries, 2, d, bad_thresholds, masks,
                                  dists, stats),
               std::invalid_argument);
  const PackedQuery narrow = PackedQuery::pack(arch::BitWord(12, 0));
  const PackedQuery* mixed[2] = {&q0, &narrow};
  EXPECT_THROW(
      approx_match_block(p, mixed, 2, d, thresholds, masks, dists, stats),
      std::invalid_argument);
  EXPECT_THROW(
      approx_match_block(p, queries, 0, d, thresholds, masks, dists, stats),
      std::invalid_argument);
  EXPECT_THROW(approx_match_block(p, queries, kMaxQueryBlock + 1, d,
                                  thresholds, masks, dists, stats),
               std::invalid_argument);
}

TEST(ApproxKernel, CollapseDigitsFoldsStraddlingGroups) {
  // d = 1: identity.
  EXPECT_EQ(detail::collapse_digits(0xDEADBEEFULL, 0, 0, 1), 0xDEADBEEFULL);

  // d = 2: any mismatch inside a 2-bit group folds onto the even bit.
  //   bits 0..1 -> bit 0, bits 2..3 -> bit 2, ...
  EXPECT_EQ(detail::collapse_digits(0b10ULL, 0, 0, 2), 0b01ULL);
  EXPECT_EQ(detail::collapse_digits(0b1100ULL, 0, 0, 2), 0b0100ULL);
  EXPECT_EQ(detail::collapse_digits(0b1010ULL, 0, 0, 2), 0b0101ULL);

  // d = 3, word 0 (phase 0): group starts at bits 0, 3, 6, ...  A word-63
  // mismatch belongs to the group starting at bit 63 — together with the
  // NEXT word's bits 0..1.
  EXPECT_EQ(detail::collapse_digits(1ULL << 1, 0, 0, 3), 1ULL << 0);
  EXPECT_EQ(detail::collapse_digits(1ULL << 5, 0, 0, 3), 1ULL << 3);
  EXPECT_EQ(detail::collapse_digits(1ULL << 63, 0, 0, 3), 1ULL << 63);
  // The straddling group's tail lives in `next`: a mismatch in next's bit
  // 0 or 1 must fold back onto THIS word's bit 63 start.
  EXPECT_EQ(detail::collapse_digits(0, 1ULL << 0, 0, 3), 1ULL << 63);
  EXPECT_EQ(detail::collapse_digits(0, 1ULL << 1, 0, 3), 1ULL << 63);
  // ...and a mismatch in next's bit 2 belongs to the NEXT word's first
  // full group, not to this word.
  EXPECT_EQ(detail::collapse_digits(0, 1ULL << 2, 0, 3), 0ULL);

  // d = 3, word 1 (phase 64 mod 3 = 1): the first two bits finish word
  // 0's straddling group (already counted there), so the first start here
  // is bit 2.
  EXPECT_EQ(detail::collapse_digits(1ULL << 0, 0, 1, 3), 0ULL);
  EXPECT_EQ(detail::collapse_digits(1ULL << 1, 0, 1, 3), 0ULL);
  EXPECT_EQ(detail::collapse_digits(1ULL << 2, 0, 1, 3), 1ULL << 2);
  EXPECT_EQ(detail::collapse_digits(1ULL << 4, 0, 1, 3), 1ULL << 2);

  // d = 3, word 2 (phase 128 mod 3 = 2): one carried bit, first start at
  // bit 1.
  EXPECT_EQ(detail::collapse_digits(1ULL << 0, 0, 2, 3), 0ULL);
  EXPECT_EQ(detail::collapse_digits(1ULL << 1, 0, 2, 3), 1ULL << 1);
  EXPECT_EQ(detail::collapse_digits(1ULL << 3, 0, 2, 3), 1ULL << 1);
}

TEST(ApproxKernel, ValidationThrowsNamedErrors) {
  PackedShard p(8, 12);
  const PackedQuery q = PackedQuery::pack(arch::BitWord(12, 0));
  std::vector<std::uint64_t> within;
  std::vector<std::uint16_t> distances;
  EXPECT_THROW(approx_match(p, q, 0, 0, within, distances),
               std::invalid_argument);
  EXPECT_THROW(approx_match(p, q, 4, 0, within, distances),
               std::invalid_argument);
  EXPECT_THROW(approx_match(p, q, 1, -1, within, distances),
               std::invalid_argument);
  // 12 % 3 == 0 is fine; a 5-wide digit never is, and cols that d does
  // not divide must throw too.
  PackedShard p2(8, 13);
  const PackedQuery q2 = PackedQuery::pack(arch::BitWord(13, 0));
  EXPECT_THROW(approx_match(p2, q2, 2, 0, within, distances),
               std::invalid_argument);
}

}  // namespace
}  // namespace fetcam::engine
