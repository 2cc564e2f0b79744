#include "arch/ternary.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace fetcam::arch {
namespace {

TEST(Ternary, CharRoundTrip) {
  for (const char c : {'0', '1', 'X'}) {
    EXPECT_EQ(to_char(ternary_from_char(c)), c);
  }
  EXPECT_EQ(ternary_from_char('x'), Ternary::kX);
  EXPECT_EQ(ternary_from_char('*'), Ternary::kX);
  EXPECT_THROW(ternary_from_char('2'), std::invalid_argument);
  EXPECT_THROW(ternary_from_char(' '), std::invalid_argument);
}

TEST(Ternary, WordFromString) {
  const auto w = word_from_string("01X");
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], Ternary::kZero);
  EXPECT_EQ(w[1], Ternary::kOne);
  EXPECT_EQ(w[2], Ternary::kX);
  EXPECT_EQ(to_string(w), "01X");
}

TEST(Ternary, BitsFromString) {
  const auto b = bits_from_string("0110");
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0);
  EXPECT_EQ(b[1], 1);
  EXPECT_EQ(to_string(b), "0110");
  EXPECT_THROW(bits_from_string("01X"), std::invalid_argument);
}

TEST(Ternary, MatchRules) {
  EXPECT_TRUE(ternary_matches(Ternary::kZero, false));
  EXPECT_FALSE(ternary_matches(Ternary::kZero, true));
  EXPECT_TRUE(ternary_matches(Ternary::kOne, true));
  EXPECT_FALSE(ternary_matches(Ternary::kOne, false));
  EXPECT_TRUE(ternary_matches(Ternary::kX, false));
  EXPECT_TRUE(ternary_matches(Ternary::kX, true));
}

TEST(Ternary, WordMatch) {
  const auto stored = word_from_string("01XX");
  EXPECT_TRUE(word_matches(stored, bits_from_string("0100")));
  EXPECT_TRUE(word_matches(stored, bits_from_string("0111")));
  EXPECT_FALSE(word_matches(stored, bits_from_string("0011")));
  EXPECT_EQ(mismatch_count(stored, bits_from_string("1000")), 2);
  EXPECT_THROW(word_matches(stored, bits_from_string("01")),
               std::invalid_argument);
}

TEST(Ternary, AllXMatchesEverything) {
  const auto stored = word_from_string("XXXXXXXX");
  for (int v = 0; v < 256; ++v) {
    BitWord q;
    for (int b = 7; b >= 0; --b) q.push_back((v >> b) & 1);
    EXPECT_TRUE(word_matches(stored, q)) << v;
  }
}

// pack_ternary loads eight digits per word op; the reference packs one
// digit at a time, straight from the documented layout.
TEST(Ternary, PackMatchesDigitLoopReference) {
  std::mt19937_64 rng(7);
  for (std::size_t width = 0; width <= 200; ++width) {
    TernaryWord word(width);
    for (auto& d : word) d = static_cast<Ternary>(rng() % 3);
    const auto lanes = static_cast<std::size_t>(ternary_lanes(width));
    std::vector<std::uint64_t> want_care(lanes, 0);
    std::vector<std::uint64_t> want_value(lanes, 0);
    for (std::size_t c = 0; c < width; ++c) {
      want_care[c >> 6] |= std::uint64_t{word[c] != Ternary::kX} << (c & 63);
      want_value[c >> 6] |= std::uint64_t{word[c] == Ternary::kOne}
                            << (c & 63);
    }
    for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
      // Slots between strided lanes must stay untouched.
      constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
      std::vector<std::uint64_t> care(lanes * stride + 1, kSentinel);
      std::vector<std::uint64_t> value(lanes * stride + 1, kSentinel);
      pack_ternary(word, care.data(), value.data(), stride);
      for (std::size_t i = 0; i < care.size(); ++i) {
        const bool lane = i % stride == 0 && i / stride < lanes;
        EXPECT_EQ(care[i], lane ? want_care[i / stride] : kSentinel)
            << "width " << width << " stride " << stride << " slot " << i;
        EXPECT_EQ(value[i], lane ? want_value[i / stride] : kSentinel)
            << "width " << width << " stride " << stride << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fetcam::arch
