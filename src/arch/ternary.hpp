// Ternary digit and word utilities shared by the behavioral and circuit
// TCAM models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fetcam::arch {

/// One TCAM digit: '0', '1', or don't-care.
enum class Ternary : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

char to_char(Ternary t);
Ternary ternary_from_char(char c);  ///< accepts '0', '1', 'x', 'X', '*'

/// A stored TCAM entry, most-significant digit first.
using TernaryWord = std::vector<Ternary>;
/// A binary search query (0/1 per bit).
using BitWord = std::vector<std::uint8_t>;

TernaryWord word_from_string(std::string_view s);
std::string to_string(const TernaryWord& w);

BitWord bits_from_string(std::string_view s);
std::string to_string(const BitWord& b);

/// One-digit match rule: X matches anything.
inline bool ternary_matches(Ternary stored, bool query_bit) {
  return stored == Ternary::kX ||
         (stored == Ternary::kOne) == query_bit;
}

/// Full-word match (sizes must agree).
bool word_matches(const TernaryWord& stored, const BitWord& query);

/// Number of mismatching digit positions (X never mismatches).
int mismatch_count(const TernaryWord& stored, const BitWord& query);

/// 64-digit lanes needed to pack a `digits`-wide word.
inline int ternary_lanes(std::size_t digits) {
  return static_cast<int>((digits + 63) / 64);
}

/// Pack a word into (care, value) lanes, the bit-packed layout the service
/// engine stores rows in: digit c is bit (c & 63) of lane (c >> 6); its
/// care bit is set unless it is 'X' and its value bit is set when it is
/// '1' (so value is 0 wherever care is 0).  Bits past the end of the word
/// are 0.  Writes ternary_lanes(word.size()) lanes, lane w at
/// care[w * stride] and value[w * stride].
void pack_ternary(const TernaryWord& word, std::uint64_t* care,
                  std::uint64_t* value, std::size_t stride = 1);

}  // namespace fetcam::arch
