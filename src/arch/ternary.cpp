#include "arch/ternary.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace fetcam::arch {

char to_char(Ternary t) {
  switch (t) {
    case Ternary::kZero:
      return '0';
    case Ternary::kOne:
      return '1';
    case Ternary::kX:
      return 'X';
  }
  return '?';
}

Ternary ternary_from_char(char c) {
  switch (c) {
    case '0':
      return Ternary::kZero;
    case '1':
      return Ternary::kOne;
    case 'x':
    case 'X':
    case '*':
      return Ternary::kX;
    default:
      throw std::invalid_argument(std::string("invalid ternary digit: ") + c);
  }
}

TernaryWord word_from_string(std::string_view s) {
  TernaryWord w;
  w.reserve(s.size());
  for (const char c : s) w.push_back(ternary_from_char(c));
  return w;
}

std::string to_string(const TernaryWord& w) {
  std::string s;
  s.reserve(w.size());
  for (const Ternary t : w) s.push_back(to_char(t));
  return s;
}

BitWord bits_from_string(std::string_view s) {
  BitWord b;
  b.reserve(s.size());
  for (const char c : s) {
    if (c != '0' && c != '1') {
      throw std::invalid_argument(std::string("invalid query bit: ") + c);
    }
    b.push_back(c == '1' ? 1 : 0);
  }
  return b;
}

std::string to_string(const BitWord& b) {
  std::string s;
  s.reserve(b.size());
  for (const auto bit : b) s.push_back(bit ? '1' : '0');
  return s;
}

bool word_matches(const TernaryWord& stored, const BitWord& query) {
  return mismatch_count(stored, query) == 0;
}

int mismatch_count(const TernaryWord& stored, const BitWord& query) {
  if (stored.size() != query.size()) {
    throw std::invalid_argument("stored/query length mismatch");
  }
  int n = 0;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (!ternary_matches(stored[i], query[i] != 0)) ++n;
  }
  return n;
}

namespace {

/// Bit k of the result is bit 0 of byte k of `x` (the low byte is digit 0
/// on a little-endian load).  The masked bits sit 8 apart, so each product
/// term of the multiply lands on its own bit and the top byte collects
/// them without carries.
inline std::uint64_t gather_low_bits(std::uint64_t x) {
  return ((x & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

}  // namespace

void pack_ternary(const TernaryWord& word, std::uint64_t* care,
                  std::uint64_t* value, std::size_t stride) {
  static_assert(sizeof(Ternary) == 1 && static_cast<int>(Ternary::kOne) == 1 &&
                    static_cast<int>(Ternary::kX) == 2,
                "the gather reads digit bit 0 as '1' and bit 1 as 'X'");
  const std::size_t n = word.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    std::uint64_t c = 0;
    std::uint64_t v = 0;
    std::size_t k = 0;
    if constexpr (std::endian::native == std::endian::little) {
      // Eight digits per load: '1' sets bit 0 of its byte, 'X' bit 1.
      for (; k + 8 <= len; k += 8) {
        std::uint64_t x;
        std::memcpy(&x, word.data() + base + k, 8);
        v |= gather_low_bits(x) << k;
        c |= (~gather_low_bits(x >> 1) & 0xFF) << k;
      }
    }
    for (; k < len; ++k) {
      const Ternary t = word[base + k];
      c |= std::uint64_t{t != Ternary::kX} << k;
      v |= std::uint64_t{t == Ternary::kOne} << k;
    }
    care[(base >> 6) * stride] = c;
    value[(base >> 6) * stride] = v;
  }
}

}  // namespace fetcam::arch
