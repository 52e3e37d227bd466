#include "util/bitset.hpp"

#include <bit>
#include <utility>

namespace remspan {

DynamicBitset DynamicBitset::from_words(std::size_t bits, std::vector<std::uint64_t> words) {
  REMSPAN_CHECK(words.size() == (bits + 63) / 64);
  DynamicBitset out;
  out.bits_ = bits;
  out.words_ = std::move(words);
  out.trim();
  return out;
}

std::size_t DynamicBitset::count() const noexcept {
  std::size_t total = 0;
  for (const auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  REMSPAN_CHECK(bits_ == other.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  REMSPAN_CHECK(bits_ == other.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator-=(const DynamicBitset& other) {
  REMSPAN_CHECK(bits_ == other.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

}  // namespace remspan
