// Dynamic bitset with fast population count and iteration over set bits.
// EdgeSet (the spanner-subset representation) is built on top of this, and
// the parallel spanner union (core/remote_spanner.cpp) gives every pool
// worker one plain DynamicBitset and ORs them together after the join.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/prelude.hpp"

namespace remspan {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits, bool value = false)
      : bits_(bits), words_((bits + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    trim();
  }

  /// Adopts a raw word vector (words.size() must match the bit count; the
  /// tail of the last word is masked off), with no bit-by-bit copy.
  [[nodiscard]] static DynamicBitset from_words(std::size_t bits,
                                                std::vector<std::uint64_t> words);

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }

  /// The backing words, least-significant bit = lowest index. Word-level
  /// access is what lets downstream consumers (stats, unions) run at
  /// popcount speed instead of probing bit-by-bit.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  void set(std::size_t i) noexcept {
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  void reset(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool value) noexcept { value ? set(i) : reset(i); }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Grows or shrinks to `bits` bits; bits past the old size start clear.
  void resize(std::size_t bits) {
    bits_ = bits;
    words_.resize((bits + 63) / 64, 0);
    trim();
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }
  void set_all() noexcept {
    for (auto& w : words_) w = ~std::uint64_t{0};
    trim();
  }

  [[nodiscard]] std::size_t count() const noexcept;

  /// Bitwise union / intersection / difference (and-not); both operands
  /// must have equal size.
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator-=(const DynamicBitset& other);

  [[nodiscard]] bool operator==(const DynamicBitset& other) const noexcept {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

 private:
  void trim() noexcept {
    const std::size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace remspan
