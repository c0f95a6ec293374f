// Fixed-capacity dynamic bitset used by the influence machinery: influence
// sets and diversity balls are node subsets that get unioned and counted
// millions of times during greedy selection, so they live as packed words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gvex {

/// \brief Packed bitset over [0, size()).
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  size_t size() const { return n_; }

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void Reset(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Clear() {
    for (auto& w : words_) w = 0;
  }

  /// this |= other.
  void UnionWith(const DynamicBitset& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// this &= ~other.
  void Subtract(const DynamicBitset& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// |this | other| without materializing the union.
  size_t UnionCount(const DynamicBitset& other) const {
    size_t c = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      c += static_cast<size_t>(__builtin_popcountll(words_[i] | other.words_[i]));
    }
    return c;
  }

  /// Bits set in `other` but not in this (i.e. the marginal contribution).
  size_t MarginalCount(const DynamicBitset& other) const {
    size_t c = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      c += static_cast<size_t>(
          __builtin_popcountll(other.words_[i] & ~words_[i]));
    }
    return c;
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Smallest set index >= `from`, or size() when there is none. Walks the
  /// set bits without materializing them:
  ///   for (size_t i = b.FindNext(0); i < b.size(); i = b.FindNext(i + 1))
  size_t FindNext(size_t from) const {
    if (from >= n_) return n_;
    size_t wi = from >> 6;
    uint64_t w = words_[wi] & (~0ULL << (from & 63));
    while (w == 0) {
      if (++wi == words_.size()) return n_;
      w = words_[wi];
    }
    return (wi << 6) + static_cast<size_t>(__builtin_ctzll(w));
  }

  /// Indices of set bits, ascending.
  std::vector<size_t> ToVector() const {
    std::vector<size_t> out;
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(w));
        out.push_back((wi << 6) + bit);
        w &= w - 1;
      }
    }
    return out;
  }

  bool operator==(const DynamicBitset&) const = default;

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace gvex
