#include "sim/cache.hpp"

#include <stdexcept>

namespace papisim::sim {

CacheLevel::CacheLevel(std::uint64_t size_bytes, std::uint32_t associativity,
                       std::uint32_t line_bytes, bool hashed_sets)
    : size_bytes_(size_bytes), assoc_(associativity), hashed_sets_(hashed_sets) {
  if (line_bytes == 0 || associativity == 0) {
    throw std::invalid_argument("CacheLevel: line size and associativity must be > 0");
  }
  const std::uint64_t lines = size_bytes / line_bytes;
  sets_ = static_cast<std::uint32_t>(lines / associativity);
  if (sets_ == 0) {
    // Zero-capacity cache: misses everything, never evicts.
    assoc_ = 0;
    return;
  }
  pow2_sets_ = (sets_ & (sets_ - 1)) == 0;
  set_mask_ = sets_ - 1;
  if (!pow2_sets_) fastmod_m_ = ~0ull / sets_ + 1;
}

CacheLevel::Result CacheLevel::fill(std::size_t base, std::uint64_t line, bool dirty) {
  ++misses_;
  if (sets_ == 0) return Result{};  // zero capacity: nothing is retained
  ++epoch_;
  if (tags_.empty()) [[unlikely]] {
    tags_.assign(static_cast<std::size_t>(sets_) * assoc_, kInvalid);
  }
  // Every way is empty, so way 0 is the whole recency order.
  tags_[base] = (line << 1) | std::uint64_t{dirty};
  ++valid_count_;
  return Result{};
}

bool CacheLevel::contains(std::uint64_t line) const {
  if (valid_count_ == 0) return false;
  const std::uint64_t* tags = tags_.data() + set_base(line);
  const std::uint64_t key = (line << 1) | 1;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if ((tags[w] | 1) == key) return true;
  }
  return false;
}

CacheLevel::Invalidated CacheLevel::invalidate(std::uint64_t line) {
  Invalidated out;
  if (valid_count_ == 0) return out;
  std::uint64_t* tags = tags_.data() + set_base(line);
  const std::uint64_t key = (line << 1) | 1;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if ((tags[w] | 1) == key) {
      out.present = true;
      out.dirty = (tags[w] & 1) != 0;
      // Compact the recency order: shift older entries up one way.
      for (std::uint32_t j = w; j + 1 < assoc_; ++j) tags[j] = tags[j + 1];
      tags[assoc_ - 1] = kInvalid;
      --valid_count_;
      ++epoch_;
      return out;
    }
  }
  return out;
}

void CacheLevel::flush(const std::function<void(std::uint64_t, bool)>& sink) {
  if (valid_count_ == 0) return;
  ++epoch_;
  for (std::uint64_t& word : tags_) {
    if (word != kInvalid) {
      sink(word >> 1, (word & 1) != 0);
      word = kInvalid;
    }
  }
  valid_count_ = 0;
}

}  // namespace papisim::sim
