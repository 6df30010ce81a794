// Set-associative, write-back LRU cache model operating on line numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace papisim::sim {

/// One cache level.  Addresses are pre-divided by the line size: the cache
/// works on *line numbers* only and stores no data (the simulator is
/// trace-driven; numeric kernels live elsewhere).
///
/// Replacement is true LRU within each set, kept as a recency order of one
/// packed word per way (way 0 = MRU): the word is `line << 1 | dirty`, so a
/// hit or fill shifts a single array of at most associativity (<= 20) words.
/// Line numbers must therefore stay below kLineLimit = 2^63 - 1 (the
/// all-ones word marks an empty way); a debug assertion checks it.
///
/// Storage is allocated on the first fill (access or insert).  A cache that
/// never holds a line -- an idle core's slice, an unused victim partition --
/// costs no tag memory, and contains/invalidate/flush on an empty cache
/// return at once.
class CacheLevel {
 public:
  /// Constructs a cache of `size_bytes` capacity with `associativity` ways
  /// of `line_bytes` lines.  A zero-capacity cache is valid and misses
  /// everything (used for an empty victim store).
  ///
  /// `hashed_sets` applies a hash to the set index (as large L3s do) so that
  /// power-of-two strides -- ubiquitous in the replayed kernels -- do not
  /// collapse onto a handful of sets.  Leave false for textbook modulo
  /// indexing (unit tests of LRU mechanics rely on it).
  CacheLevel(std::uint64_t size_bytes, std::uint32_t associativity,
             std::uint32_t line_bytes, bool hashed_sets = false);

  /// Exclusive upper bound on line numbers (see the class comment).
  static constexpr std::uint64_t kLineLimit = (1ull << 63) - 1;

  struct Result {
    bool hit = false;
    bool evicted = false;          ///< a valid line was displaced
    std::uint64_t victim_line = 0; ///< displaced line number (if evicted)
    bool victim_dirty = false;     ///< displaced line was dirty
  };

  /// Lookup with fill-on-miss; `make_dirty` marks the (resulting) line dirty.
  Result access(std::uint64_t line, bool make_dirty);

  /// Lookup without fill or replacement-state change.
  bool contains(std::uint64_t line) const;

  /// Fill a line without lookup semantics (used for cast-out insertion).
  /// Equivalent to access() for eviction behaviour.
  Result insert(std::uint64_t line, bool dirty) { return access_impl(line, dirty, true); }

  /// Remove a line if present; returns {was_present, was_dirty}.
  struct Invalidated { bool present = false; bool dirty = false; };
  Invalidated invalidate(std::uint64_t line);

  /// Drain every valid line through `sink(line, dirty)` and empty the cache.
  void flush(const std::function<void(std::uint64_t, bool)>& sink);

  std::uint64_t size_bytes() const { return size_bytes_; }
  std::uint32_t associativity() const { return assoc_; }
  std::uint32_t sets() const { return sets_; }
  std::uint64_t capacity_lines() const { return static_cast<std::uint64_t>(sets_) * assoc_; }
  std::uint64_t valid_lines() const { return valid_count_; }

  // Access statistics (monotonic since construction or reset_stats()).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  Result access_impl(std::uint64_t line, bool make_dirty, bool is_insert);

  std::uint64_t set_index(std::uint64_t line) const {
    if (hashed_sets_) {
      // Stafford mix (hash64 inlined); deterministic per line.
      line ^= line >> 33;
      line *= 0xff51afd7ed558ccdULL;
      line ^= line >> 33;
    }
    if (pow2_sets_) return line & set_mask_;
    // Lemire fastmod: exact line % sets_ without a hardware divide.
    const std::uint64_t lowbits = fastmod_m_ * line;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(lowbits) * sets_) >> 64);
  }

  static constexpr std::uint64_t kInvalid = ~0ull;

  std::uint64_t size_bytes_;
  std::uint32_t assoc_;
  std::uint32_t line_bytes_;
  std::uint32_t sets_ = 0;
  bool pow2_sets_ = true;
  bool hashed_sets_ = false;
  std::uint64_t set_mask_ = 0;
  std::uint64_t fastmod_m_ = 0;
  /// sets_ * assoc_ packed `line << 1 | dirty` words (kInvalid = empty);
  /// empty until the first fill.
  std::vector<std::uint64_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t valid_count_ = 0;
};

}  // namespace papisim::sim
