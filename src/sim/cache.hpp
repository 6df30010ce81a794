// Set-associative, write-back LRU cache model operating on line numbers.
#pragma once

#include <cassert>
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
/// One inline pass: access() is defined here so the replay loop resolves a
/// hit or a miss -- set index, tag compare, LRU update, dirty merge, the
/// eviction -- with no function call.  Past the MRU way the LRU update is a
/// single fused walk: each way's word is carried one way down while its tag
/// is compared, so a hit at depth d has moved the d younger words and a miss
/// has shifted the whole set and holds the evicted LRU word in hand.  The
/// one out-of-line routine, fill(), is the first fill of an empty cache
/// (tag allocation, or nothing at all for zero capacity).  insert() reaches
/// the same walk through access().
///
/// Storage is allocated on the first fill (access or insert).  A cache that
/// never holds a line -- an idle core's slice, an unused victim partition --
/// costs no tag memory, and contains/invalidate/flush on an empty cache
/// return at once.
///
/// epoch() names the tag state: it changes whenever the recency order or a
/// dirty bit does, and only then, so a caller that saw the same epoch twice
/// knows nothing in the cache moved in between (the engine's repeat memo,
/// DESIGN.md §3b, relies on this).
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
  ///
  /// LRU is a physical recency order within each set (way 0 = MRU).  A word
  /// matches `line` iff (word | 1) == (line << 1 | 1); the empty word
  /// kInvalid matches no line below kLineLimit.  The MRU way is checked
  /// first: a hit there that leaves the dirty bit as it was changes nothing,
  /// so it keeps the epoch (for a load that check folds away).  The walk of
  /// ways 1..A-1 stores the carried word into each way before comparing the
  /// word it displaced: on a match the shuffle is already done and the
  /// matched word goes to way 0; past the last way the carried word is the
  /// LRU entry, evicted unless it is kInvalid (a set not yet full), and the
  /// new line goes to way 0.  With no valid line nothing can hit and there
  /// is nothing to walk, which also covers the never-filled cache.
  Result access(std::uint64_t line, bool make_dirty) {
    assert(line < kLineLimit);
    const std::size_t base = set_base(line);
    if (counts_.valid == 0) [[unlikely]] return fill(base, line, make_dirty);
    return walk(base, line, make_dirty, counts_);
  }

  /// What access() counts besides the tags: hits, misses, valid lines and
  /// the epoch.
  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t valid = 0;
    std::uint64_t epoch = 0;
  };

  /// access() of a line the caller knows to map to `set` (set_index(line)),
  /// counting into `counts` instead of this cache's own counts.  Threads
  /// that each keep to their own sets may call it concurrently; merge()
  /// then adds their counts (the set-sharded replay, DESIGN.md §3b).  The
  /// storage must exist (allocate()).  On a set with no valid line the walk
  /// leaves what fill() would.
  Result access_in_set(std::uint64_t set, std::uint64_t line, bool make_dirty,
                       Counts& counts) {
    assert(line < kLineLimit && !tags_.empty());
    return walk(static_cast<std::size_t>(set) * assoc_, line, make_dirty, counts);
  }

  /// Allocate the tag storage now if no fill has yet (a no-op for zero
  /// capacity).  Changes no count and no epoch.
  void allocate();

  /// Add counts gathered by access_in_set().
  void merge(const Counts& c) {
    counts_.hits += c.hits;
    counts_.misses += c.misses;
    counts_.valid += c.valid;
    counts_.epoch += c.epoch;
  }

  /// Lookup without fill or replacement-state change.
  bool contains(std::uint64_t line) const;

  /// Host-prefetch the tag words of `line`'s set, every host cache line the
  /// set spans (the tag array is only 16-byte aligned, so an 8-way set of
  /// 64 bytes usually straddles two).  A hint only: it changes no state, and
  /// any 64-bit `line` is valid.  A cache with no storage does nothing.
  void prefetch_set(std::uint64_t line) const {
    if (tags_.empty()) return;
    const auto set = reinterpret_cast<std::uintptr_t>(tags_.data() + set_base(line));
    const std::uintptr_t last = set + (assoc_ - 1) * sizeof(std::uint64_t);
    host_prefetch(set);
    // Then the start of each further host line, up to the last way's.
    for (std::uintptr_t p = (set | 63) + 1; p <= last; p += 64) host_prefetch(p);
  }

  /// The LRU word -- `line << 1 | dirty`, or all ones if that way is empty
  /// -- of the set `line` maps to: the line a miss on `line` would evict
  /// now.  All ones for a cache with no storage; any 64-bit `line` is valid.
  std::uint64_t lru_word(std::uint64_t line) const {
    if (tags_.empty()) return kInvalid;
    return tags_[set_base(line) + assoc_ - 1];
  }

  /// Fill a line (cast-out insertion).  Same semantics as access(): a line
  /// already present is refreshed to MRU with its dirty bit merged.
  Result insert(std::uint64_t line, bool dirty) { return access(line, dirty); }

  /// Remove a line if present; returns {was_present, was_dirty}.
  struct Invalidated { bool present = false; bool dirty = false; };
  Invalidated invalidate(std::uint64_t line);

  /// Drain every valid line through `sink(line, dirty)` and empty the cache.
  void flush(const std::function<void(std::uint64_t, bool)>& sink);

  std::uint64_t size_bytes() const { return size_bytes_; }
  std::uint32_t associativity() const { return assoc_; }
  std::uint32_t sets() const { return sets_; }
  std::uint64_t capacity_lines() const { return static_cast<std::uint64_t>(sets_) * assoc_; }
  std::uint64_t valid_lines() const { return counts_.valid; }

  /// The set `line` maps to in a cache of `sets` > 0 sets -- the mapping
  /// every instance applies, from precomputed constants.  A hashed cache
  /// first mixes the line (the first half of the Stafford mix in hash64).
  /// The reduction is `% sets` for a power-of-two count; otherwise it is
  /// Lemire's fastmod, which equals `% sets` only below 2^32.  Larger values
  /// -- every hashed line -- get a different, equally well-spread residue.
  static std::uint64_t set_of(std::uint64_t line, std::uint32_t sets, bool hashed) {
    if (hashed) line = mix(line);
    if ((sets & (sets - 1)) == 0) return line % sets;
    return fastmod(line, ~0ull / sets + 1, sets);
  }

  /// The set `line` maps to in this cache: set_of(line, sets(), hashed)
  /// without a divide.  Only meaningful when sets() > 0.
  std::uint64_t set_index(std::uint64_t line) const {
    if (hashed_sets_) line = mix(line);
    return pow2_sets_ ? line & set_mask_ : fastmod(line, fastmod_m_, sets_);
  }

  // Access statistics (monotonic since construction or reset_stats()).
  std::uint64_t hits() const { return counts_.hits; }
  std::uint64_t misses() const { return counts_.misses; }
  void reset_stats() { counts_.hits = counts_.misses = 0; }
  /// Count `n` hits that left the tag state as it was, without performing
  /// them (a repeated all-hit pass, DESIGN.md §3b).
  void count_hits(std::uint64_t n) { counts_.hits += n; }

  /// Changes exactly when the tag state (recency order or a dirty bit)
  /// changes: a fill, a hit below the MRU way, a hit that dirties a clean
  /// line, invalidating a present line, flushing a non-empty cache.
  std::uint64_t epoch() const { return counts_.epoch; }

 private:
  /// access() past the set index and the empty-cache check: the MRU check
  /// and the fused walk of the set starting at tags_[base] (class comment).
  Result walk(std::size_t base, std::uint64_t line, bool make_dirty, Counts& c) {
    std::uint64_t* const tags = tags_.data() + base;
    const std::uint64_t key = (line << 1) | 1;
    std::uint64_t carry = tags[0];
    if ((carry | 1) == key) {
      const std::uint64_t word = carry | std::uint64_t{make_dirty};
      if (word != carry) {
        tags[0] = word;
        ++c.epoch;  // a store dirtied the clean MRU line
      }
      ++c.hits;
      return Result{.hit = true};
    }
    ++c.epoch;  // anything past the MRU way moves the recency order
    // Unrolled by four: a miss walks every way (19 for the L3 slice).
#pragma GCC unroll 4
    for (std::uint32_t w = 1; w < assoc_; ++w) {
      const std::uint64_t word = tags[w];
      tags[w] = carry;
      if ((word | 1) == key) {
        tags[0] = word | std::uint64_t{make_dirty};
        ++c.hits;
        return Result{.hit = true};
      }
      carry = word;
    }
    tags[0] = (line << 1) | std::uint64_t{make_dirty};
    ++c.misses;
    if (carry == kInvalid) {
      ++c.valid;
      return Result{};
    }
    return Result{.evicted = true,
                  .victim_line = carry >> 1,
                  .victim_dirty = (carry & 1) != 0};
  }

  /// The miss of access() on a cache with no valid line: allocates storage
  /// on the very first fill and installs `line`, whose set starts at
  /// tags_[base], at MRU.  A zero-capacity cache only counts the miss.
  Result fill(std::size_t base, std::uint64_t line, bool dirty);

  /// A read prefetch into every host cache level.  On x86-64 it is written
  /// as the instruction itself: g++ 12 at -O3 finds a void helper around
  /// __builtin_prefetch pure and deletes its calls (DESIGN.md §3b).
  static void host_prefetch(std::uintptr_t addr) {
    const char* const p = reinterpret_cast<const char*>(addr);
#if defined(__x86_64__)
    asm volatile("prefetcht0 %0" : : "m"(*p));
#else
    __builtin_prefetch(p);
#endif
  }

  static std::uint64_t mix(std::uint64_t line) {
    line ^= line >> 33;
    line *= 0xff51afd7ed558ccdULL;
    return line ^ (line >> 33);
  }
  static std::uint64_t fastmod(std::uint64_t x, std::uint64_t m, std::uint32_t sets) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m * x) * sets) >> 64);
  }
  /// Offset in tags_ of the first way of `line`'s set.
  std::size_t set_base(std::uint64_t line) const {
    return static_cast<std::size_t>(set_index(line)) * assoc_;
  }

  static constexpr std::uint64_t kInvalid = ~0ull;

  std::uint64_t size_bytes_;
  std::uint32_t assoc_;
  std::uint32_t sets_ = 0;
  bool pow2_sets_ = true;
  bool hashed_sets_ = false;
  std::uint64_t set_mask_ = 0;
  std::uint64_t fastmod_m_ = 0;
  /// sets_ * assoc_ packed `line << 1 | dirty` words (kInvalid = empty);
  /// empty until the first fill.
  std::vector<std::uint64_t> tags_;
  Counts counts_;
};

}  // namespace papisim::sim
