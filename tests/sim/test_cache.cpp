// Unit tests for the set-associative LRU cache model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/rng.hpp"
#include "testing/reference_lru.hpp"

namespace papisim::sim {
namespace {

TEST(CacheLevel, GeometryIsDerivedFromSizeAssocLine) {
  CacheLevel c(5ull << 20, 20, 64);
  EXPECT_EQ(c.sets(), 4096u);
  EXPECT_EQ(c.capacity_lines(), 4096u * 20u);
  EXPECT_EQ(c.size_bytes(), 5ull << 20);
}

TEST(CacheLevel, NonPowerOfTwoSetCountWorks) {
  // 3 idle slices' worth of victim capacity -> 12288 sets (non-pow2 path).
  CacheLevel c(3ull * (5ull << 20), 20, 64);
  EXPECT_EQ(c.sets(), 12288u);
  const CacheLevel::Result r = c.access(12288 * 7 + 5, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(c.access(12288 * 7 + 5, false).hit);
}

TEST(CacheLevel, ZeroCapacityMissesEverythingAndNeverEvicts) {
  CacheLevel c(0, 20, 64);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const CacheLevel::Result r = c.access(i, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted);
  }
  EXPECT_FALSE(c.contains(0));
}

TEST(CacheLevel, FirstAccessMissesSecondHits) {
  CacheLevel c(1 << 16, 8, 64);
  EXPECT_FALSE(c.access(42, false).hit);
  EXPECT_TRUE(c.access(42, false).hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheLevel, LruEvictsLeastRecentlyUsedWithinSet) {
  // 2-way, small: lines mapping to the same set are line, line+sets, ...
  CacheLevel c(4 * 64 * 2, 2, 64);  // 4 sets, 2 ways
  const std::uint64_t s = c.sets();
  c.access(0, false);       // way A
  c.access(s, false);       // way B
  c.access(0, false);       // A is now MRU
  const CacheLevel::Result r = c.access(2 * s, false);  // evicts B (LRU)
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, s);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(s));
}

TEST(CacheLevel, DirtyBitSticksUntilEviction) {
  CacheLevel c(4 * 64 * 2, 2, 64);
  const std::uint64_t s = c.sets();
  c.access(1, true);               // dirty fill
  c.access(1, false);              // clean re-access must not clear dirty
  c.access(1 + s, false);
  const CacheLevel::Result r = c.access(1 + 2 * s, false);  // evict line 1? LRU order
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 1u);
  EXPECT_TRUE(r.victim_dirty);
}

TEST(CacheLevel, EvictionOfCleanLineIsNotDirty) {
  CacheLevel c(64 * 2, 2, 64);  // 1 set, 2 ways
  c.access(0, false);
  c.access(1, false);
  const CacheLevel::Result r = c.access(2, false);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 0u);
  EXPECT_FALSE(r.victim_dirty);
}

TEST(CacheLevel, InvalidateReportsDirtyStateAndFreesSlot) {
  CacheLevel c(64 * 4, 4, 64);
  c.access(7, true);
  CacheLevel::Invalidated inv = c.invalidate(7);
  EXPECT_TRUE(inv.present);
  EXPECT_TRUE(inv.dirty);
  EXPECT_FALSE(c.contains(7));
  inv = c.invalidate(7);
  EXPECT_FALSE(inv.present);
  EXPECT_EQ(c.valid_lines(), 0u);
  c.access(8, false);
  inv = c.invalidate(8);
  EXPECT_TRUE(inv.present);
  EXPECT_FALSE(inv.dirty);
}

TEST(CacheLevel, InvalidateMiddleKeepsLruOrderConsistent) {
  CacheLevel c(64 * 4, 4, 64);  // 1 set, 4 ways
  for (std::uint64_t l = 0; l < 4; ++l) c.access(l, false);
  // Recency (MRU..LRU): 3 2 1 0.  Remove 2, then fill two lines: evictions
  // must be 0 then 1.
  c.invalidate(2);
  CacheLevel::Result r = c.access(10, false);
  EXPECT_FALSE(r.evicted);  // the freed way absorbs the fill
  r = c.access(11, false);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 0u);
  r = c.access(12, false);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 1u);
}

TEST(CacheLevel, FlushDrainsEveryValidLineExactlyOnce) {
  CacheLevel c(1 << 14, 4, 64);
  std::set<std::uint64_t> inserted;
  for (std::uint64_t l = 100; l < 160; ++l) {
    c.access(l, l % 2 == 0);
    inserted.insert(l);
  }
  std::set<std::uint64_t> flushed;
  std::size_t dirty_count = 0;
  c.flush([&](std::uint64_t line, bool dirty) {
    EXPECT_TRUE(flushed.insert(line).second) << "line flushed twice";
    if (dirty) ++dirty_count;
  });
  EXPECT_EQ(flushed, inserted);
  EXPECT_EQ(dirty_count, 30u);
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_FALSE(c.contains(100));
}

TEST(CacheLevel, WorkingSetWithinCapacityNeverMissesAfterWarmup) {
  CacheLevel c(1 << 16, 8, 64);  // 1024 lines
  for (std::uint64_t l = 0; l < 1024; ++l) c.access(l, false);
  c.reset_stats();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l < 1024; ++l) c.access(l, false);
  }
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_EQ(c.hits(), 3u * 1024u);
}

TEST(CacheLevel, WorkingSetBeyondCapacityThrashesUnderLru) {
  CacheLevel c(64 * 4, 4, 64);  // 1 set, 4 lines
  // Cyclic access to 5 lines in a 4-way set: classic LRU worst case.
  c.reset_stats();
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t l = 0; l < 5; ++l) c.access(l, false);
  }
  EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheLevel, InsertBehavesLikeAccessForEvictionAccounting) {
  CacheLevel c(64 * 2, 2, 64);
  c.insert(5, true);
  c.insert(6, false);
  const CacheLevel::Result r = c.insert(7, false);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 5u);
  EXPECT_TRUE(r.victim_dirty);
}

// The packed tag word (line << 1 | dirty): the dirty bit must survive every
// move through the recency order and come back out exactly.

TEST(CacheLevel, DirtyBitMergesOnHit) {
  CacheLevel c(64 * 2, 2, 64);  // 1 set, 2 ways
  c.access(3, false);           // clean fill
  EXPECT_TRUE(c.access(3, true).hit);   // a dirty hit marks the line dirty
  EXPECT_TRUE(c.access(3, false).hit);  // a clean hit keeps it dirty
  c.access(4, false);
  const CacheLevel::Result r = c.access(5, false);  // evicts 3 (LRU)
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 3u);
  EXPECT_TRUE(r.victim_dirty);
}

TEST(CacheLevel, EvictionReportsEachVictimsDirtyState) {
  CacheLevel c(64 * 4, 4, 64);  // 1 set, 4 ways
  for (std::uint64_t l = 0; l < 4; ++l) c.access(l, l % 2 == 1);
  // Four more fills push the lines out in LRU order 0, 1, 2, 3.
  for (std::uint64_t l = 0; l < 4; ++l) {
    const CacheLevel::Result r = c.access(100 + l, false);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_line, l);
    EXPECT_EQ(r.victim_dirty, l % 2 == 1) << "line " << l;
  }
}

TEST(CacheLevel, FlushHandsSinkExactLineDirtyPairs) {
  CacheLevel c(1 << 12, 4, 64);  // 16 sets
  std::set<std::pair<std::uint64_t, bool>> expected;
  for (std::uint64_t l = 0; l < 40; ++l) {
    const bool dirty = l % 3 == 0;
    c.access(l, dirty);
    expected.emplace(l, dirty);
  }
  for (std::uint64_t l = 0; l < 40; l += 5) {
    c.access(l, true);  // dirty hits flip some clean lines
    expected.erase({l, false});
    expected.emplace(l, true);
  }
  std::set<std::pair<std::uint64_t, bool>> flushed;
  c.flush([&](std::uint64_t line, bool dirty) {
    EXPECT_TRUE(flushed.emplace(line, dirty).second) << "line flushed twice";
  });
  EXPECT_EQ(flushed, expected);
}

TEST(CacheLevel, NeverFilledCacheIsEmptyAndFlushesNothing) {
  // A 100 MiB victim partition that never receives a cast-out.
  CacheLevel c(100ull << 20, 8, 64, /*hashed_sets=*/true);
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(12345));
  EXPECT_FALSE(c.invalidate(12345).present);
  std::size_t calls = 0;
  c.flush([&](std::uint64_t, bool) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(c.hits() + c.misses(), 0u);

  // Emptied again by a flush: a second flush has nothing to hand over.
  c.insert(7, true);
  c.flush([&](std::uint64_t, bool) { ++calls; });
  EXPECT_EQ(calls, 1u);
  c.flush([&](std::uint64_t, bool) { ++calls; });
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(c.contains(7));
}

TEST(CacheLevel, LruWordNamesTheNextVictimAndHintsChangeNothing) {
  CacheLevel c(4 * 64 * 2, 2, 64);  // 4 sets, 2 ways
  const std::uint64_t s = c.sets();
  EXPECT_EQ(c.lru_word(0), ~0ull);  // no storage yet
  c.prefetch_set(0);
  c.access(0, true);
  EXPECT_EQ(c.lru_word(s), ~0ull);  // the set's second way is still empty
  c.access(s, false);
  c.access(0, false);
  EXPECT_EQ(c.lru_word(2 * s), s << 1);  // clean line s is the LRU way
  c.access(s, true);
  EXPECT_EQ(c.lru_word(2 * s), 1u);  // now line 0, dirty
  const std::uint64_t epoch = c.epoch();
  // Any 64-bit line is a valid hint, including those past kLineLimit.
  for (const std::uint64_t line :
       {std::uint64_t{0}, std::uint64_t{3}, CacheLevel::kLineLimit, ~std::uint64_t{0}}) {
    c.prefetch_set(line);
    c.lru_word(line);
  }
  EXPECT_EQ(c.epoch(), epoch);
  EXPECT_EQ(c.hits() + c.misses(), 4u);
  EXPECT_EQ(c.access(2 * s, false).victim_line, 0u);
}

TEST(CacheLevel, LinesNearThePackingLimitRoundTrip) {
  const std::uint64_t big[] = {1ull << 62, (1ull << 62) + 1,
                               CacheLevel::kLineLimit - 2,
                               CacheLevel::kLineLimit - 1};
  CacheLevel c(64 * 4, 4, 64);  // 1 set, 4 ways
  for (std::size_t i = 0; i < 4; ++i) c.access(big[i], i % 2 == 0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.contains(big[i])) << i;
    EXPECT_TRUE(c.access(big[i], false).hit) << i;
  }
  // Evictions hand back the exact line numbers and dirty bits.
  for (std::size_t i = 0; i < 2; ++i) {
    const CacheLevel::Result r = c.access(i, false);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_line, big[i]);
    EXPECT_EQ(r.victim_dirty, i % 2 == 0);
  }
  const CacheLevel::Invalidated inv = c.invalidate(big[2]);
  EXPECT_TRUE(inv.present);
  EXPECT_TRUE(inv.dirty);
  std::set<std::pair<std::uint64_t, bool>> flushed;
  c.flush([&](std::uint64_t line, bool dirty) { flushed.emplace(line, dirty); });
  const std::set<std::pair<std::uint64_t, bool>> expected = {
      {0, false}, {1, false}, {big[3], false}};
  EXPECT_EQ(flushed, expected);
}

// Property-style sweep: for several geometries, a working set exactly at
// capacity is fully retained when accessed set-uniformly.
class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheGeometry, CapacityWorkingSetRetained) {
  const auto [size_kb, assoc] = GetParam();
  CacheLevel c(static_cast<std::uint64_t>(size_kb) << 10, assoc, 64);
  const std::uint64_t lines = c.capacity_lines();
  for (std::uint64_t l = 0; l < lines; ++l) c.access(l, false);
  c.reset_stats();
  for (std::uint64_t l = 0; l < lines; ++l) c.access(l, false);
  EXPECT_EQ(c.misses(), 0u) << "size=" << size_kb << "KB assoc=" << assoc;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::tuple{32, 8}, std::tuple{256, 8}, std::tuple{512, 16},
                      std::tuple{5120, 20}, std::tuple{96, 4}, std::tuple{60, 20}));

// Differential check against the slow reference model
// (tests/testing/reference_lru.hpp): a seeded random mix of access, insert,
// invalidate and contains, with mixed dirty bits, must give the same result
// in every field, op by op; periodic flushes must drain the same multiset of
// (line, dirty) pairs.  Set counts 16 (mask) and 12 (fastmod), with and
// without the set hash, at associativity 1, 8 and 20.
class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, bool>> {};

::testing::AssertionResult same_result(const CacheLevel::Result& got,
                                       const CacheLevel::Result& want) {
  if (got.hit == want.hit && got.evicted == want.evicted &&
      got.victim_line == want.victim_line && got.victim_dirty == want.victim_dirty) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "{hit, evicted, victim_line, victim_dirty}: got {" << got.hit << ", "
         << got.evicted << ", " << got.victim_line << ", " << got.victim_dirty
         << "}, reference {" << want.hit << ", " << want.evicted << ", "
         << want.victim_line << ", " << want.victim_dirty << "}";
}

std::vector<std::pair<std::uint64_t, bool>> drain(CacheLevel& c) {
  std::vector<std::pair<std::uint64_t, bool>> out;
  c.flush([&](std::uint64_t line, bool dirty) { out.emplace_back(line, dirty); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(CacheVsReference, EveryResultMatchesAReferenceLru) {
  const auto [sets, assoc, hashed] = GetParam();
  const std::uint64_t bytes = std::uint64_t{sets} * assoc * 64;
  CacheLevel cache(bytes, assoc, 64, hashed);
  test_support::ReferenceLru ref(bytes, assoc, 64, hashed);
  ASSERT_EQ(cache.sets(), sets);

  // About twice the capacity in distinct lines, so lines both stay resident
  // and get evicted, plus a few far apart near the packing limit.
  std::vector<std::uint64_t> pool;
  for (std::uint64_t i = 0; i < 2 * cache.capacity_lines() + 3; ++i) pool.push_back(4096 + i);
  for (std::uint64_t i = 0; i < 8; ++i) pool.push_back(CacheLevel::kLineLimit - 1 - i * 977);

  SplitMix64 rng(0x5eed ^ (std::uint64_t{sets} << 16) ^ (std::uint64_t{assoc} << 8) ^ hashed);
  std::vector<std::uint64_t> hits_at_depth(assoc, 0);
  std::uint64_t hits = 0, lookups = 0, flushes = 0;
  // The epoch must move exactly when the reference's state (recency order
  // or a dirty bit) does; count both outcomes so neither goes untested.
  std::uint64_t epoch_moves = 0, epoch_stays = 0, mru_dirtied = 0, mru_same = 0;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t r = rng.next_u64();
    const std::uint64_t line = pool[(r >> 16) % pool.size()];
    const bool dirty = ((r >> 8) & 1) != 0;
    const std::uint64_t kind = r % 100;
    const std::uint64_t epoch0 = cache.epoch();
    // Flush is the one operation that can change more than `line`'s set.
    const bool flush_op = kind >= 99 && (r >> 40) % 64 == 0;
    const auto state0 = ref.set_state(line);
    const std::uint64_t valid0 = ref.valid_lines();
    int depth = -1;
    if (kind < 55) {
      const CacheLevel::Result want = ref.access(line, dirty, &depth);
      ASSERT_TRUE(same_result(cache.access(line, dirty), want)) << "op " << op << " access";
      if (depth >= 0) ++hits_at_depth[static_cast<std::size_t>(depth)];
      hits += want.hit;
      ++lookups;
    } else if (kind < 75) {
      const CacheLevel::Result want = ref.insert(line, dirty);
      ASSERT_TRUE(same_result(cache.insert(line, dirty), want)) << "op " << op << " insert";
      hits += want.hit;
      ++lookups;
    } else if (kind < 92) {
      const CacheLevel::Invalidated want = ref.invalidate(line);
      const CacheLevel::Invalidated got = cache.invalidate(line);
      ASSERT_EQ(got.present, want.present) << "op " << op << " invalidate";
      ASSERT_EQ(got.dirty, want.dirty) << "op " << op << " invalidate";
    } else if (kind < 99) {
      ASSERT_EQ(cache.contains(line), ref.contains(line)) << "op " << op << " contains";
    } else if ((r >> 40) % 64 == 0) {
      std::vector<std::pair<std::uint64_t, bool>> want = ref.flush();
      std::sort(want.begin(), want.end());
      ASSERT_EQ(drain(cache), want) << "op " << op << " flush";
      ++flushes;
    }
    ASSERT_EQ(cache.valid_lines(), ref.valid_lines()) << "op " << op;
    const bool changed = flush_op ? valid0 != 0 : ref.set_state(line) != state0;
    ASSERT_EQ(cache.epoch() != epoch0, changed) << "op " << op << " kind " << kind;
    (changed ? epoch_moves : epoch_stays) += 1;
    if (depth == 0) (changed ? mru_dirtied : mru_same) += 1;
  }
  EXPECT_GT(epoch_moves, 0u);
  EXPECT_GT(epoch_stays, 0u);
  EXPECT_GT(mru_dirtied, 0u) << "no MRU hit set a dirty bit";
  EXPECT_GT(mru_same, 0u) << "no MRU hit left the set as it was";
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), lookups - hits);
  EXPECT_GT(flushes, 0u);
  for (std::uint32_t d = 0; d < assoc; ++d) {
    EXPECT_GT(hits_at_depth[d], 0u) << "no hit at LRU depth " << d;
  }
  std::vector<std::pair<std::uint64_t, bool>> want = ref.flush();
  std::sort(want.begin(), want.end());
  EXPECT_FALSE(want.empty());
  const std::uint64_t epoch_full = cache.epoch();
  EXPECT_EQ(drain(cache), want);
  EXPECT_NE(cache.epoch(), epoch_full);
  const std::uint64_t epoch_empty = cache.epoch();
  EXPECT_TRUE(drain(cache).empty());
  EXPECT_EQ(cache.epoch(), epoch_empty) << "flushing an empty cache changes nothing";
}

INSTANTIATE_TEST_SUITE_P(
    SetsWaysHash, CacheVsReference,
    ::testing::Combine(::testing::Values(16u, 12u), ::testing::Values(1u, 8u, 20u),
                       ::testing::Bool()));

}  // namespace
}  // namespace papisim::sim
