// Unit tests for the sliced L3 with lateral cast-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/l3fabric.hpp"
#include "sim/rng.hpp"
#include "testing/reference_fabric.hpp"

namespace papisim::sim {
namespace {

MachineConfig small_config(double retention = 1.0) {
  MachineConfig cfg;
  cfg.cores_per_socket = 4;
  cfg.l3_slice_bytes = 64 * 64;  // 64 lines per slice
  cfg.l3_associativity = 4;
  cfg.castout_retention = retention;
  return cfg;
}

struct Fixture {
  explicit Fixture(MachineConfig c = small_config())
      : cfg(std::move(c)), mem(cfg.mem_channels, cfg.line_bytes, 2), l3(cfg, mem) {}
  MachineConfig cfg;
  MemController mem;
  L3Fabric l3;
};

TEST(L3Fabric, ColdLoadReadsMemoryWarmLoadHits) {
  Fixture f;
  EXPECT_EQ(f.l3.load_line(0, 100), L3Fabric::Source::Memory);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Read), 64u);
  EXPECT_EQ(f.l3.load_line(0, 100), L3Fabric::Source::L3Hit);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Read), 64u);
}

TEST(L3Fabric, StoreMissIncursWriteAllocateRead) {
  Fixture f;
  EXPECT_EQ(f.l3.store_line(0, 7), L3Fabric::Source::Memory);
  // The "read incurred by the hardware when writing": one line read, no write yet.
  EXPECT_EQ(f.mem.total_bytes(MemDir::Read), 64u);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Write), 0u);
}

TEST(L3Fabric, DirtyLineWrittenBackOnFlush) {
  Fixture f;
  f.l3.store_line(0, 7);
  f.l3.flush_core(0);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Write), 64u);
  // Flushed clean lines produce no writes.
  f.l3.load_line(0, 9);
  const std::uint64_t w = f.mem.total_bytes(MemDir::Write);
  f.l3.flush_core(0);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Write), w);
}

TEST(L3Fabric, CapacityVictimsCastOutLaterallyAndRecoverWithoutMemoryTraffic) {
  Fixture f;  // retention = 1.0: every cast-out is recoverable
  f.l3.set_active_cores(1);  // 3 idle slices of victim capacity
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  // Touch twice the slice capacity; spread across sets (sequential lines).
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  const std::uint64_t reads_cold = f.mem.total_bytes(MemDir::Read);
  EXPECT_EQ(reads_cold, 2 * slice_lines * 64);
  // Second pass: almost everything is either in the slice or the victim
  // store (hashed set indexing can overflow a few victim sets and drop the
  // odd clean line).
  std::uint64_t mem_misses = 0;
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) {
    if (f.l3.load_line(0, l) == L3Fabric::Source::Memory) ++mem_misses;
  }
  EXPECT_LE(mem_misses, 2 * slice_lines / 10);
  EXPECT_GT(f.l3.victim_recoveries(), 0u);
}

TEST(L3Fabric, AllCoresActiveMeansNoVictimCapacity) {
  Fixture f;
  f.l3.set_active_cores(4);
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  // Cyclic re-walk of 2x capacity under LRU: the vast majority of accesses
  // miss straight to memory (the hashed set index lets a handful of
  // under-loaded sets retain their lines).
  std::uint64_t mem_misses = 0;
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) {
    if (f.l3.load_line(0, l) == L3Fabric::Source::Memory) ++mem_misses;
  }
  EXPECT_GT(mem_misses, 2 * slice_lines * 8 / 10);
  EXPECT_EQ(f.l3.victim_recoveries(), 0u);
}

TEST(L3Fabric, PartialRetentionLosesSomeCastouts) {
  Fixture f(small_config(0.5));
  f.l3.set_active_cores(1);
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  std::uint64_t mem_hits = 0, recovered = 0;
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) {
    const L3Fabric::Source src = f.l3.load_line(0, l);
    if (src == L3Fabric::Source::Memory) ++mem_hits;
    if (src == L3Fabric::Source::VictimHit) ++recovered;
  }
  // With retention 0.5 both outcomes must occur.
  EXPECT_GT(mem_hits, 0u);
  EXPECT_GT(recovered, 0u);
}

TEST(L3Fabric, DirtyCastOutPreservedAndWrittenBackEventually) {
  Fixture f;
  f.l3.set_active_cores(1);
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  // Dirty the whole slice, then displace it entirely with loads.
  for (std::uint64_t l = 0; l < slice_lines; ++l) f.l3.store_line(0, l);
  for (std::uint64_t l = slice_lines; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  // Dirty lines now live in the victim store; at most a handful of
  // writebacks (hashed set indexing can overload individual victim sets).
  EXPECT_LE(f.mem.total_bytes(MemDir::Write), 4 * 64u);
  f.l3.flush_all();
  // Every dirty line is written back exactly once overall.
  EXPECT_EQ(f.mem.total_bytes(MemDir::Write), slice_lines * 64);
}

TEST(L3Fabric, CastOutWithoutVictimCapacityWritesBackDirtyLines) {
  Fixture f;
  f.l3.set_active_cores(4);  // no victim capacity
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  for (std::uint64_t l = 0; l < slice_lines; ++l) f.l3.store_line(0, l);
  for (std::uint64_t l = slice_lines; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  // Most dirty lines are displaced straight to memory (hashed sets keep a
  // few resident); the flush drains the rest.
  EXPECT_GE(f.mem.total_bytes(MemDir::Write), slice_lines * 64 * 9 / 10);
  f.l3.flush_core(0);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Write), slice_lines * 64);
}

TEST(L3Fabric, CoresHaveIndependentSlices) {
  Fixture f;
  f.l3.set_active_cores(4);
  f.l3.load_line(0, 55);
  // Same line from another core does not hit core 0's slice.
  EXPECT_EQ(f.l3.load_line(1, 55), L3Fabric::Source::Memory);
  EXPECT_EQ(f.l3.load_line(0, 55), L3Fabric::Source::L3Hit);
}

TEST(L3Fabric, LateralCastoutDisabledByConfig) {
  MachineConfig cfg = small_config();
  cfg.lateral_castout = false;
  Fixture f(cfg);
  f.l3.set_active_cores(1);
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  const std::uint64_t reads_cold = f.mem.total_bytes(MemDir::Read);
  for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) f.l3.load_line(0, l);
  // Without cast-out, the 2x working set thrashes exactly like the
  // all-cores-active case.
  EXPECT_EQ(f.mem.total_bytes(MemDir::Read), reads_cold + 2 * slice_lines * 64);
}

TEST(L3Fabric, HoldCountsItsLinesAndPublishesThemOnRelease) {
  Fixture f;
  f.l3.set_active_cores(4);  // no victim capacity: every miss is a read
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  std::uint64_t evicted_dirty = 0;
  {
    L3Fabric::StripeHandle stripe = f.l3.hold(0);
    for (std::uint64_t l = 0; l < slice_lines; ++l) stripe.store(l);
    for (std::uint64_t l = slice_lines; l < 3 * slice_lines; ++l) stripe.load(l);
    stripe.write_through(1 << 20);
    EXPECT_EQ(stripe.lines(MemDir::Read), 3 * slice_lines);
    evicted_dirty = stripe.lines(MemDir::Write) - 1;
    EXPECT_GT(evicted_dirty, 0u);
    // Nothing reaches the controller while the stripe is held.
    EXPECT_EQ(f.mem.total_ops(MemDir::Read), 0u);
    EXPECT_EQ(f.mem.total_ops(MemDir::Write), 0u);
  }
  EXPECT_EQ(f.mem.total_ops(MemDir::Read), 3 * slice_lines);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Read), 3 * slice_lines * 64);
  EXPECT_EQ(f.mem.total_ops(MemDir::Write), evicted_dirty + 1);
  EXPECT_GT(f.mem.channel_ops(f.mem.channel_of(1 << 20), MemDir::Write), 0u);

  // The next hold starts from zero: a hit publishes nothing, and one miss
  // publishes exactly one read.
  const auto before = f.mem.snapshot();
  {
    L3Fabric::StripeHandle stripe = f.l3.hold(0);
    EXPECT_EQ(stripe.load(3 * slice_lines - 1), L3Fabric::Source::L3Hit);
    EXPECT_EQ(stripe.lines(MemDir::Read), 0u);
    EXPECT_EQ(stripe.lines(MemDir::Write), 0u);
  }
  EXPECT_EQ(f.mem.snapshot(), before);
  {
    L3Fabric::StripeHandle stripe = f.l3.hold(0);
    EXPECT_EQ(stripe.load(10 * slice_lines), L3Fabric::Source::Memory);
    EXPECT_EQ(stripe.lines(MemDir::Read), 1u);
  }
  EXPECT_EQ(f.mem.total_ops(MemDir::Read), 3 * slice_lines + 1);

  // Every stored line is written back exactly once, by eviction or flush.
  f.l3.flush_core(0);
  EXPECT_EQ(f.mem.total_bytes(MemDir::Write), (slice_lines + 1) * 64);
}

TEST(L3Fabric, HoldCountsEachChannelLikeSingleLineAccesses) {
  Fixture held, single;
  held.l3.set_active_cores(4);
  single.l3.set_active_cores(4);
  {
    L3Fabric::StripeHandle stripe = held.l3.hold(2);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t line = i * 37 % 301;
      if (i % 3 == 0) {
        stripe.store(line);
      } else {
        stripe.load(line);
      }
    }
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t line = i * 37 % 301;
    if (i % 3 == 0) {
      single.l3.store_line(2, line);
    } else {
      single.l3.load_line(2, line);
    }
  }
  EXPECT_EQ(held.mem.snapshot(), single.mem.snapshot());
  for (std::uint32_t ch = 0; ch < held.mem.channels(); ++ch) {
    for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
      EXPECT_EQ(held.mem.channel_ops(ch, dir), single.mem.channel_ops(ch, dir));
    }
  }
}

TEST(L3Fabric, VictimCountersSumOverCores) {
  Fixture f(small_config(/*retention=*/0.5));
  f.l3.set_active_cores(2);
  const std::uint64_t slice_lines = f.cfg.l3_slice_bytes / f.cfg.line_bytes;
  std::uint64_t victim_hits = 0;
  for (std::uint32_t core = 0; core < 2; ++core) {
    const std::uint64_t base = std::uint64_t{core} << 32;
    for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) f.l3.load_line(core, base + l);
    for (std::uint64_t l = 0; l < 2 * slice_lines; ++l) {
      if (f.l3.load_line(core, base + l) == L3Fabric::Source::VictimHit) ++victim_hits;
    }
  }
  EXPECT_GT(victim_hits, 0u);
  EXPECT_GT(f.l3.victim_retention_misses(), 0u);
  EXPECT_EQ(f.l3.victim_recoveries(), victim_hits);
}

// Differential check against the slow reference fabric
// (tests/testing/reference_fabric.hpp): a seeded random mix of loads,
// stores, prefetches, write-throughs, core flushes and active-core changes
// must give the same Source for every access and, after every operation,
// the same bytes and ops on every memory channel and the same victim
// counters.  Periodically every pool line's presence in the slices and
// victim partitions must agree, and at the end each slice must hold the
// same (line, dirty) pairs.  The run starts at 1, 2 or 21 active cores of
// 21 (21: no victim store, every miss resolved inline), with lateral
// cast-out on and off and retention 1.0 and 0.9.
class FabricVsReference
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool, double>> {};

TEST_P(FabricVsReference, EveryAccessAndChannelMatchesAReferenceFabric) {
  const auto [active0, lateral, retention] = GetParam();
  MachineConfig cfg;
  cfg.cores_per_socket = 21;
  cfg.l3_slice_bytes = 12 * 5 * 64;  // 12 sets x 5 ways
  cfg.l3_associativity = 5;
  cfg.lateral_castout = lateral;
  cfg.castout_retention = retention;
  cfg.mem_channels = 6;
  constexpr std::uint32_t kInterleave = 2;
  MemController mem(cfg.mem_channels, cfg.line_bytes, kInterleave);
  L3Fabric l3(cfg, mem);
  test_support::ReferenceFabric ref(cfg, kInterleave);
  l3.set_active_cores(active0);
  ref.set_active_cores(active0);
  std::uint32_t active = active0;

  // More distinct lines than a lone core's slice and victim partition hold
  // together (60 + 1200), so the victim store evicts too.
  std::vector<std::uint64_t> pool;
  for (std::uint64_t i = 0; i < 2048; ++i) pool.push_back(0x10000 + i * 3);
  SplitMix64 rng(0xfab ^ (std::uint64_t{active0} << 8) ^ (std::uint64_t{lateral} << 4) ^
                 static_cast<std::uint64_t>(retention * 10));
  std::uint64_t sources[3] = {};
  std::uint64_t flushes = 0, reconfigures = 0;
  constexpr int kOps = 150000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t r = rng.next_u64();
    // Half the touches go to a slowly moving window of 40 lines, so the
    // slices hit as well as miss; the rest spread over the whole pool.
    const std::size_t window = static_cast<std::size_t>(op / 256) % (pool.size() - 40);
    const std::uint64_t line = (r >> 63) != 0 ? pool[window + (r >> 32) % 40]
                                              : pool[(r >> 32) % pool.size()];
    const std::uint32_t core =
        static_cast<std::uint32_t>((r >> 16) % std::min(active, 3u));
    const std::uint64_t kind = r % 1000;
    if (kind < 900) {
      L3Fabric::Source got, want;
      if (kind < 450) {
        got = l3.load_line(core, line);
        want = ref.load(core, line);
      } else if (kind < 750) {
        got = l3.store_line(core, line);
        want = ref.store(core, line);
      } else {
        got = l3.prefetch_line(core, line);
        want = ref.prefetch(core, line);
      }
      ASSERT_EQ(static_cast<int>(got), static_cast<int>(want))
          << "op " << op << " kind " << kind << " core " << core << " line " << line;
      ++sources[static_cast<int>(got)];
    } else if (kind < 990) {
      l3.hold(core).write_through(line);
      ref.write_through(line);
    } else if (kind < 998) {
      l3.flush_core(core);
      ref.flush_core(core);
      ++flushes;
    } else {
      constexpr std::uint32_t kActive[] = {1, 2, 21};
      active = kActive[(r >> 8) % 3];
      l3.set_active_cores(active);
      ref.set_active_cores(active);
      ++reconfigures;
    }
    for (std::uint32_t ch = 0; ch < cfg.mem_channels; ++ch) {
      for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
        ASSERT_EQ(mem.channel_bytes(ch, dir), ref.channel_bytes(ch, dir))
            << "op " << op << " channel " << ch << " dir " << static_cast<int>(dir);
        ASSERT_EQ(mem.channel_ops(ch, dir), ref.channel_ops(ch, dir))
            << "op " << op << " channel " << ch << " dir " << static_cast<int>(dir);
      }
    }
    ASSERT_EQ(l3.victim_recoveries(), ref.victim_recoveries()) << "op " << op;
    ASSERT_EQ(l3.victim_retention_misses(), ref.victim_retention_misses()) << "op " << op;
    if (op % 2000 == 1999) {
      for (std::uint32_t c = 0; c < 3; ++c) {
        for (const std::uint64_t l : pool) {
          ASSERT_EQ(l3.slice(c).contains(l), ref.slice(c).contains(l))
              << "op " << op << " core " << c << " slice line " << l;
          ASSERT_EQ(l3.victim_store(c).contains(l), ref.victim_store(c).contains(l))
              << "op " << op << " core " << c << " victim line " << l;
        }
      }
    }
  }
  for (std::uint32_t c = 0; c < cfg.cores_per_socket; ++c) {
    std::vector<std::pair<std::uint64_t, bool>> got;
    l3.slice(c).flush([&](std::uint64_t l, bool dirty) { got.emplace_back(l, dirty); });
    std::vector<std::pair<std::uint64_t, bool>> want = ref.slice(c).flush();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "core " << c << " slice";
  }
  EXPECT_GT(sources[static_cast<int>(L3Fabric::Source::L3Hit)], 0u);
  EXPECT_GT(sources[static_cast<int>(L3Fabric::Source::Memory)], 0u);
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(reconfigures, 0u);
  if (lateral) {
    EXPECT_GT(sources[static_cast<int>(L3Fabric::Source::VictimHit)], 0u);
    if (retention < 1.0) {
      EXPECT_GT(ref.victim_retention_misses(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ActiveCoresCastoutRetention, FabricVsReference,
                         ::testing::Combine(::testing::Values(1u, 2u, 21u),
                                            ::testing::Bool(),
                                            ::testing::Values(1.0, 0.9)));

TEST(L3Fabric, RejectsMoreChannelsThanAStripeCanTrack) {
  MachineConfig cfg = small_config();
  MemController mem(33, cfg.line_bytes, 2);
  EXPECT_THROW({ L3Fabric fabric(cfg, mem); }, std::invalid_argument);
}

TEST(L3Fabric, SetActiveCoresValidatesRange) {
  Fixture f;
  EXPECT_THROW(f.l3.set_active_cores(0), std::invalid_argument);
  EXPECT_THROW(f.l3.set_active_cores(5), std::invalid_argument);
  EXPECT_NO_THROW(f.l3.set_active_cores(4));
}

}  // namespace
}  // namespace papisim::sim
