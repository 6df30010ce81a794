// Unit tests for the sliced L3 with lateral cast-out.
#include <gtest/gtest.h>

#include "sim/l3fabric.hpp"

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
