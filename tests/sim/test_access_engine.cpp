// Unit tests for the loop-replay access engine and its bypass/prefetch
// policies (the mechanisms behind the paper's Figs. 6-9).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "selfmon/metrics.hpp"
#include "sim/machine.hpp"

namespace papisim::sim {
namespace {

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.sockets = 1;
  cfg.cores_per_socket = 4;
  cfg.l3_slice_bytes = 1 << 20;  // 1 MB slice, 16384 lines
  cfg.l3_associativity = 16;
  return cfg;
}

struct EngineFixture : ::testing::Test {
  void SetUp() override {
    machine = std::make_unique<Machine>(test_config());
    machine->set_noise_enabled(false);
    machine->set_active_cores(0, 1);
  }
  AccessEngine& eng() { return machine->engine(0, 0); }
  std::uint64_t reads() const { return machine->memctrl(0).total_bytes(MemDir::Read); }
  std::uint64_t writes() const { return machine->memctrl(0).total_bytes(MemDir::Write); }
  std::uint64_t alloc(std::uint64_t bytes) { return machine->address_space().allocate(bytes, 64); }

  std::unique_ptr<Machine> machine;
};

constexpr std::uint64_t kN = 8192;  // elements per stream in most tests

TEST_F(EngineFixture, SequentialCopyBypassesCacheOneReadOneWrite) {
  const std::uint64_t in = alloc(kN * 8), out = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load}, {out, 8, 8, AccessKind::Store}};
  loop.iterations = kN;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.mem_read_bytes, kN * 8);   // only `in` is read
  EXPECT_EQ(st.mem_write_bytes, kN * 8);  // `out` streamed straight to memory
  EXPECT_EQ(st.bypassed_store_lines, kN * 8 / 64);
  EXPECT_EQ(st.allocated_store_lines, 0u);
  // Nothing dirty left behind: flushing adds no writes.
  machine->flush_socket(0);
  EXPECT_EQ(writes(), kN * 8);
}

TEST_F(EngineFixture, ReplayTakesTheStripeOncePerLoopAndPerScalarCall) {
  if (!selfmon::kEnabled) GTEST_SKIP() << "selfmon compiled out";
  auto count = [](selfmon::CounterId id) { return selfmon::snapshot().counter(id); };
  const std::uint64_t in = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load}};
  loop.iterations = kN;
  const std::uint64_t acq0 = count(selfmon::CounterId::L3StripeAcquisitions);
  const std::uint64_t cont0 = count(selfmon::CounterId::L3StripeContention);
  EXPECT_EQ(eng().execute(loop).line_touches, kN * 8 / 64);
  EXPECT_EQ(count(selfmon::CounterId::L3StripeAcquisitions) - acq0, 1u);
  eng().store(in + 60, 16);  // straddles two lines: still one acquisition
  EXPECT_EQ(count(selfmon::CounterId::L3StripeAcquisitions) - acq0, 2u);
  EXPECT_EQ(count(selfmon::CounterId::L3StripeContention) - cont0, 0u);
}

TEST_F(EngineFixture, MissHeavyReplayCountsChannelsLikeLineByLineAccesses) {
  // Sequential loads and strided (allocating) stores over 5x the slice, with
  // no victim capacity: almost every touch misses, and the dirty store lines
  // are written back as they are evicted.  The loop's memory lines are
  // counted in its stripe hold and published when the loop ends; the
  // controller must then hold exactly what one load_line/store_line per
  // touch gives, channel by channel.
  constexpr std::uint64_t kIters = 40000;
  Machine line_by_line(test_config());
  line_by_line.set_noise_enabled(false);
  for (Machine* m : {machine.get(), &line_by_line}) m->set_active_cores(0, 4);
  const std::uint64_t in = alloc(kIters * 64), out = alloc(kIters * 4096);

  LoopDesc loop;
  loop.streams = {{in, 64, 8, AccessKind::Load}, {out, 4096, 8, AccessKind::Store}};
  loop.iterations = kIters;
  const LoopStats st = eng().execute(loop);
  for (std::uint64_t i = 0; i < kIters; ++i) {
    line_by_line.l3(0).load_line(0, (in + i * 64) / 64);
    line_by_line.l3(0).store_line(0, (out + i * 4096) / 64);
  }

  const MemController& replayed = machine->memctrl(0);
  const MemController& single = line_by_line.memctrl(0);
  EXPECT_EQ(st.bypassed_store_lines, 0u);
  EXPECT_LT(st.l3_hits, st.line_touches / 100);
  EXPECT_GT(st.mem_write_bytes, 0u);
  EXPECT_EQ(st.mem_read_bytes, replayed.total_bytes(MemDir::Read));
  EXPECT_EQ(st.mem_write_bytes, replayed.total_bytes(MemDir::Write));
  EXPECT_EQ(replayed.snapshot(), single.snapshot());
  for (std::uint32_t ch = 0; ch < replayed.channels(); ++ch) {
    for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
      EXPECT_EQ(replayed.channel_ops(ch, dir), single.channel_ops(ch, dir))
          << "ch " << ch;
    }
  }
}

/// Hits and victim hits of a line-by-line replay.
struct LineByLineStats {
  std::uint64_t touches = 0, l3_hits = 0, victim_hits = 0;
};

/// Replays `loop` on core 0 of `m` one line at a time through
/// load_line/store_line, in the engine's event order (by iteration, then by
/// stream) and touching a stream's line only when it differs from that
/// stream's previous one.  Only for loops whose stores never bypass and that
/// do not prefetch.
void replay_line_by_line(Machine& m, const LoopDesc& loop, LineByLineStats& out) {
  std::vector<std::uint64_t> prev(loop.streams.size(), ~0ull);
  for (std::uint64_t i = 0; i < loop.iterations; ++i) {
    for (std::size_t k = 0; k < loop.streams.size(); ++k) {
      const StreamDesc& sd = loop.streams[k];
      const std::uint64_t line =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(sd.base) +
                                     static_cast<std::int64_t>(i) * sd.stride) /
          64;
      if (line == prev[k]) continue;
      prev[k] = line;
      const L3Fabric::Source src = sd.kind == AccessKind::Load
                                       ? m.l3(0).load_line(0, line)
                                       : m.l3(0).store_line(0, line);
      ++out.touches;
      out.l3_hits += src == L3Fabric::Source::L3Hit;
      out.victim_hits += src == L3Fabric::Source::VictimHit;
    }
  }
}

TEST_F(EngineFixture, HitHeavyReplayCountsLikeLineByLineAccesses) {
  // GEMM-shaped sweep: for each column j the inner loop over k reads a row
  // of A, a column of B and a band of D, and updates two bands of C.  The
  // per-column working set sits in the 1 MiB slice, so most touches hit;
  // the B block touched over all columns is 2 MiB, so the second sweep
  // recovers lines from the victim store.  Every stride mode is covered:
  // A (8 B, shift) and E (16 B store, shift) start mid-line so elements
  // straddle lines, B (one 2 KiB row per iteration) advances a line per
  // iteration and is Stride-N, D (+24 B) and C (-40 B store) take the
  // general path.  No store stride equals its element size, so no store
  // bypasses; every touch goes through the slice.
  constexpr std::uint64_t kK = 1024, kCols = 256, kRow = kCols * 8;
  Machine line_by_line(test_config());
  line_by_line.set_noise_enabled(false);
  line_by_line.set_active_cores(0, 1);
  const std::uint64_t a = alloc(kK * 8 + 64), b = alloc(kK * kRow),
                      d = alloc(kK * 24 + kCols * 8 + 64),
                      c = alloc(kK * 40 + kCols * 8 + 64),
                      e = alloc(kK * 16 + kCols * 8 + 64);

  LoopStats replayed;
  LineByLineStats single;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::uint64_t j = 0; j < kCols; ++j) {
      LoopDesc loop;
      loop.iterations = kK;
      loop.streams = {{a + 60, 8, 8, AccessKind::Load},
                      {b + j * 8 + 24, static_cast<std::int64_t>(kRow), 8, AccessKind::Load},
                      {d + 40 + j * 8, 24, 8, AccessKind::Load},
                      {c + kK * 40 + j * 8, -40, 8, AccessKind::Store},
                      {e + 56 + j * 16, 16, 8, AccessKind::Store}};
      replayed += eng().execute(loop);
      replay_line_by_line(line_by_line, loop, single);
    }
  }

  EXPECT_EQ(replayed.bypassed_store_lines, 0u);
  EXPECT_EQ(replayed.line_touches, single.touches);
  EXPECT_GT(replayed.l3_hits, replayed.line_touches * 9 / 10);
  EXPECT_GT(replayed.victim_hits, 1000u);
  EXPECT_EQ(replayed.l3_hits, single.l3_hits);
  EXPECT_EQ(replayed.victim_hits, single.victim_hits);
  EXPECT_EQ(replayed.mem_read_bytes, reads());
  EXPECT_EQ(replayed.mem_write_bytes, writes());

  // Per channel, before and after the dirty lines drain.
  for (int flushed = 0; flushed < 2; ++flushed) {
    if (flushed != 0) {
      machine->flush_socket(0);
      line_by_line.flush_socket(0);
    }
    const MemController& mine = machine->memctrl(0);
    const MemController& theirs = line_by_line.memctrl(0);
    EXPECT_EQ(mine.snapshot(), theirs.snapshot()) << "flushed " << flushed;
    for (std::uint32_t ch = 0; ch < mine.channels(); ++ch) {
      for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
        EXPECT_EQ(mine.channel_ops(ch, dir), theirs.channel_ops(ch, dir))
            << "ch " << ch << " flushed " << flushed;
      }
    }
  }
  EXPECT_GT(writes(), 0u);
}

TEST_F(EngineFixture, SoftwarePrefetchForcesStoreTargetToBeRead) {
  const std::uint64_t in = alloc(kN * 8), out = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load}, {out, 8, 8, AccessKind::Store}};
  loop.iterations = kN;
  loop.sw_prefetch = true;  // models GCC -fprefetch-loop-arrays (dcbtst)
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.mem_read_bytes, 2 * kN * 8);  // `in` AND `out` are read
  EXPECT_EQ(st.bypassed_store_lines, 0u);
  machine->flush_socket(0);
  EXPECT_EQ(writes(), kN * 8);  // the dirty out-lines drain at flush
}

TEST_F(EngineFixture, StridedLoadStreamDefeatsStoreBypass) {
  // S1CF loop nest 2 shape: strided load (tmp), sequential dense store (out).
  const std::uint64_t stride = 64 * 8;  // 8 lines between touches
  const std::uint64_t n = 2048;
  const std::uint64_t tmp = alloc(n * stride), out = alloc(n * 8);
  LoopDesc loop;
  loop.streams = {{tmp, static_cast<std::int64_t>(stride), 8, AccessKind::Load},
                  {out, 8, 8, AccessKind::Store}};
  loop.iterations = n;
  const LoopStats st = eng().execute(loop);
  // Stores must write-allocate: a read per stored line.
  EXPECT_GT(st.allocated_store_lines, 0u);
  // Only the first few stores (before the detector trips) may bypass.
  EXPECT_LE(st.bypassed_store_lines, 4u);
  EXPECT_GE(st.mem_read_bytes, n * 64 + (n * 8 / 64 - 4) * 64);
}

TEST_F(EngineFixture, StridedStoreStreamAllocates) {
  // Combined S1CF nest shape: sequential load, strided store.
  const std::uint64_t stride = 64 * 4;
  const std::uint64_t n = 2048;
  const std::uint64_t in = alloc(n * 8), out = alloc(n * stride);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load},
                  {out, static_cast<std::int64_t>(stride), 8, AccessKind::Store}};
  loop.iterations = n;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.bypassed_store_lines, 0u);  // non-contiguous: never a candidate
  EXPECT_EQ(st.allocated_store_lines, n);
  // Each strided store allocates a full line: read-per-write.
  EXPECT_EQ(st.mem_read_bytes, n * 8 / 64 * 64 + n * 64);
}

TEST_F(EngineFixture, LowStoreDensityDefeatsBypass) {
  // 3 load streams per store stream > bypass_max_loads_per_store (2).
  const std::uint64_t a = alloc(kN * 8), b = alloc(kN * 8), c = alloc(kN * 8),
                      out = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{a, 8, 8, AccessKind::Load},
                  {b, 8, 8, AccessKind::Load},
                  {c, 8, 8, AccessKind::Load},
                  {out, 8, 8, AccessKind::Store}};
  loop.iterations = kN;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.bypassed_store_lines, 0u);
  EXPECT_EQ(st.mem_read_bytes, 4 * kN * 8);  // 3 loads + write-allocate
}

TEST_F(EngineFixture, BypassDisabledByConfigFallsBackToAllocate) {
  MachineConfig cfg = test_config();
  cfg.store_bypass = false;
  machine = std::make_unique<Machine>(cfg);
  machine->set_noise_enabled(false);
  const std::uint64_t in = alloc(kN * 8), out = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load}, {out, 8, 8, AccessKind::Store}};
  loop.iterations = kN;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.bypassed_store_lines, 0u);
  EXPECT_EQ(st.mem_read_bytes, 2 * kN * 8);
}

TEST_F(EngineFixture, ScalarStoresAlwaysAllocate) {
  const std::uint64_t y = alloc(64);
  eng().store(y, 8);
  const LoopStats st = eng().take_scalar_stats();
  EXPECT_EQ(st.allocated_store_lines, 1u);
  EXPECT_EQ(st.mem_read_bytes, 64u);
}

TEST_F(EngineFixture, ScalarAccessSpanningTwoLinesTouchesBoth) {
  const std::uint64_t base = alloc(256);
  eng().load(base + 60, 8);  // crosses a 64 B boundary
  const LoopStats st = eng().take_scalar_stats();
  EXPECT_EQ(st.line_touches, 2u);
  EXPECT_EQ(st.mem_read_bytes, 128u);
}

TEST_F(EngineFixture, SixteenByteElementsTouchFourPerLine) {
  // double complex stream: 16 B elements, 4 per 64 B line.
  const std::uint64_t n = 4096;
  const std::uint64_t in = alloc(n * 16), out = alloc(n * 16);
  LoopDesc loop;
  loop.streams = {{in, 16, 16, AccessKind::Load}, {out, 16, 16, AccessKind::Store}};
  loop.iterations = n;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.mem_read_bytes, n * 16);
  EXPECT_EQ(st.mem_write_bytes, n * 16);
  EXPECT_EQ(st.line_touches, 2 * n * 16 / 64);
}

TEST_F(EngineFixture, ReplayMatchesElementWiseScalarReplayForLoads) {
  // Property: the bulk loop replay touches exactly the lines an element-wise
  // walk touches, for awkward strides and element sizes.
  struct Case { std::int64_t stride; std::uint32_t elem; std::uint64_t iters; };
  for (const Case c : {Case{8, 8, 1000}, Case{24, 8, 500}, Case{40, 8, 300},
                       Case{16, 16, 700}, Case{72, 8, 200}, Case{128, 8, 111}}) {
    Machine bulk(test_config());
    bulk.set_noise_enabled(false);
    Machine elem(test_config());
    elem.set_noise_enabled(false);
    const std::uint64_t base = 1 << 20;
    LoopDesc loop;
    loop.streams = {{base, c.stride, c.elem, AccessKind::Load}};
    loop.iterations = c.iters;
    const LoopStats st = bulk.engine(0, 0).execute(loop);
    for (std::uint64_t i = 0; i < c.iters; ++i) {
      elem.engine(0, 0).load(base + i * static_cast<std::uint64_t>(c.stride), c.elem);
    }
    EXPECT_EQ(st.mem_read_bytes, elem.memctrl(0).total_bytes(MemDir::Read))
        << "stride=" << c.stride << " elem=" << c.elem;
  }
}

TEST_F(EngineFixture, NegativeStrideStreamsReplayCorrectly) {
  const std::uint64_t n = 1024;
  const std::uint64_t buf = alloc(n * 8);
  LoopDesc loop;
  loop.streams = {{buf + (n - 1) * 8, -8, 8, AccessKind::Load}};
  loop.iterations = n;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.mem_read_bytes, n * 8);
  EXPECT_EQ(st.line_touches, n * 8 / 64);
}

TEST_F(EngineFixture, RepeatedExecutionHitsInCache) {
  const std::uint64_t in = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load}};
  loop.iterations = kN;  // 64 KB working set, fits the 1 MB slice
  eng().execute(loop);
  const LoopStats st2 = eng().execute(loop);
  EXPECT_EQ(st2.mem_read_bytes, 0u);
  EXPECT_EQ(st2.l3_hits, st2.line_touches);
}

TEST_F(EngineFixture, ClockAdvancesWithExecution) {
  const double t0 = machine->clock().now_ns();
  const std::uint64_t in = alloc(kN * 8);
  LoopDesc loop;
  loop.streams = {{in, 8, 8, AccessKind::Load}};
  loop.iterations = kN;
  loop.flops_per_iter = 2.0;
  const LoopStats st = eng().execute(loop);
  EXPECT_GT(st.time_ns, 0.0);
  EXPECT_DOUBLE_EQ(machine->clock().now_ns(), t0 + st.time_ns);
}

TEST_F(EngineFixture, PrefetchImprovesLoopTime) {
  // Same strided traffic with and without software prefetch: the prefetched
  // variant must be faster (higher achieved bandwidth), per paper Fig. 7b.
  const std::uint64_t stride = 64 * 8;
  const std::uint64_t n = 4096;
  auto run = [&](bool pf) {
    Machine m(test_config());
    m.set_noise_enabled(false);
    LoopDesc loop;
    loop.streams = {{1 << 20, static_cast<std::int64_t>(stride), 8, AccessKind::Load},
                    {1 << 26, 8, 8, AccessKind::Store}};
    loop.iterations = n;
    loop.sw_prefetch = pf;
    return m.engine(0, 0).execute(loop).time_ns;
  };
  EXPECT_LT(run(true), run(false));
}

TEST_F(EngineFixture, StatsAccumulateWithPlusEquals) {
  LoopStats a;
  a.line_touches = 5;
  a.mem_read_bytes = 64;
  a.time_ns = 1.5;
  LoopStats b;
  b.line_touches = 3;
  b.mem_write_bytes = 128;
  b.time_ns = 2.5;
  a += b;
  EXPECT_EQ(a.line_touches, 8u);
  EXPECT_EQ(a.mem_read_bytes, 64u);
  EXPECT_EQ(a.mem_write_bytes, 128u);
  EXPECT_DOUBLE_EQ(a.time_ns, 4.0);
}

TEST_F(EngineFixture, EmptyLoopIsANoOp) {
  LoopDesc loop;
  const LoopStats st = eng().execute(loop);
  EXPECT_EQ(st.line_touches, 0u);
  EXPECT_EQ(reads(), 0u);
}

TEST_F(EngineFixture, TooManyStreamsRejected) {
  LoopDesc loop;
  loop.iterations = 1;
  loop.streams.assign(17, StreamDesc{0, 8, 8, AccessKind::Load});
  EXPECT_THROW(eng().execute(loop), std::invalid_argument);
}

}  // namespace
}  // namespace papisim::sim
