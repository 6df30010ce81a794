// Unit tests for the loop-replay access engine and its bypass/prefetch
// policies (the mechanisms behind the paper's Figs. 6-9).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "selfmon/metrics.hpp"
#include "sim/machine.hpp"
#include "sim/rng.hpp"

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
  void count(L3Fabric::Source src) {
    ++touches;
    l3_hits += src == L3Fabric::Source::L3Hit;
    victim_hits += src == L3Fabric::Source::VictimHit;
  }
};

spe::HitLevel level_of(L3Fabric::Source src) {
  switch (src) {
    case L3Fabric::Source::L3Hit: return spe::HitLevel::L3Hit;
    case L3Fabric::Source::VictimHit: return spe::HitLevel::VictimHit;
    case L3Fabric::Source::Memory: break;
  }
  return spe::HitLevel::Memory;
}

/// Replays `loop` on core 0 of `m` one line at a time through
/// load_line/store_line, in the engine's event order (by iteration, then by
/// stream) and touching a stream's line only when it differs from that
/// stream's previous one.  A store under sw_prefetch is prefetch_line then
/// store_line, and reports where the prefetch found the line.  Only for
/// loops whose stores never bypass.  Each touch is offered to `sampler`, if
/// given, as the engine offers it, stamped `t_ns`.
void replay_line_by_line(Machine& m, const LoopDesc& loop, LineByLineStats& out,
                         spe::CoreSampler* sampler = nullptr, std::uint64_t t_ns = 0) {
  std::vector<std::uint64_t> prev(loop.streams.size(), ~0ull);
  for (std::uint64_t i = 0; i < loop.iterations; ++i) {
    for (std::size_t k = 0; k < loop.streams.size(); ++k) {
      const StreamDesc& sd = loop.streams[k];
      const std::uint64_t addr = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(sd.base) + static_cast<std::int64_t>(i) * sd.stride);
      const std::uint64_t line = addr / 64;
      if (line == prev[k]) continue;
      prev[k] = line;
      L3Fabric::Source src;
      if (sd.kind == AccessKind::Load) {
        src = m.l3(0).load_line(0, line);
      } else if (loop.sw_prefetch) {
        src = m.l3(0).prefetch_line(0, line);
        m.l3(0).store_line(0, line);
      } else {
        src = m.l3(0).store_line(0, line);
      }
      out.count(src);
      if (sampler != nullptr) {
        sampler->on_access(addr,
                           sd.kind == AccessKind::Load ? spe::AccessKind::Load
                                                       : spe::AccessKind::Store,
                           level_of(src), sd.stride, t_ns);
      }
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

/// Two identical noise-off machines with one active core: `fast` replays
/// loops through AccessEngine, `slow` one line at a time.  Both see the same
/// scalar accesses and flushes.
struct TwinMachines {
  Machine fast{test_config()};
  Machine slow{test_config()};
  LoopStats replayed;
  LineByLineStats single;

  TwinMachines() {
    for (Machine* m : {&fast, &slow}) {
      m->set_noise_enabled(false);
      m->set_active_cores(0, 1);
    }
  }
  AccessEngine& eng() { return fast.engine(0, 0); }
  std::uint64_t alloc(std::uint64_t bytes) {
    return fast.address_space().allocate(bytes, 64);
  }
  std::uint64_t repeated() { return eng().counters().repeated_loops; }
  std::uint64_t epoch() { return fast.l3(0).slice(0).epoch(); }

  /// The current virtual time, as an attached sampler stamps it.
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(fast.clock().now_ns());
  }

  void pass(const LoopDesc& loop, spe::CoreSampler* sampler = nullptr) {
    const std::uint64_t t_ns = now_ns();
    replayed += eng().execute(loop);
    replay_line_by_line(slow, loop, single, sampler, t_ns);
  }
  /// One scalar 8-byte access of `addr` (within one line).
  void scalar(std::uint64_t addr, AccessKind kind, spe::CoreSampler* sampler = nullptr) {
    const std::uint64_t t_ns = now_ns();
    const bool load = kind == AccessKind::Load;
    load ? eng().load(addr, 8) : eng().store(addr, 8);
    const L3Fabric::Source src =
        load ? slow.l3(0).load_line(0, addr / 64) : slow.l3(0).store_line(0, addr / 64);
    single.count(src);
    if (sampler != nullptr) {
      sampler->on_access(addr, load ? spe::AccessKind::Load : spe::AccessKind::Store,
                         level_of(src), 0, t_ns);
    }
  }
  void flush_core() {
    fast.l3(0).flush_core(0);
    slow.l3(0).flush_core(0);
  }

  /// Touches, hits, slice hits, per-channel bytes and ops, and the slice's
  /// (line, dirty) pairs must all agree.  Drains both slices.
  void expect_same() {
    replayed += eng().take_scalar_stats();
    EXPECT_EQ(replayed.line_touches, single.touches);
    EXPECT_EQ(replayed.l3_hits, single.l3_hits);
    EXPECT_EQ(replayed.victim_hits, single.victim_hits);
    EXPECT_EQ(fast.l3(0).slice(0).hits(), slow.l3(0).slice(0).hits());
    EXPECT_EQ(fast.l3(0).slice(0).misses(), slow.l3(0).slice(0).misses());
    const MemController& mine = fast.memctrl(0);
    const MemController& theirs = slow.memctrl(0);
    EXPECT_EQ(mine.snapshot(), theirs.snapshot());
    for (std::uint32_t ch = 0; ch < mine.channels(); ++ch) {
      for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
        EXPECT_EQ(mine.channel_bytes(ch, dir), theirs.channel_bytes(ch, dir))
            << "ch " << ch;
        EXPECT_EQ(mine.channel_ops(ch, dir), theirs.channel_ops(ch, dir)) << "ch " << ch;
      }
    }
    std::vector<std::pair<std::uint64_t, bool>> drained[2];
    for (int side = 0; side < 2; ++side) {
      (side == 0 ? fast : slow).l3(0).slice(0).flush([&](std::uint64_t line, bool dirty) {
        drained[side].emplace_back(line, dirty);
      });
      std::sort(drained[side].begin(), drained[side].end());
    }
    EXPECT_FALSE(drained[0].empty());
    EXPECT_EQ(drained[0], drained[1]);
  }
};

/// GEMM's inner loop for row i of A and column j of B (n x n doubles): k
/// runs over A[i][k] (8 B apart) and B[k][j] (one row apart).  Columns
/// j..j+7 share B's lines, so those eight passes touch the same lines.
/// With `prefetch`, a store stream over row i of D rides along under
/// sw_prefetch (two slice accesses per store touch).
LoopDesc gemm_pass(std::uint64_t n, std::uint64_t a, std::uint64_t b, std::uint64_t d,
                   std::uint64_t i, std::uint64_t j, bool prefetch = false) {
  LoopDesc loop;
  loop.iterations = n;
  loop.flops_per_iter = 2.0;
  loop.streams = {{a + i * n * 8, 8, 8, AccessKind::Load},
                  {b + j * 8, static_cast<std::int64_t>(n * 8), 8, AccessKind::Load}};
  if (prefetch) {
    loop.sw_prefetch = true;
    loop.streams.push_back({d + i * n * 8, 8, 8, AccessKind::Store});
  }
  return loop;
}

TEST(EngineRepeat, RepeatedAllHitPassesCountLikeLineByLineAccesses) {
  // A GEMM j-group sweep with the scalar C[i][j] store between passes.  The
  // matrices fit in the slice, so after the first row every pass hits; the
  // C store hits its line at MRU (already dirty) or misses on a new line.
  constexpr std::uint64_t kN = 64;
  for (const bool prefetch : {false, true}) {
    SCOPED_TRACE(prefetch ? "sw_prefetch" : "plain");
    TwinMachines twin;
    const std::uint64_t a = twin.alloc(kN * kN * 8), b = twin.alloc(kN * kN * 8),
                        c = twin.alloc(kN * kN * 8), d = twin.alloc(kN * kN * 8);
    for (std::uint64_t i = 0; i < kN; ++i) {
      for (std::uint64_t j = 0; j < kN; ++j) {
        twin.pass(gemm_pass(kN, a, b, d, i, j, prefetch));
        twin.scalar(c + (i * kN + j) * 8, AccessKind::Store);
      }
    }
    // Most passes of a group repeat: all but the first pass of each group
    // and the one after a new C line.
    EXPECT_GT(twin.repeated(), kN * kN / 2);
    EXPECT_EQ(twin.replayed.bypassed_store_lines, 0u);
    twin.expect_same();
  }
}

TEST(EngineRepeat, EachSliceChangeBetweenPassesForcesAFullReplay) {
  enum class Change { None, Reorder, DirtyClean, Miss, FlushCore };
  constexpr std::uint64_t kN = 64;
  for (const Change change : {Change::None, Change::Reorder, Change::DirtyClean,
                              Change::Miss, Change::FlushCore}) {
    SCOPED_TRACE(static_cast<int>(change));
    TwinMachines twin;
    const std::uint64_t a = twin.alloc(kN * kN * 8), b = twin.alloc(kN * kN * 8),
                        other = twin.alloc(1 << 20);
    const LoopDesc loop = gemm_pass(kN, a, b, 0, 1, 1);
    // The loop's first line and a line of `other` in the same set: loaded
    // before the loop, it sits behind the loop line afterwards.
    const std::uint64_t first = loop.streams[0].base / 64;
    const std::uint32_t sets = twin.fast.l3(0).slice(0).sets();
    std::uint64_t same_set = other / 64;
    const std::uint64_t first_set = CacheLevel::set_of(first, sets, true);
    while (CacheLevel::set_of(same_set, sets, true) != first_set) ++same_set;
    // The loop's last touch, B[n-1][1]: the MRU line of its set, and clean.
    const std::uint64_t last = loop.streams[1].base + (kN - 1) * kN * 8;

    twin.scalar(same_set * 64, AccessKind::Load);
    twin.pass(loop);  // cold: misses, not remembered
    twin.pass(loop);  // every access hits: remembered
    twin.pass(loop);  // repeated
    ASSERT_EQ(twin.repeated(), 1u);

    const std::uint64_t epoch0 = twin.epoch();
    switch (change) {
      case Change::None: twin.scalar(last, AccessKind::Load); break;
      case Change::Reorder: twin.scalar(same_set * 64, AccessKind::Load); break;
      case Change::DirtyClean: twin.scalar(last, AccessKind::Store); break;
      case Change::Miss: twin.scalar(other + (1 << 20) - 64, AccessKind::Load); break;
      case Change::FlushCore: twin.flush_core(); break;
    }
    EXPECT_EQ(twin.epoch() != epoch0, change != Change::None);
    twin.pass(loop);
    EXPECT_EQ(twin.repeated(), change == Change::None ? 2u : 1u);
    twin.pass(loop);
    twin.pass(loop);
    EXPECT_GE(twin.repeated(), 2u);
    twin.expect_same();
  }
}

TEST(EngineRepeat, AttachedSamplerSeesEveryTouchOfEveryPass) {
  if (!spe::kEnabled) GTEST_SKIP() << "SPE compiled out";
  // The same j-group sweep with a 1-in-1 sampler attached from the third
  // pass on, when the second (all hits) has been remembered: no pass may be
  // repeated, and the samples must be exactly those of a line-by-line
  // replay offered to an identical sampler.
  constexpr std::uint64_t kN = 32;
  spe::SpeConfig cfg;
  cfg.period = 1;
  cfg.ring_capacity = 1 << 17;
  spe::CoreSampler sampler(0, cfg), reference(0, cfg);
  TwinMachines twin;
  const std::uint64_t a = twin.alloc(kN * kN * 8), b = twin.alloc(kN * kN * 8),
                      c = twin.alloc(kN * kN * 8);
  std::uint64_t touches_before = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    for (std::uint64_t j = 0; j < kN; ++j) {
      if (i == 0 && j == 2) {
        twin.eng().set_spe(&sampler);
        touches_before = twin.single.touches;
      }
      spe::CoreSampler* const ref = twin.eng().spe() != nullptr ? &reference : nullptr;
      twin.pass(gemm_pass(kN, a, b, 0, i, j), ref);
      twin.scalar(c + (i * kN + j) * 8, AccessKind::Store, ref);
    }
  }
  twin.eng().set_spe(nullptr);
  EXPECT_EQ(twin.repeated(), 0u);
  std::vector<spe::Sample> got, want;
  sampler.drain(got);
  reference.drain(want);
  EXPECT_EQ(sampler.drops(), 0u);
  EXPECT_EQ(got.size(), twin.single.touches - touches_before);
  EXPECT_TRUE(got == want);
  twin.expect_same();
}

TEST_F(EngineFixture, ZeroByteScalarAccessesTouchNothing) {
  for (const std::uint64_t addr : {65ull, 130ull, 0ull}) {
    eng().load(addr, 0);
    eng().store(addr, 0);
  }
  const LoopStats st = eng().take_scalar_stats();
  EXPECT_EQ(st.line_touches, 0u);
  EXPECT_EQ(st.mem_read_bytes, 0u);
  EXPECT_EQ(machine->l3(0).total_slice_lookups(), 0u);
  EXPECT_EQ(reads(), 0u);
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


// ------------------------------------------------------ set-sharded replay

/// The socket a ShardedReplay run replays on: every core active (no victim
/// store), a lone core with lateral cast-out off (no victim store either),
/// or a lone core with a victim store, which execute_all() must not shard.
enum class ShardSocket { FullyActive, LoneNoCastout, LoneCore };

/// Twin machines: `batched` replays each batch through execute_all(),
/// `serial` runs the same loops one execute() at a time.  With `spe` both
/// cores carry identical samplers whose rings are small enough to drop.
struct ShardTwins {
  static MachineConfig config(ShardSocket socket) {
    MachineConfig cfg = test_config();
    cfg.lateral_castout = socket != ShardSocket::LoneNoCastout;
    return cfg;
  }

  ShardTwins(ShardSocket socket, bool noise, const spe::SpeConfig* spe)
      : batched(config(socket)), serial(config(socket)) {
    for (Machine* m : {&batched, &serial}) {
      m->set_noise_enabled(noise);
      m->set_active_cores(0, socket == ShardSocket::FullyActive ? m->cores_per_socket() : 1);
    }
    if (spe != nullptr) {
      batched_spe = std::make_unique<spe::CoreSampler>(0, *spe);
      serial_spe = std::make_unique<spe::CoreSampler>(0, *spe);
      batched.engine(0, 0).set_spe(batched_spe.get());
      serial.engine(0, 0).set_spe(serial_spe.get());
    }
  }

  /// Every stat, counter, channel count, slice count and the clock agree,
  /// and so do the samples drained so far.
  void expect_same() {
    EXPECT_EQ(mine.line_touches, theirs.line_touches);
    EXPECT_EQ(mine.mem_read_bytes, theirs.mem_read_bytes);
    EXPECT_EQ(mine.mem_write_bytes, theirs.mem_write_bytes);
    EXPECT_EQ(mine.l3_hits, theirs.l3_hits);
    EXPECT_EQ(mine.victim_hits, theirs.victim_hits);
    EXPECT_EQ(mine.bypassed_store_lines, theirs.bypassed_store_lines);
    EXPECT_EQ(mine.allocated_store_lines, theirs.allocated_store_lines);
    EXPECT_EQ(mine.seq_line_touches, theirs.seq_line_touches);
    EXPECT_EQ(mine.strided_line_touches, theirs.strided_line_touches);
    EXPECT_EQ(mine.time_ns, theirs.time_ns);  // doubles compared exactly
    EXPECT_EQ(mine.flops, theirs.flops);
    const CoreCounters& a = batched.engine(0, 0).counters();
    const CoreCounters& b = serial.engine(0, 0).counters();
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.line_touches, b.line_touches);
    EXPECT_EQ(a.l3_hits, b.l3_hits);
    EXPECT_EQ(a.victim_hits, b.victim_hits);
    EXPECT_EQ(a.seq_line_touches, b.seq_line_touches);
    EXPECT_EQ(a.strided_line_touches, b.strided_line_touches);
    EXPECT_EQ(a.busy_ns, b.busy_ns);
    EXPECT_EQ(batched.clock().now_ns(), serial.clock().now_ns());
    const CacheLevel& sa = batched.l3(0).slice(0);
    const CacheLevel& sb = serial.l3(0).slice(0);
    EXPECT_EQ(sa.hits(), sb.hits());
    EXPECT_EQ(sa.misses(), sb.misses());
    EXPECT_EQ(sa.epoch(), sb.epoch());
    EXPECT_EQ(sa.valid_lines(), sb.valid_lines());
    EXPECT_EQ(batched.l3(0).victim_recoveries(), serial.l3(0).victim_recoveries());
    const MemController& ma = batched.memctrl(0);
    const MemController& mb = serial.memctrl(0);
    for (std::uint32_t ch = 0; ch < ma.channels(); ++ch) {
      for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
        EXPECT_EQ(ma.channel_bytes(ch, dir), mb.channel_bytes(ch, dir)) << "ch " << ch;
        EXPECT_EQ(ma.channel_ops(ch, dir), mb.channel_ops(ch, dir)) << "ch " << ch;
      }
    }
    if (batched_spe != nullptr) {
      std::vector<spe::Sample> got, want;
      batched_spe->drain(got);
      serial_spe->drain(want);
      EXPECT_EQ(got.size(), want.size());
      EXPECT_TRUE(got == want);
      EXPECT_EQ(batched_spe->samples(), serial_spe->samples());
      EXPECT_EQ(batched_spe->drops(), serial_spe->drops());
      EXPECT_EQ(batched_spe->accesses(), serial_spe->accesses());
      EXPECT_EQ(batched_spe->cursor().countdown, serial_spe->cursor().countdown);
      EXPECT_EQ(batched_spe->cursor().ordinal, serial_spe->cursor().ordinal);
    }
  }

  /// The slices' (line, dirty) pairs agree.  Drains both slices.
  void expect_same_slice() {
    std::vector<std::pair<std::uint64_t, bool>> drained[2];
    for (int side = 0; side < 2; ++side) {
      (side == 0 ? batched : serial).l3(0).slice(0).flush(
          [&](std::uint64_t line, bool dirty) { drained[side].emplace_back(line, dirty); });
      std::sort(drained[side].begin(), drained[side].end());
    }
    EXPECT_FALSE(drained[0].empty());
    EXPECT_EQ(drained[0], drained[1]);
  }

  Machine batched, serial;
  std::unique_ptr<spe::CoreSampler> batched_spe, serial_spe;
  LoopStats mine, theirs;
};

/// A random loop inside [base, base + 8 MiB): 1-4 streams of loads and
/// stores, 8- or 16-byte elements, sub-line (some not a power of two),
/// whole-line, multi-line, negative and zero strides, now and then under
/// sw_prefetch, with every other store stream bypass-eligible (stride ==
/// element size), and now and then no iterations at all.
LoopDesc random_loop(SplitMix64& rng, std::uint64_t base) {
  static constexpr std::int64_t kStrides[] = {8,   16,  24,  40,  64,  128, 192,
                                              576, -8,  -16, -64, -192, 0};
  constexpr std::uint64_t kRegion = 8 << 20;
  auto pick = [&](std::uint64_t n) { return rng.next_u64() % n; };
  LoopDesc loop;
  loop.iterations = pick(16) == 0 ? 0 : 1 + pick(1500);
  loop.flops_per_iter = 0.5 * static_cast<double>(pick(5));
  loop.sw_prefetch = pick(4) == 0;
  const std::size_t streams = 1 + pick(4);
  for (std::size_t k = 0; k < streams; ++k) {
    StreamDesc sd;
    sd.kind = pick(3) == 0 ? AccessKind::Store : AccessKind::Load;
    sd.elem_bytes = pick(2) == 0 ? 8 : 16;
    sd.stride = sd.kind == AccessKind::Store && pick(2) == 0
                    ? static_cast<std::int64_t>(sd.elem_bytes)
                    : kStrides[pick(std::size(kStrides))];
    const std::uint64_t span =
        static_cast<std::uint64_t>(sd.stride < 0 ? -sd.stride : sd.stride) *
        loop.iterations;
    sd.base = base + (sd.stride < 0 ? span : 0) + pick(kRegion - span) / 8 * 8;
    loop.streams.push_back(sd);
  }
  return loop;
}

using ShardCase = std::tuple<ShardSocket, bool /*spe*/, bool /*noise*/>;

struct ShardedReplay : ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardedReplay, BatchEqualsLoopByLoopExecute) {
  const auto [socket, with_spe, noise] = GetParam();
  if (with_spe && !spe::kEnabled) GTEST_SKIP() << "SPE compiled out";
  SplitMix64 rng(0x5eed0000 + static_cast<std::uint64_t>(socket) * 4 + with_spe * 2 + noise);
  spe::SpeConfig spe_cfg;
  spe_cfg.period = 1 + rng.next_u64() % 7;
  spe_cfg.jitter = true;
  spe_cfg.ring_capacity = 256;  // fills between drains, so samples drop
  ShardTwins twin(socket, noise, with_spe ? &spe_cfg : nullptr);
  const std::uint64_t base = twin.batched.address_space().allocate(8 << 20);
  twin.serial.address_space().allocate(8 << 20);
  const bool can_shard = AccessEngine::shard_threads() > 1 && socket != ShardSocket::LoneCore;

  std::uint32_t sharded_batches = 0, serial_batches = 0;
  for (int b = 0; b < 24; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    // Small batches stay below the shard threshold, large ones pass it.
    const std::size_t nloops = b % 3 == 0 ? 1 + rng.next_u64() % 6 : 20 + rng.next_u64() % 60;
    std::vector<LoopDesc> loops;
    for (std::size_t i = 0; i < nloops; ++i) loops.push_back(random_loop(rng, base));

    const std::uint64_t sharded0 = twin.batched.engine(0, 0).counters().sharded_loops;
    twin.batched.engine(0, 0).execute_all(loops, twin.mine);
    std::uint64_t touches = 0, replayed = 0;
    for (const LoopDesc& loop : loops) {
      const LoopStats st = twin.serial.engine(0, 0).execute(loop);
      touches += st.line_touches;
      replayed += st.line_touches != 0;
      twin.theirs += st;
    }
    const bool sharded = can_shard && touches >= AccessEngine::kShardMinTouches;
    EXPECT_EQ(twin.batched.engine(0, 0).counters().sharded_loops - sharded0,
              sharded ? replayed : 0);
    (sharded ? sharded_batches : serial_batches) += 1;
    // Drain at some batch boundaries only, so the rings fill and drop.
    if (b % 4 == 3) twin.expect_same();
  }
  twin.expect_same();
  twin.expect_same_slice();
  EXPECT_GT(serial_batches, 0u);
  EXPECT_TRUE(!can_shard || sharded_batches > 0);
  EXPECT_TRUE(!with_spe || twin.serial_spe->drops() > 0);
}

std::string shard_case_name(const ::testing::TestParamInfo<ShardCase>& info) {
  static const char* const kSockets[] = {"fully_active", "lone_no_castout", "lone_core"};
  return std::string(kSockets[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "_spe" : "") + (std::get<2>(info.param) ? "_noise" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Sockets, ShardedReplay,
    ::testing::Combine(::testing::Values(ShardSocket::FullyActive, ShardSocket::LoneNoCastout,
                                         ShardSocket::LoneCore),
                       ::testing::Bool(), ::testing::Bool()),
    shard_case_name);

TEST(ShardedReplay, EmptyAndOversizedBatchesFallBack) {
  Machine m(test_config());
  m.set_noise_enabled(false);
  m.set_active_cores(0, m.cores_per_socket());
  AccessEngine& eng = m.engine(0, 0);
  LoopStats total;
  eng.execute_all({}, total);
  EXPECT_EQ(total.line_touches, 0u);
  // A batch with a 17-stream loop runs loop by loop, so execute() throws at
  // that loop, after replaying the ones before it.
  std::vector<LoopDesc> loops(3);
  for (LoopDesc& loop : loops) {
    loop.iterations = 1 << 14;
    loop.streams = {{1 << 20, 64, 8, AccessKind::Load}};
  }
  loops[2].streams.assign(17, StreamDesc{1 << 20, 64, 8, AccessKind::Load});
  EXPECT_THROW(eng.execute_all(loops, total), std::invalid_argument);
  EXPECT_EQ(total.line_touches, 2u << 14);
  EXPECT_EQ(eng.counters().sharded_loops, 0u);
}

}  // namespace
}  // namespace papisim::sim
