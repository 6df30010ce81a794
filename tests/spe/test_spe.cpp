// Unit tests for the precise-event sampling core (src/spe): ring edge cases
// (overflow drop accounting, wraparound ordering, concurrent merge-on-read),
// deterministic gap sequences, the AccessEngine hook, and SpeComponent's
// view through the EventSet API.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "components/spe_component.hpp"
#include "core/library.hpp"
#include "spe/collector.hpp"
#include "spe/ring.hpp"
#include "testing/machine_builder.hpp"

namespace papisim::spe {
namespace {

using test_support::MachineBuilder;

Sample make_sample(std::uint64_t i) {
  Sample s;
  s.addr = i * 64;
  s.time_ns = i;
  s.core = 0;
  return s;
}

TEST(SampleRing, RejectsWhenFullWithExactDropAccounting) {
  SampleRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  std::size_t pushed = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    (ring.try_push(make_sample(i)) ? pushed : rejected) += 1;
  }
  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(rejected, 12u);
  EXPECT_EQ(ring.size(), 8u);

  // A full drain frees every slot; the first rejected sample was never
  // written (drop, not overwrite), so the survivors are exactly 0..7.
  std::vector<Sample> out;
  EXPECT_EQ(ring.pop_all(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], make_sample(i));
  EXPECT_TRUE(ring.try_push(make_sample(99)));
}

TEST(SampleRing, WraparoundPreservesFifoOrder) {
  SampleRing ring(4);
  std::vector<Sample> out;
  std::uint64_t next = 0;
  // Partial drains force head/tail past the capacity repeatedly; order must
  // stay FIFO across every wrap.
  for (int round = 0; round < 10; ++round) {
    while (ring.try_push(make_sample(next))) ++next;
    ring.pop_all(out);
  }
  ASSERT_EQ(out.size(), next);
  for (std::uint64_t i = 0; i < next; ++i) EXPECT_EQ(out[i], make_sample(i));
}

TEST(SampleRing, ManySmallDrainsIntoOneVectorReallocateLogarithmically) {
  // A profile drains once per sampler tick into one growing vector; an
  // exact reserve per drain would copy the whole vector every time.
  constexpr std::size_t kDrains = 2000;
  SampleRing ring(4);
  std::vector<Sample> out;
  std::size_t reallocations = 0;
  const Sample* data = out.data();
  for (std::size_t i = 0; i < kDrains; ++i) {
    ASSERT_TRUE(ring.try_push(make_sample(i)));
    ASSERT_EQ(ring.pop_all(out), 1u);
    if (out.data() != data) {
      ++reallocations;
      data = out.data();
    }
  }
  ASSERT_EQ(out.size(), kDrains);
  EXPECT_LE(reallocations, std::bit_width(kDrains) + 2);
}

TEST(SampleRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SampleRing(5).capacity(), 8u);
  EXPECT_EQ(SampleRing(1).capacity(), 2u);
  EXPECT_EQ(SampleRing(64).capacity(), 64u);
}

TEST(SampleRing, ConcurrentProducerConsumerLosesNothing) {
  SampleRing ring(1 << 10);
  constexpr std::uint64_t kTotal = 200000;
  std::vector<Sample> consumed;
  std::uint64_t dropped = 0;

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      if (!ring.try_push(make_sample(i))) ++dropped;
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    ring.pop_all(consumed);
    std::this_thread::yield();
  }
  producer.join();
  ring.pop_all(consumed);  // anything published after the last drain

  // Everything the producer pushed arrives exactly once, in push order
  // (addresses are strictly increasing, with gaps where drops occurred).
  EXPECT_EQ(consumed.size() + dropped, kTotal);
  for (std::size_t i = 1; i < consumed.size(); ++i) {
    EXPECT_LT(consumed[i - 1].addr, consumed[i].addr);
  }
}

TEST(CoreSampler, GapSequenceIsDeterministicPerCoreAndSeed) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  SpeConfig cfg;
  cfg.period = 64;
  auto drive = [&](std::uint16_t core) {
    CoreSampler s(core, cfg);
    for (std::uint64_t i = 0; i < 20000; ++i) {
      s.on_access(i * 64, AccessKind::Load, HitLevel::L3Hit, 64, i);
    }
    std::vector<Sample> out;
    s.drain(out);
    return out;
  };
  const std::vector<Sample> a = drive(3);
  const std::vector<Sample> b = drive(3);
  const std::vector<Sample> c = drive(4);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c) << "different cores must sample different accesses";
  EXPECT_GT(a.size(), 0u);

  // Jittered gaps stay within [period/2, period + ceil(period/2)].
  std::uint64_t prev = 0;
  for (const Sample& s : a) {
    const std::uint64_t gap = s.time_ns - prev;
    EXPECT_GE(gap, cfg.period / 2);
    EXPECT_LE(gap, cfg.period + (cfg.period + 1) / 2);
    prev = s.time_ns;
  }
}

TEST(CoreSampler, PeriodOneSamplesEveryAccessAndCountsRingDrops) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  SpeConfig cfg;
  cfg.period = 1;
  cfg.ring_capacity = 16;
  CoreSampler s(0, cfg);
  for (std::uint64_t i = 0; i < 100; ++i) {
    s.on_access(i, AccessKind::Store, HitLevel::Memory, 8, i);
  }
  EXPECT_EQ(s.accesses(), 100u);
  EXPECT_EQ(s.samples(), 16u);  // ring capacity
  EXPECT_EQ(s.drops(), 84u);
  EXPECT_EQ(s.samples() + s.drops(), s.accesses());

  std::vector<Sample> out;
  s.drain(out);
  ASSERT_EQ(out.size(), 16u);
  for (std::uint64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].addr, i);
}

TEST(CoreSampler, SetPeriodRestartsTheGapSequence) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  SpeConfig cfg;
  cfg.period = 32;
  CoreSampler fresh(7, cfg);
  CoreSampler reused(7, cfg);
  // Pollute `reused` with a different period, then restore: the stream must
  // match a fresh sampler exactly (ordinal and countdown reset).
  reused.set_period(5);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    reused.on_access(i, AccessKind::Load, HitLevel::L3Hit, 0, i);
  }
  std::vector<Sample> scratch;
  reused.drain(scratch);
  reused.set_period(32);

  std::vector<Sample> a, b;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    fresh.on_access(i, AccessKind::Load, HitLevel::L3Hit, 0, i);
    reused.on_access(i, AccessKind::Load, HitLevel::L3Hit, 0, i);
  }
  fresh.drain(a);
  reused.drain(b);
  EXPECT_EQ(a, b);
}

TEST(CoreSampler, MergeOnReadAcrossConcurrentProducers) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  SpeConfig cfg;
  cfg.period = 8;
  cfg.ring_capacity = 1 << 8;  // small enough to wrap many times
  constexpr std::size_t kCores = 4;
  constexpr std::uint64_t kPerCore = 300000;
  std::vector<std::unique_ptr<CoreSampler>> samplers;
  for (std::size_t c = 0; c < kCores; ++c) {
    samplers.push_back(
        std::make_unique<CoreSampler>(static_cast<std::uint16_t>(c), cfg));
  }

  // One producer thread per sampler (the SPSC contract); the main thread is
  // the single consumer, draining every ring while producers run.
  std::vector<std::thread> producers;
  std::atomic<std::size_t> done{0};
  for (std::size_t c = 0; c < kCores; ++c) {
    producers.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kPerCore; ++i) {
        samplers[c]->on_access(i * 64, AccessKind::Load, HitLevel::Memory, 64,
                               i);
      }
      done.fetch_add(1);
    });
  }
  std::vector<std::vector<Sample>> drained(kCores);
  while (done.load() < kCores) {
    for (std::size_t c = 0; c < kCores; ++c) samplers[c]->drain(drained[c]);
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  for (std::size_t c = 0; c < kCores; ++c) samplers[c]->drain(drained[c]);

  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_EQ(samplers[c]->accesses(), kPerCore);
    EXPECT_GT(samplers[c]->samples(), 0u);
    EXPECT_EQ(drained[c].size(), samplers[c]->samples());
    // Per-core FIFO survives concurrent draining: timestamps ascend.
    for (std::size_t i = 1; i < drained[c].size(); ++i) {
      EXPECT_LT(drained[c][i - 1].time_ns, drained[c][i].time_ns);
    }
    for (const Sample& s : drained[c]) {
      EXPECT_EQ(s.core, static_cast<std::uint16_t>(c));
    }
  }
}

TEST(SpeCollector, AttachesSamplersAndAccountsReplayTraffic) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  auto machine = MachineBuilder::small().quiet();
  SpeConfig cfg;
  cfg.period = 16;
  {
    SpeCollector collector(*machine, cfg);
    ASSERT_EQ(collector.num_cores(), 2u);
    EXPECT_EQ(machine->engine(0, 0).spe(), &collector.core_sampler(0));

    const sim::LoopStats st =
        machine->engine(0, 0).execute(test_support::load_loop(1 << 20, 64, 4096));
    const SpeCollector::Totals t = collector.totals();
    EXPECT_EQ(t.accesses, st.line_touches);
    EXPECT_GT(t.samples, 0u);
    EXPECT_EQ(t.drops, 0u);

    const std::vector<Sample> samples = collector.drain();
    EXPECT_EQ(samples.size(), t.samples);
    for (const Sample& s : samples) {
      EXPECT_EQ(s.core, 0);
      EXPECT_EQ(s.kind, AccessKind::Load);
      EXPECT_EQ(s.stride, 64);
      EXPECT_GE(s.addr, std::uint64_t{1} << 20);
      EXPECT_LT(s.addr, (std::uint64_t{1} << 20) + 4096 * 64);
    }
  }
  // RAII detach: replay after destruction must not touch freed samplers.
  EXPECT_EQ(machine->engine(0, 0).spe(), nullptr);
  machine->engine(0, 0).execute(test_support::load_loop(1 << 20, 64, 64));
}

TEST(SpeCollector, ScalarAccessesAreSampledPrefetchesAreNot) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  auto machine = MachineBuilder::small().quiet();
  SpeConfig cfg;
  cfg.period = 1;  // every access
  SpeCollector collector(*machine, cfg);
  sim::AccessEngine& eng = machine->engine(0, 0);
  eng.load(1 << 20, 8);
  eng.store((1 << 20) + 64, 8);
  eng.prefetch((1 << 20) + 128);
  eng.take_scalar_stats();

  const std::vector<Sample> samples = collector.drain();
  ASSERT_EQ(samples.size(), 2u) << "prefetch is not a demand access";
  EXPECT_EQ(samples[0].kind, AccessKind::Load);
  EXPECT_EQ(samples[0].addr, std::uint64_t{1} << 20);
  EXPECT_EQ(samples[0].stride, 0);
  EXPECT_EQ(samples[1].kind, AccessKind::Store);
  EXPECT_EQ(samples[1].addr, (std::uint64_t{1} << 20) + 64);
}

TEST(SpeCollectorDisabled, ReportsZerosWhenCompiledOut) {
  if (kEnabled) GTEST_SKIP() << "covered by the enabled-path tests";
  auto machine = MachineBuilder::small().quiet();
  SpeCollector collector(*machine);
  EXPECT_EQ(collector.num_cores(), 0u);
  machine->engine(0, 0).execute(test_support::load_loop(1 << 20, 64, 1024));
  const SpeCollector::Totals t = collector.totals();
  EXPECT_EQ(t.samples, 0u);
  EXPECT_EQ(t.accesses, 0u);
  EXPECT_TRUE(collector.drain().empty());
}

TEST(SpeComponentTest, AvailabilityTracksCompileOut) {
  components::SpeComponent comp;
  EXPECT_EQ(comp.available(), kEnabled);
  EXPECT_EQ(comp.events().size(), 4u);
  EXPECT_TRUE(comp.knows_event("samples"));
  EXPECT_TRUE(comp.knows_event("period"));
  EXPECT_FALSE(comp.knows_event("nonsense"));
  EXPECT_TRUE(comp.is_instantaneous("period"));
  EXPECT_FALSE(comp.is_instantaneous("samples"));
}

TEST(SpeComponentTest, EventSetReadsMatchCollectorTotals) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  auto machine = MachineBuilder::small().quiet();
  SpeConfig cfg;
  cfg.period = 64;
  SpeCollector collector(*machine, cfg);

  Library lib;
  lib.register_component(std::make_unique<components::SpeComponent>(&collector));
  auto es = lib.create_eventset();
  es->add_event("spe:::samples");
  es->add_event("spe:::drops");
  es->add_event("spe:::accesses");
  es->add_event("spe:::period");
  es->start();

  const sim::LoopStats st =
      machine->engine(0, 0).execute(test_support::load_loop(1 << 20, 64, 65536));
  std::vector<long long> v(4);
  es->read(v);
  const SpeCollector::Totals t = collector.totals();
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), t.samples);
  EXPECT_EQ(static_cast<std::uint64_t>(v[1]), t.drops);
  EXPECT_EQ(static_cast<std::uint64_t>(v[2]), t.accesses);
  EXPECT_EQ(static_cast<std::uint64_t>(v[2]), st.line_touches);
  EXPECT_EQ(v[3], 64);

  // Counters are deltas since start(): a reset re-zeros the window.
  es->reset();
  es->read(v);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[2], 0);
  EXPECT_EQ(v[3], 64) << "the period gauge is instantaneous, not windowed";

  EXPECT_THROW(es->add_event("spe:::bogus"), Error);
}

TEST(SpeComponentTest, SelfmonCountersMirrorSampleAndDropTotals) {
  if (!kEnabled) GTEST_SKIP() << "spe compiled out";
  if (!selfmon::kEnabled) GTEST_SKIP() << "selfmon compiled out";
  selfmon::reset_for_testing();
  auto machine = MachineBuilder::small().quiet();
  SpeConfig cfg;
  cfg.period = 4;
  cfg.ring_capacity = 32;  // force drops
  SpeCollector collector(*machine, cfg);
  machine->engine(0, 0).execute(test_support::load_loop(1 << 20, 64, 8192));

  const SpeCollector::Totals t = collector.totals();
  const selfmon::Snapshot snap = selfmon::snapshot();
  EXPECT_EQ(snap.counter(selfmon::CounterId::SpeSamples), t.samples);
  EXPECT_EQ(snap.counter(selfmon::CounterId::SpeDrops), t.drops);
  EXPECT_GT(t.drops, 0u) << "the tiny ring was meant to overflow";
}

}  // namespace
}  // namespace papisim::spe
