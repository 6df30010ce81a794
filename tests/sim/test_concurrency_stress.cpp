// Concurrency stress test: eight host threads hammer one L3Fabric +
// MemController with a mixed load/store/prefetch pattern, two threads per
// simulated core so the per-stripe mutexes see real same-stripe contention,
// once one line per stripe acquisition and once in 64-operation batches under
// one StripeHandle (the replay engine's per-loop ownership).
// Run under TSan (the `tsan` CMake preset) this is the data-race harness for
// the striped fabric; under any build it checks the conservation laws the
// commutative-atomics design guarantees regardless of interleaving:
//
//   * every access hits exactly one slice lookup,
//   * memory traffic observed by the controller == the sum of the per-thread
//     StripeHandle line totals (no lost or double-counted lines),
//   * victim recoveries / retention misses never exceed what the miss
//     counts allow, and
//   * flush_all leaves every slice and victim partition empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "sim/config.hpp"
#include "sim/l3fabric.hpp"
#include "sim/memctrl.hpp"

namespace papisim::sim {
namespace {

constexpr std::uint32_t kThreads = 8;
constexpr std::uint32_t kCores = 4;
constexpr std::uint64_t kOpsPerThread = 20000;

MachineConfig stress_config() {
  MachineConfig cfg = MachineConfig::tellico();
  cfg.cores_per_socket = kCores;
  cfg.physical_cores_per_socket = kCores;
  cfg.l3_slice_bytes = 64 * 128;  // 128 lines/slice: constant eviction churn
  cfg.l3_associativity = 4;
  return cfg;
}

struct ThreadTally {
  std::uint64_t read_lines = 0;
  std::uint64_t write_lines = 0;
  std::uint64_t ops = 0;

  /// Add a hold's memory lines; call just before the handle is released.
  void add(const L3Fabric::StripeHandle& stripe) {
    read_lines += stripe.lines(MemDir::Read);
    write_lines += stripe.lines(MemDir::Write);
  }
};

void access(L3Fabric::StripeHandle& stripe, std::uint64_t i, std::uint64_t line) {
  switch (i % 3) {
    case 0:
      stripe.load(line);
      break;
    case 1:
      stripe.store(line);
      break;
    default:
      stripe.prefetch(line);
      break;
  }
}

/// The conservation laws every interleaving must keep, then an empty fabric
/// after flush_all.
void expect_conserved(const MachineConfig& cfg, const MemController& mem,
                      L3Fabric& l3, const std::vector<ThreadTally>& tallies,
                      std::uint64_t expected_ops) {
  ThreadTally total;
  std::uint64_t total_ops = 0;
  for (const ThreadTally& tally : tallies) {
    total.read_lines += tally.read_lines;
    total.write_lines += tally.write_lines;
    total_ops += tally.ops;
  }

  // Every access performed exactly one slice lookup.
  EXPECT_EQ(total_ops, expected_ops);
  EXPECT_EQ(l3.total_slice_lookups(), total_ops);

  // The controller saw exactly the lines the threads accounted -- byte for
  // byte, independent of interleaving.
  EXPECT_EQ(mem.total_bytes(MemDir::Read), total.read_lines * cfg.line_bytes);
  EXPECT_EQ(mem.total_bytes(MemDir::Write), total.write_lines * cfg.line_bytes);

  // Channel totals sum back to the direction totals (each hold publishes
  // every channel it touched, so no line is lost between channels).
  std::uint64_t chan_read = 0;
  std::uint64_t chan_write = 0;
  for (std::uint32_t ch = 0; ch < cfg.mem_channels; ++ch) {
    chan_read += mem.channel_bytes(ch, MemDir::Read);
    chan_write += mem.channel_bytes(ch, MemDir::Write);
  }
  EXPECT_EQ(chan_read, mem.total_bytes(MemDir::Read));
  EXPECT_EQ(chan_write, mem.total_bytes(MemDir::Write));

  // Sanity on the victim path: recoveries can't outnumber memory reads
  // avoided, retention misses can't outnumber lookups.
  EXPECT_LE(l3.victim_recoveries(), total_ops);
  EXPECT_LE(l3.victim_retention_misses(), total_ops);

  l3.flush_all();
  for (std::uint32_t c = 0; c < kCores; ++c) {
    EXPECT_EQ(l3.slice(c).valid_lines(), 0u) << "slice " << c;
  }
}

TEST(ConcurrencyStress, EightThreadsConserveTrafficAndLookups) {
  const MachineConfig cfg = stress_config();
  MemController mem(cfg.mem_channels, cfg.line_bytes, cfg.channel_interleave_lines);
  L3Fabric l3(cfg, mem);
  l3.set_active_cores(kCores);

  std::vector<ThreadTally> tallies(kThreads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        // Two threads share each core, so each stripe mutex is genuinely
        // contended.  Per-thread line ranges overlap within a core (same
        // base) to also contend on set state, not just the lock.
        const std::uint32_t core = t % kCores;
        const std::uint64_t base = static_cast<std::uint64_t>(core) << 32;
        ThreadTally& tally = tallies[t];
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t line = base + (i * 7 + t) % 4096;
          L3Fabric::StripeHandle stripe = l3.hold(core);
          access(stripe, i, line);
          tally.add(stripe);
          ++tally.ops;
        }
      });
    }
  }  // jthreads join here

  expect_conserved(cfg, mem, l3, tallies, kThreads * kOpsPerThread);
}

TEST(ConcurrencyStress, HandleBatchesConserveTrafficAndLookups) {
  // The replay engine's ownership pattern: each operation batch holds its
  // core's stripe through one StripeHandle, as one loop replay does.  Two
  // threads per core make the handles themselves contend.
  constexpr std::uint64_t kBatch = 64;
  const MachineConfig cfg = stress_config();
  MemController mem(cfg.mem_channels, cfg.line_bytes, cfg.channel_interleave_lines);
  L3Fabric l3(cfg, mem);
  l3.set_active_cores(kCores);

  std::vector<ThreadTally> tallies(kThreads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const std::uint32_t core = t % kCores;
        const std::uint64_t base = static_cast<std::uint64_t>(core) << 32;
        ThreadTally& tally = tallies[t];
        for (std::uint64_t b = 0; b < kOpsPerThread / kBatch; ++b) {
          L3Fabric::StripeHandle stripe = l3.hold(core);
          for (std::uint64_t j = 0; j < kBatch; ++j) {
            const std::uint64_t i = b * kBatch + j;
            access(stripe, i, base + (i * 7 + t) % 4096);
            ++tally.ops;
          }
          tally.add(stripe);
        }
      });
    }
  }  // jthreads join here

  expect_conserved(cfg, mem, l3, tallies,
                   kThreads * (kOpsPerThread / kBatch) * kBatch);
}

TEST(ConcurrencyStress, DisjointCoresNeedNoCrossStripeCoordination) {
  // One thread per core over fully disjoint footprints: the serial replay of
  // the same schedule must land on identical per-core hit/miss counters,
  // because stripes share no mutable state.
  const MachineConfig cfg = stress_config();

  auto run = [&](bool parallel) {
    MemController mem(cfg.mem_channels, cfg.line_bytes, cfg.channel_interleave_lines);
    L3Fabric l3(cfg, mem);
    l3.set_active_cores(kCores);
    auto body = [&](std::uint32_t core) {
      const std::uint64_t base = static_cast<std::uint64_t>(core) << 32;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t line = base + (i * 5) % 1024;
        if (i % 2 == 0) {
          l3.load_line(core, line);
        } else {
          l3.store_line(core, line);
        }
      }
    };
    if (parallel) {
      std::vector<std::jthread> workers;
      for (std::uint32_t c = 0; c < kCores; ++c) workers.emplace_back(body, c);
    } else {
      for (std::uint32_t c = 0; c < kCores; ++c) body(c);
    }
    std::vector<std::uint64_t> out;
    for (std::uint32_t c = 0; c < kCores; ++c) {
      out.push_back(l3.slice(c).hits());
      out.push_back(l3.slice(c).misses());
    }
    out.push_back(mem.total_bytes(MemDir::Read));
    out.push_back(mem.total_bytes(MemDir::Write));
    return out;
  };

  EXPECT_EQ(run(/*parallel=*/false), run(/*parallel=*/true));
}

}  // namespace
}  // namespace papisim::sim
