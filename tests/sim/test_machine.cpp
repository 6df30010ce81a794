// Machine-level tests: socket composition, noise accrual, flushing, and the
// interaction of engines across sockets.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/machine.hpp"

namespace papisim::sim {
namespace {

TEST(Machine, SocketsHaveIndependentCountersAndCaches) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  LoopDesc loop;
  loop.iterations = 4096;
  loop.streams = {{1 << 20, 8, 8, AccessKind::Load}};
  m.engine(0, 0).execute(loop);
  EXPECT_GT(m.memctrl(0).total_bytes(MemDir::Read), 0u);
  EXPECT_EQ(m.memctrl(1).total_bytes(MemDir::Read), 0u);
  // Same addresses from socket 1 miss independently (separate L3s).
  m.engine(1, 0).execute(loop);
  EXPECT_EQ(m.memctrl(1).total_bytes(MemDir::Read),
            m.memctrl(0).total_bytes(MemDir::Read));
}

TEST(Machine, AdvanceAccruesNoiseOnEverySocket) {
  Machine m(MachineConfig::summit());
  m.advance(1e9);
  EXPECT_GT(m.memctrl(0).total_bytes(MemDir::Read), 0u);
  EXPECT_GT(m.memctrl(1).total_bytes(MemDir::Read), 0u);
  EXPECT_DOUBLE_EQ(m.clock().now_ns(), 1e9);
}

TEST(Machine, NoiseSequencesDifferAcrossSockets) {
  Machine m(MachineConfig::summit());
  m.noise(0).repetition_overhead();
  m.noise(1).repetition_overhead();
  EXPECT_NE(m.memctrl(0).total_bytes(MemDir::Read),
            m.memctrl(1).total_bytes(MemDir::Read));
}

TEST(Machine, NoiseSeedsDifferAcrossSystemPresets) {
  EXPECT_NE(MachineConfig::summit().noise.seed, MachineConfig::tellico().noise.seed);
  EXPECT_NE(MachineConfig::summit().noise.seed,
            MachineConfig::power10_preview().noise.seed);
}

TEST(Machine, FlushAllDrainsEverySocket) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  m.engine(0, 0).store(1 << 20, 8);
  m.engine(0, 0).take_scalar_stats();
  m.engine(1, 3).store(1 << 21, 8);
  m.engine(1, 3).take_scalar_stats();
  m.flush_all();
  EXPECT_EQ(m.memctrl(0).total_bytes(MemDir::Write), 64u);
  EXPECT_EQ(m.memctrl(1).total_bytes(MemDir::Write), 64u);
}

TEST(Machine, EnginesAreStablePerCore) {
  Machine m(MachineConfig::tellico());
  EXPECT_EQ(&m.engine(0, 0), &m.engine(0, 0));
  EXPECT_NE(&m.engine(0, 0), &m.engine(0, 1));
  EXPECT_NE(&m.engine(0, 0), &m.engine(1, 0));
  EXPECT_EQ(m.engine(0, 5).core(), 5u);
}

TEST(Machine, Power10PreviewGeometry) {
  Machine m(MachineConfig::power10_preview());
  EXPECT_EQ(m.config().mem_channels, 16u);
  EXPECT_EQ(m.cores_per_socket(), 15u);
  EXPECT_EQ(m.config().cpus_per_socket(), 128u);  // 16 physical x SMT8
  EXPECT_EQ(m.socket_of_cpu(127), 0u);
  EXPECT_EQ(m.socket_of_cpu(128), 1u);
  EXPECT_FALSE(m.user_credentials().privileged());
}

TEST(Machine, SetActiveCoresChangesVictimCapacityImmediately) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  m.set_active_cores(0, 1);
  EXPECT_GT(m.l3(0).victim_store().capacity_lines(), 0u);
  m.set_active_cores(0, m.cores_per_socket());
  EXPECT_EQ(m.l3(0).victim_store().capacity_lines(), 0u);
}

TEST(Machine, RejectsLineSizesThatAreNotAPowerOfTwo) {
  // Replay turns addresses into line numbers with a shift.
  MachineConfig cfg;
  cfg.sockets = 1;
  cfg.cores_per_socket = 2;
  for (const std::uint32_t bytes : {0u, 48u, 96u, 100u, 192u}) {
    cfg.line_bytes = bytes;
    EXPECT_THROW({ Machine m(cfg); }, std::invalid_argument) << bytes << " B lines";
  }
  for (const std::uint32_t bytes : {32u, 128u}) {
    cfg.line_bytes = bytes;
    Machine m(cfg);
    m.set_noise_enabled(false);
    LoopDesc loop;
    loop.iterations = 1024;
    loop.streams = {{1 << 20, 8, 8, AccessKind::Load}};
    const LoopStats st = m.engine(0, 0).execute(loop);
    EXPECT_EQ(st.line_touches, 1024 * 8 / bytes) << bytes << " B lines";
    EXPECT_EQ(st.mem_read_bytes, 1024u * 8) << bytes << " B lines";
  }
}

}  // namespace
}  // namespace papisim::sim
