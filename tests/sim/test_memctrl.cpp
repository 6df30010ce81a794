// Unit tests for the MBA-channel memory controller.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/memctrl.hpp"

namespace papisim::sim {
namespace {

TEST(MemController, LineTransactionsLandOnInterleavedChannels) {
  MemController mc(8, 64, 2);  // 128 B interleave granule
  // Lines 0,1 -> ch 0; lines 2,3 -> ch 1; ... lines 16,17 -> ch 0 again.
  mc.add_line(0, MemDir::Read);
  mc.add_line(1, MemDir::Read);
  mc.add_line(2, MemDir::Read);
  mc.add_line(16, MemDir::Read);
  EXPECT_EQ(mc.channel_bytes(0, MemDir::Read), 3u * 64u);
  EXPECT_EQ(mc.channel_bytes(1, MemDir::Read), 64u);
  EXPECT_EQ(mc.channel_bytes(2, MemDir::Read), 0u);
}

TEST(MemController, ChannelOfMatchesAddLine) {
  MemController mc(8, 64, 2);
  for (std::uint64_t line = 0; line < 64; ++line) {
    const std::uint32_t ch = mc.channel_of(line);
    const std::uint64_t before = mc.channel_bytes(ch, MemDir::Write);
    mc.add_line(line, MemDir::Write);
    EXPECT_EQ(mc.channel_bytes(ch, MemDir::Write), before + 64);
  }
}

TEST(MemController, ReadAndWriteCountersAreIndependent) {
  MemController mc(4, 64, 1);
  mc.add_line(0, MemDir::Read);
  mc.add_line(0, MemDir::Write);
  mc.add_line(0, MemDir::Write);
  EXPECT_EQ(mc.channel_bytes(0, MemDir::Read), 64u);
  EXPECT_EQ(mc.channel_bytes(0, MemDir::Write), 128u);
}

TEST(MemController, TotalsSumAllChannels) {
  MemController mc(8, 64, 2);
  for (std::uint64_t line = 0; line < 100; ++line) mc.add_line(line, MemDir::Read);
  EXPECT_EQ(mc.total_bytes(MemDir::Read), 6400u);
  EXPECT_EQ(mc.total_bytes(MemDir::Write), 0u);
}

TEST(MemController, SpreadDistributesExactByteCount) {
  MemController mc(8, 64, 2);
  mc.add_spread(1000, MemDir::Write);
  mc.add_spread(1000, MemDir::Write);
  EXPECT_EQ(mc.total_bytes(MemDir::Write), 2000u);
  // Even split plus a small remainder somewhere.
  std::uint64_t max_ch = 0, min_ch = ~0ull;
  for (std::uint32_t ch = 0; ch < 8; ++ch) {
    max_ch = std::max(max_ch, mc.channel_bytes(ch, MemDir::Write));
    min_ch = std::min(min_ch, mc.channel_bytes(ch, MemDir::Write));
  }
  EXPECT_LE(max_ch - min_ch, 2 * (1000u % 8u));
}

TEST(MemController, SnapshotMatchesCounters) {
  MemController mc(8, 64, 2);
  mc.add_line(5, MemDir::Read);
  mc.add_line(9, MemDir::Write);
  const auto snap = mc.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::uint32_t ch = 0; ch < 8; ++ch) {
    EXPECT_EQ(snap[ch][0], mc.channel_bytes(ch, MemDir::Read));
    EXPECT_EQ(snap[ch][1], mc.channel_bytes(ch, MemDir::Write));
  }
}

/// Per-channel bookkeeping written out longhand: every add touches the
/// channel cells it names, and add_spread adds the even share to every
/// channel and the remainder to the next channel round-robin.
struct LonghandController {
  std::uint32_t channels, line_bytes, interleave_lines;
  std::uint32_t cursor = 0;
  std::vector<std::array<std::uint64_t, 2>> bytes, ops;

  LonghandController(std::uint32_t ch, std::uint32_t line, std::uint32_t interleave)
      : channels(ch), line_bytes(line), interleave_lines(interleave),
        bytes(ch, {0, 0}), ops(ch, {0, 0}) {}

  void add_line(std::uint64_t line, MemDir dir) {
    const auto ch = static_cast<std::uint32_t>((line / interleave_lines) % channels);
    add_channel_bytes(ch, dir, line_bytes);
    ops[ch][static_cast<int>(dir)] += 1;
  }
  void add_channel_bytes(std::uint32_t ch, MemDir dir, std::uint64_t n) {
    bytes[ch][static_cast<int>(dir)] += n;
  }
  void add_spread(std::uint64_t n, MemDir dir) {
    const int d = static_cast<int>(dir);
    const std::uint64_t share = n / channels;
    for (std::uint32_t ch = 0; ch < channels; ++ch) {
      bytes[ch][d] += share;
      ops[ch][d] += (share + line_bytes - 1) / line_bytes;
    }
    if (n % channels != 0) {
      const std::uint32_t ch = cursor++ % channels;
      bytes[ch][d] += n % channels;
      ops[ch][d] += 1;
    }
  }
};

void expect_same(const MemController& mc, const LonghandController& ref) {
  const auto snap = mc.snapshot();
  ASSERT_EQ(snap.size(), ref.channels);
  std::array<std::uint64_t, 2> total_bytes{}, total_ops{};
  for (std::uint32_t ch = 0; ch < ref.channels; ++ch) {
    for (const MemDir dir : {MemDir::Read, MemDir::Write}) {
      const int d = static_cast<int>(dir);
      EXPECT_EQ(mc.channel_bytes(ch, dir), ref.bytes[ch][d]) << "ch " << ch << " dir " << d;
      EXPECT_EQ(mc.channel_ops(ch, dir), ref.ops[ch][d]) << "ch " << ch << " dir " << d;
      EXPECT_EQ(snap[ch][d], ref.bytes[ch][d]) << "ch " << ch << " dir " << d;
      total_bytes[d] += ref.bytes[ch][d];
      total_ops[d] += ref.ops[ch][d];
    }
  }
  EXPECT_EQ(mc.total_bytes(MemDir::Read), total_bytes[0]);
  EXPECT_EQ(mc.total_bytes(MemDir::Write), total_bytes[1]);
  EXPECT_EQ(mc.total_ops(MemDir::Read), total_ops[0]);
  EXPECT_EQ(mc.total_ops(MemDir::Write), total_ops[1]);
}

TEST(MemController, SpreadRemainderRotatesAndEvenShareReachesEveryChannel) {
  MemController mc(4, 64, 1);
  mc.add_spread(3, MemDir::Read);    // no even share: 3 B, one op on ch 0
  mc.add_spread(3, MemDir::Read);    // ch 1
  mc.add_spread(258, MemDir::Read);  // 64 B (one op) everywhere, 2 B on ch 2
  EXPECT_EQ(mc.channel_bytes(0, MemDir::Read), 3u + 64u);
  EXPECT_EQ(mc.channel_bytes(1, MemDir::Read), 3u + 64u);
  EXPECT_EQ(mc.channel_bytes(2, MemDir::Read), 64u + 2u);
  EXPECT_EQ(mc.channel_bytes(3, MemDir::Read), 64u);
  EXPECT_EQ(mc.channel_ops(0, MemDir::Read), 2u);
  EXPECT_EQ(mc.channel_ops(2, MemDir::Read), 2u);
  EXPECT_EQ(mc.channel_ops(3, MemDir::Read), 1u);
  EXPECT_EQ(mc.total_ops(MemDir::Read), 7u);
  EXPECT_EQ(mc.total_bytes(MemDir::Read), 264u);
  EXPECT_EQ(mc.total_bytes(MemDir::Write), 0u);
}

TEST(MemController, MixedAddsMatchLonghandPerChannelBookkeeping) {
  // The cursor passes its channel count several times over, spreads range
  // from sub-channel remainders to multi-line shares, and every kind of add
  // interleaves, for power-of-two and other channel counts.
  for (const std::uint32_t channels : {1u, 3u, 8u, 16u}) {
    MemController mc(channels, 64, 2);
    LonghandController ref(channels, 64, 2);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const MemDir dir = (x >> 3) & 1 ? MemDir::Write : MemDir::Read;
      switch (x % 4) {
        case 0:
          mc.add_line(x >> 20, dir);
          ref.add_line(x >> 20, dir);
          break;
        case 1: {
          const std::uint64_t small = (x >> 8) % (2 * channels + 1);
          mc.add_spread(small, dir);
          ref.add_spread(small, dir);
          break;
        }
        case 2: {
          const std::uint64_t big = (x >> 8) % 100000;
          mc.add_spread(big, dir);
          ref.add_spread(big, dir);
          break;
        }
        default: {
          const auto ch = static_cast<std::uint32_t>((x >> 8) % channels);
          mc.add_channel_bytes(ch, dir, (x >> 16) % 4096);
          ref.add_channel_bytes(ch, dir, (x >> 16) % 4096);
          break;
        }
      }
      if (i % 500 == 0) expect_same(mc, ref);
    }
    expect_same(mc, ref);
  }
}

TEST(MemController, AddLinesEqualsRepeatedAddLine) {
  MemController batched(8, 64, 2);
  MemController single(8, 64, 2);
  batched.add_lines(batched.channel_of(6), MemDir::Write, 5);
  for (int i = 0; i < 5; ++i) single.add_line(6, MemDir::Write);
  EXPECT_EQ(batched.snapshot(), single.snapshot());
  EXPECT_EQ(batched.channel_ops(3, MemDir::Write), 5u);
  EXPECT_EQ(single.channel_ops(3, MemDir::Write), 5u);
}

TEST(MemController, RejectsZeroChannels) {
  EXPECT_THROW(MemController(0, 64, 2), std::invalid_argument);
}

}  // namespace
}  // namespace papisim::sim
