// Per-socket memory controller ("nest") with MBA-channel byte counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace papisim::sim {

/// Direction of a memory transaction, mirroring the POWER9 nest events
/// PM_MBA[ch]_READ_BYTES / PM_MBA[ch]_WRITE_BYTES.
enum class MemDir : std::uint8_t { Read = 0, Write = 1 };

/// The socket's memory controller.  Physical lines are interleaved across
/// `channels` MBA channels at a configurable granularity; each channel keeps
/// monotonically increasing READ/WRITE byte counters.
///
/// Counters are atomics because the PCP daemon (PMCD) reads them from its own
/// thread and the parallel replay engine publishes to them from one worker
/// per simulated core.  All increments are commutative relaxed adds, so
/// per-channel totals are independent of worker interleaving -- the property
/// the serial-vs-parallel replay equivalence test pins down.  The replay path
/// does not add per line: L3Fabric counts a hold's lines per channel in the
/// core's stripe and publishes them through add_lines() when the hold ends.
///
/// add_spread()'s even per-channel share is kept once per direction
/// (spread_bytes_/spread_ops_) and added to every channel on read, so a
/// spread costs O(1) atomics however many channels there are.
class MemController {
 public:
  MemController(std::uint32_t channels, std::uint32_t line_bytes,
                std::uint32_t interleave_lines);

  std::uint32_t channels() const { return channels_; }

  /// Channel owning a given line number.
  std::uint32_t channel_of(std::uint64_t line) const {
    const std::uint64_t granule = line >> interleave_shift_;
    return pow2_channels_
               ? static_cast<std::uint32_t>(granule & channel_mask_)
               : static_cast<std::uint32_t>(granule % channels_);
  }

  /// Account one full-line transaction for `line`.
  void add_line(std::uint64_t line, MemDir dir) { add_lines(channel_of(line), dir, 1); }

  /// Account `n` full-line transactions on `channel`.
  void add_lines(std::uint32_t channel, MemDir dir, std::uint64_t n) {
    counter(channel, dir).fetch_add(n * line_bytes_, std::memory_order_relaxed);
    op_counter(channel, dir).fetch_add(n, std::memory_order_relaxed);
  }

  /// Account `bytes` of traffic spread round-robin over all channels
  /// (used by the noise model and DMA engines without specific addresses).
  void add_spread(std::uint64_t bytes, MemDir dir);

  /// Account `bytes` on a specific channel (used to replay a recorded
  /// per-channel traffic delta, e.g. deterministic kernel repetitions).
  void add_channel_bytes(std::uint32_t channel, MemDir dir, std::uint64_t bytes) {
    counter(channel, dir).fetch_add(bytes, std::memory_order_relaxed);
  }

  std::uint64_t channel_bytes(std::uint32_t channel, MemDir dir) const {
    return counter(channel, dir).load(std::memory_order_relaxed) +
           spread(spread_bytes_, dir);
  }

  /// Transaction (request) count per channel; each channel's even share of
  /// a spread counts as ceil(share / line) requests, a remainder as one.
  std::uint64_t channel_ops(std::uint32_t channel, MemDir dir) const {
    return op_counter(channel, dir).load(std::memory_order_relaxed) +
           spread(spread_ops_, dir);
  }

  std::uint64_t total_bytes(MemDir dir) const;
  std::uint64_t total_ops(MemDir dir) const;

  /// Snapshot of all channel counters: [channel][read,write].
  std::vector<std::array<std::uint64_t, 2>> snapshot() const;

  std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  std::atomic<std::uint64_t>& counter(std::uint32_t ch, MemDir dir) {
    return counters_[ch * 2 + static_cast<std::uint32_t>(dir)];
  }
  const std::atomic<std::uint64_t>& counter(std::uint32_t ch, MemDir dir) const {
    return counters_[ch * 2 + static_cast<std::uint32_t>(dir)];
  }
  std::atomic<std::uint64_t>& op_counter(std::uint32_t ch, MemDir dir) {
    return op_counters_[ch * 2 + static_cast<std::uint32_t>(dir)];
  }
  const std::atomic<std::uint64_t>& op_counter(std::uint32_t ch, MemDir dir) const {
    return op_counters_[ch * 2 + static_cast<std::uint32_t>(dir)];
  }
  static std::uint64_t spread(const std::array<std::atomic<std::uint64_t>, 2>& cells,
                              MemDir dir) {
    return cells[static_cast<std::uint32_t>(dir)].load(std::memory_order_relaxed);
  }

  std::uint32_t channels_;
  std::uint32_t line_bytes_;
  std::uint32_t interleave_lines_;
  std::uint32_t interleave_shift_ = 0;
  bool pow2_channels_ = true;
  std::uint32_t channel_mask_ = 0;
  std::atomic<std::uint32_t> spread_cursor_{0};
  std::array<std::atomic<std::uint64_t>, 2> spread_bytes_{};  ///< per-channel share
  std::array<std::atomic<std::uint64_t>, 2> spread_ops_{};
  std::vector<std::atomic<std::uint64_t>> counters_;
  std::vector<std::atomic<std::uint64_t>> op_counters_;
};

}  // namespace papisim::sim
