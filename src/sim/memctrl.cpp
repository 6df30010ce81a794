#include "sim/memctrl.hpp"

#include <stdexcept>

namespace papisim::sim {

MemController::MemController(std::uint32_t channels, std::uint32_t line_bytes,
                             std::uint32_t interleave_lines)
    : channels_(channels),
      line_bytes_(line_bytes),
      interleave_lines_(interleave_lines == 0 ? 1 : interleave_lines),
      counters_(static_cast<std::size_t>(channels) * 2),
      op_counters_(static_cast<std::size_t>(channels) * 2) {
  if (channels == 0) throw std::invalid_argument("MemController: need >= 1 channel");
  if ((interleave_lines_ & (interleave_lines_ - 1)) != 0) {
    throw std::invalid_argument("MemController: interleave granularity must be a power of two");
  }
  while ((1u << interleave_shift_) < interleave_lines_) ++interleave_shift_;
  pow2_channels_ = (channels_ & (channels_ - 1)) == 0;
  channel_mask_ = channels_ - 1;
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& c : op_counters_) c.store(0, std::memory_order_relaxed);
}

void MemController::add_spread(std::uint64_t bytes, MemDir dir) {
  // An even share on every channel (kept once, added on read), remainder to
  // one channel chosen round-robin.
  const std::uint64_t per_channel = bytes / channels_;
  const std::uint64_t rem = bytes - per_channel * channels_;
  const auto d = static_cast<std::uint32_t>(dir);
  if (per_channel != 0) {
    spread_bytes_[d].fetch_add(per_channel, std::memory_order_relaxed);
    spread_ops_[d].fetch_add((per_channel + line_bytes_ - 1) / line_bytes_,
                             std::memory_order_relaxed);
  }
  if (rem != 0) {
    const std::uint32_t cur =
        spread_cursor_.fetch_add(1, std::memory_order_relaxed) % channels_;
    counter(cur, dir).fetch_add(rem, std::memory_order_relaxed);
    op_counter(cur, dir).fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t MemController::total_bytes(MemDir dir) const {
  std::uint64_t total = 0;
  for (std::uint32_t ch = 0; ch < channels_; ++ch) total += channel_bytes(ch, dir);
  return total;
}

std::uint64_t MemController::total_ops(MemDir dir) const {
  std::uint64_t total = 0;
  for (std::uint32_t ch = 0; ch < channels_; ++ch) total += channel_ops(ch, dir);
  return total;
}

std::vector<std::array<std::uint64_t, 2>> MemController::snapshot() const {
  std::vector<std::array<std::uint64_t, 2>> snap(channels_);
  for (std::uint32_t ch = 0; ch < channels_; ++ch) {
    snap[ch] = {channel_bytes(ch, MemDir::Read), channel_bytes(ch, MemDir::Write)};
  }
  return snap;
}

}  // namespace papisim::sim
