// A deliberately slow reference model of sim::L3Fabric for differential
// tests.
//
// Every cache in it is a ReferenceLru (tests/testing/reference_lru.hpp): one
// slice per core and one 8-way, hashed victim partition per core, sized the
// way L3Fabric::set_active_cores sizes it.  An access is the textbook
// sequence, spelled out in one function with no fast paths: look the line
// up in the core's slice; on a miss cast the slice's victim out into the
// victim partition (or write it back if dirty when the partition has no
// capacity), then take the line from the partition -- removing it there --
// if the retention draw keeps it, else read it from memory.  Memory lines
// are counted per channel with the channel computed from scratch,
// (line / interleave_lines) % channels, and never batched.  What it shares
// with L3Fabric is the definition of the model: CacheLevel::set_of (through
// ReferenceLru) and the retention hash with its per-core event counter.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/config.hpp"
#include "sim/l3fabric.hpp"
#include "sim/memctrl.hpp"
#include "sim/rng.hpp"
#include "testing/reference_lru.hpp"

namespace papisim::test_support {

class ReferenceFabric {
 public:
  using Source = sim::L3Fabric::Source;

  /// The fabric of `cfg` in front of a memory of cfg.mem_channels channels
  /// interleaved every `interleave_lines` lines (MemController's layout).
  ReferenceFabric(const sim::MachineConfig& cfg, std::uint32_t interleave_lines)
      : cfg_(cfg),
        interleave_lines_(interleave_lines),
        lines_(cfg.mem_channels, {0, 0}),
        events_(cfg.cores_per_socket, 0) {
    for (std::uint32_t c = 0; c < cfg.cores_per_socket; ++c) {
      slices_.emplace_back(cfg.l3_slice_bytes, cfg.l3_associativity, cfg.line_bytes,
                           /*hashed_sets=*/true);
    }
    set_active_cores(1);
  }

  /// Every core's victim partition becomes an empty cache of (idle cores x
  /// slice bytes / active cores), or of nothing without lateral cast-out.
  void set_active_cores(std::uint32_t n) {
    if (n == 0 || n > cfg_.cores_per_socket) {
      throw std::invalid_argument("ReferenceFabric: active cores out of range");
    }
    const std::uint64_t idle = cfg_.cores_per_socket - n;
    const std::uint64_t capacity =
        cfg_.lateral_castout ? idle * cfg_.l3_slice_bytes / n : 0;
    victims_.clear();
    for (std::uint32_t c = 0; c < cfg_.cores_per_socket; ++c) {
      victims_.emplace_back(capacity, 8, cfg_.line_bytes, /*hashed_sets=*/true);
    }
    victim_capacity_ = capacity / cfg_.line_bytes / 8 * 8;
  }

  Source load(std::uint32_t core, std::uint64_t line) {
    return access(core, line, false);
  }
  Source store(std::uint32_t core, std::uint64_t line) {
    return access(core, line, true);
  }
  Source prefetch(std::uint32_t core, std::uint64_t line) { return load(core, line); }
  void write_through(std::uint64_t line) { count(line, sim::MemDir::Write); }

  /// Write back every dirty line of `core`'s slice and empty it.
  void flush_core(std::uint32_t core) {
    for (const auto& [line, dirty] : slices_[core].flush()) {
      if (dirty) count(line, sim::MemDir::Write);
    }
  }

  std::uint64_t channel_ops(std::uint32_t channel, sim::MemDir dir) const {
    return lines_[channel][static_cast<std::size_t>(dir)];
  }
  std::uint64_t channel_bytes(std::uint32_t channel, sim::MemDir dir) const {
    return channel_ops(channel, dir) * cfg_.line_bytes;
  }
  std::uint64_t victim_recoveries() const { return recoveries_; }
  std::uint64_t victim_retention_misses() const { return retention_misses_; }

  ReferenceLru& slice(std::uint32_t core) { return slices_[core]; }
  const ReferenceLru& victim_store(std::uint32_t core) const { return victims_[core]; }

 private:
  Source access(std::uint32_t core, std::uint64_t line, bool dirty) {
    const sim::CacheLevel::Result r = slices_[core].access(line, dirty);
    if (r.hit) return Source::L3Hit;
    if (r.evicted) {
      if (victim_capacity_ == 0) {
        if (r.victim_dirty) count(r.victim_line, sim::MemDir::Write);
      } else {
        const sim::CacheLevel::Result cast =
            victims_[core].insert(r.victim_line, r.victim_dirty);
        if (cast.evicted && cast.victim_dirty) {
          count(cast.victim_line, sim::MemDir::Write);
        }
      }
    }
    if (victims_[core].invalidate(line).present) {
      if (retained(core, line)) {
        ++recoveries_;
        return Source::VictimHit;
      }
      ++retention_misses_;
    }
    count(line, sim::MemDir::Read);
    return Source::Memory;
  }

  /// The retention draw: the core's next event number, mixed with the line.
  bool retained(std::uint32_t core, std::uint64_t line) {
    const std::uint64_t event = ++events_[core];
    const std::uint64_t threshold =
        cfg_.castout_retention >= 1.0
            ? ~0ull
            : static_cast<std::uint64_t>(cfg_.castout_retention * 0x1p64);
    return sim::hash64(line ^ (event * 0x9e3779b97f4a7c15ULL)) <= threshold;
  }

  void count(std::uint64_t line, sim::MemDir dir) {
    const std::uint64_t channel = line / interleave_lines_ % cfg_.mem_channels;
    ++lines_[channel][static_cast<std::size_t>(dir)];
  }

  sim::MachineConfig cfg_;
  std::uint32_t interleave_lines_;
  std::vector<ReferenceLru> slices_;
  std::vector<ReferenceLru> victims_;
  std::uint64_t victim_capacity_ = 0;  ///< lines per victim partition
  std::vector<std::array<std::uint64_t, 2>> lines_;  ///< [channel][read, write]
  std::vector<std::uint64_t> events_;                ///< retention events per core
  std::uint64_t recoveries_ = 0;
  std::uint64_t retention_misses_ = 0;
};

}  // namespace papisim::test_support
