#include "sim/access_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace papisim::sim {

LoopStats& LoopStats::operator+=(const LoopStats& o) {
  line_touches += o.line_touches;
  mem_read_bytes += o.mem_read_bytes;
  mem_write_bytes += o.mem_write_bytes;
  l3_hits += o.l3_hits;
  victim_hits += o.victim_hits;
  bypassed_store_lines += o.bypassed_store_lines;
  allocated_store_lines += o.allocated_store_lines;
  seq_line_touches += o.seq_line_touches;
  strided_line_touches += o.strided_line_touches;
  time_ns += o.time_ns;
  flops += o.flops;
  return *this;
}

AccessEngine::AccessEngine(const MachineConfig& cfg, std::uint32_t core,
                           L3Fabric& l3, SimClock& clock, NoiseModel& noise)
    : cfg_(cfg),
      core_(core),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes))),
      l3_(l3),
      clock_(clock),
      noise_(noise) {
  if (!std::has_single_bit(cfg.line_bytes)) {
    throw std::invalid_argument("AccessEngine: line size must be a power of two");
  }
}

void AccessEngine::account(LoopStats& s, L3Fabric::Source src) {
  switch (src) {
    case L3Fabric::Source::L3Hit: ++s.l3_hits; break;
    case L3Fabric::Source::VictimHit: ++s.victim_hits; break;
    case L3Fabric::Source::Memory: break;  // traffic accounted by the fabric
  }
}

namespace {

spe::HitLevel spe_level(L3Fabric::Source src) {
  switch (src) {
    case L3Fabric::Source::L3Hit: return spe::HitLevel::L3Hit;
    case L3Fabric::Source::VictimHit: return spe::HitLevel::VictimHit;
    case L3Fabric::Source::Memory: return spe::HitLevel::Memory;
  }
  return spe::HitLevel::Memory;
}

/// First iteration > `cur_iter` at which the affine stream touches a line
/// different from `cur_line`, or UINT64_MAX for stride 0.  Lines are
/// 2^line_shift bytes.
std::uint64_t next_line_iter(std::uint64_t base, std::int64_t stride,
                             std::uint64_t cur_iter, std::uint64_t cur_line,
                             std::uint32_t line_shift) {
  if (stride == 0) return ~0ull;
  // Fast path: a stride of at least one line touches a new line every
  // iteration (the dominant case for strided kernels; avoids a division).
  const std::int64_t line_bytes = std::int64_t{1} << line_shift;
  if (stride >= line_bytes || -stride >= line_bytes) return cur_iter + 1;
  if (stride > 0) {
    // Smallest i with base + i*stride >= (cur_line + 1) * line_bytes.
    const std::uint64_t boundary = (cur_line + 1) << line_shift;
    const std::uint64_t s = static_cast<std::uint64_t>(stride);
    if (base >= boundary) return cur_iter + 1;  // already past (elem straddle)
    return (boundary - base + s - 1) / s;
  }
  // Negative stride: smallest i with base + i*stride < cur_line * line_bytes.
  const std::uint64_t boundary = cur_line << line_shift;  // first byte of line
  const std::uint64_t s = static_cast<std::uint64_t>(-stride);
  if (base < boundary) return cur_iter + 1;
  // base - i*s <= boundary - 1  =>  i >= (base - boundary + 1) / s
  return (base - boundary + s) / s;
}

}  // namespace

AccessEngine::StreamKey AccessEngine::key_of(const StreamDesc& sd) const {
  const bool whole_lines = (sd.stride & ((std::int64_t{1} << line_shift_) - 1)) == 0;
  return StreamKey{whole_lines ? line_of(sd.base) : sd.base, sd.stride, sd.elem_bytes,
                   sd.kind};
}

bool AccessEngine::repeats(const LoopDesc& loop, std::uint64_t slice_epoch) const {
  if (!memo_.valid || memo_.slice_epoch != slice_epoch ||
      memo_.iterations != loop.iterations || memo_.sw_prefetch != loop.sw_prefetch ||
      memo_.streams != loop.streams.size()) {
    return false;
  }
  for (std::size_t k = 0; k < memo_.streams; ++k) {
    if (key_of(loop.streams[k]) != memo_.key[k]) return false;
  }
  return true;
}

LoopStats AccessEngine::execute(const LoopDesc& loop) {
  LoopStats stats;
  const std::size_t n = loop.streams.size();
  if (n == 0 || loop.iterations == 0) return stats;
  if (n > 16) throw std::invalid_argument("AccessEngine: too many streams in one loop");

  // Store-density classification: how many load streams feed each store
  // stream per iteration?  Dense, contiguous store streams are candidates
  // for the cache bypass.
  std::size_t load_streams = 0;
  std::size_t store_streams = 0;
  for (const StreamDesc& sd : loop.streams) {
    (sd.kind == AccessKind::Load ? load_streams : store_streams) += 1;
  }
  const std::size_t loads_per_store =
      store_streams == 0 ? ~std::size_t{0} : load_streams / store_streams;

  bool bypass_ok[16];
  enum : std::uint8_t { kEveryIter, kShift, kGeneral };
  std::uint8_t stride_mode[16];
  std::uint8_t stride_shift[16] = {};
  // Stream detection, precomputed: execute() streams are affine, so the
  // per-touch StreamDetector outcome is known in advance -- a stream whose
  // line-delta is a constant of >= 2 lines (stride a multiple of the line
  // size and at least two lines) is flagged "strided" after
  // stream_detect_threshold deltas, i.e. from its (threshold+1)-th touch on.
  // This is bit-exact with StreamDetector (verified by tests) and removes
  // the detector from the hot loop.
  bool strided_capable[16];
  std::uint64_t touch_count[16];
  std::uint64_t stream_touches[16] = {};  // per-stream totals for the stride mix
  std::uint32_t strided_active = 0;
  const std::int64_t line = cfg_.line_bytes;
  for (std::size_t k = 0; k < n; ++k) {
    const StreamDesc& sd = loop.streams[k];
    bypass_ok[k] = cfg_.store_bypass && !loop.sw_prefetch &&
                   sd.kind == AccessKind::Store &&
                   sd.stride == static_cast<std::int64_t>(sd.elem_bytes) &&
                   loads_per_store <= cfg_.bypass_max_loads_per_store;
    const std::int64_t abs_stride = sd.stride < 0 ? -sd.stride : sd.stride;
    strided_capable[k] = abs_stride >= 2 * line && abs_stride % line == 0;
    touch_count[k] = 0;
    // Per-event line advance without a division:
    //  * |stride| >= line: a new line every iteration;
    //  * positive power-of-two stride < line: shift instead of divide;
    //  * anything else: the general next_line_iter() path.
    if (abs_stride >= line) {
      stride_mode[k] = kEveryIter;
    } else if (sd.stride > 0 && (sd.stride & (sd.stride - 1)) == 0) {
      stride_mode[k] = kShift;
      stride_shift[k] = 0;
      while ((std::int64_t{1} << stride_shift[k]) < sd.stride) ++stride_shift[k];
    } else {
      stride_mode[k] = kGeneral;
    }
  }

  // Precise-event sampling (DESIGN.md §3g): one timestamp per execute() --
  // samples are joined against phase boundaries, which are orders of
  // magnitude coarser than a loop replay.
  spe::CoreSampler* const spe = spe::kEnabled ? spe_ : nullptr;
  const std::uint64_t spe_t_ns = spe != nullptr ? spe_time_ns() : 0;

  // Per-stream replay cursors: the iteration of the next new-line touch.
  std::uint64_t next_iter[16];
  for (std::size_t k = 0; k < n; ++k) next_iter[k] = 0;
  const std::uint64_t strided_from = std::uint64_t{cfg_.stream_detect_threshold} + 1;

  {
    // One stripe acquisition for the whole loop: one thread replays each
    // core, so nothing else needs the stripe until the loop ends.  The hold
    // counts this loop's memory lines, so concurrently replaying cores
    // cannot pollute each other's stats; its release publishes them.
    L3Fabric::StripeHandle stripe = l3_.hold(core_);
    if (spe == nullptr && repeats(loop, stripe.slice_epoch())) {
      // Replaying would hit every line again and leave the slice as it is.
      stats.line_touches = memo_.line_touches;
      stats.l3_hits = memo_.l3_hits;
      stats.allocated_store_lines = memo_.allocated_store_lines;
      std::copy_n(memo_.stream_touches, n, stream_touches);
      stripe.repeat_hits(memo_.slice_hits);
      ++counters_.repeated_loops;
    } else {
      const std::uint64_t slice_hits0 = stripe.slice_hits();
      while (true) {
        // Find the earliest pending line event (ties resolved in stream order,
        // matching the textual order of accesses in the loop body).
        std::size_t k = n;
        std::uint64_t imin = loop.iterations;
        for (std::size_t j = 0; j < n; ++j) {
          if (next_iter[j] < imin) {
            imin = next_iter[j];
            k = j;
          }
        }
        if (k == n) break;

        const StreamDesc& sd = loop.streams[k];
        const std::uint64_t addr =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(sd.base) +
                                       static_cast<std::int64_t>(imin) * sd.stride);
        const std::uint64_t touched_line = line_of(addr);

        if (strided_capable[k] && ++touch_count[k] == strided_from) {
          ++strided_active;
        }
        ++stats.line_touches;
        ++stream_touches[k];

        L3Fabric::Source src = L3Fabric::Source::Memory;
        bool bypassed = false;
        if (sd.kind == AccessKind::Load) {
          src = stripe.load(touched_line);
          account(stats, src);
        } else if (loop.sw_prefetch) {
          // dcbtst: prefetch the target line into L3, then the store hits it.
          // The sample's hit level reports where the prefetch found the line.
          src = stripe.prefetch(touched_line);
          account(stats, src);
          stripe.store(touched_line);
          ++stats.allocated_store_lines;
        } else if (bypass_ok[k] && strided_active == 0) {
          // Streaming store: bypass the cache, write the full line to memory.
          stripe.write_through(touched_line);
          ++stats.bypassed_store_lines;
          bypassed = true;
        } else {
          src = stripe.store(touched_line);
          account(stats, src);
          ++stats.allocated_store_lines;
        }

        if constexpr (spe::kEnabled) {
          if (spe != nullptr) {
            spe->on_access(addr,
                           sd.kind == AccessKind::Load ? spe::AccessKind::Load
                                                       : spe::AccessKind::Store,
                           bypassed ? spe::HitLevel::Bypass : spe_level(src),
                           sd.stride, spe_t_ns);
          }
        }

        switch (stride_mode[k]) {
          case kEveryIter:
            next_iter[k] = imin + 1;
            break;
          case kShift: {
            // Iterations until the next line boundary: ceil(remaining / stride).
            const std::uint64_t remaining = bytes_of(touched_line + 1) - addr;
            next_iter[k] =
                imin + ((remaining + (std::uint64_t{1} << stride_shift[k]) - 1) >>
                        stride_shift[k]);
            break;
          }
          default:
            next_iter[k] =
                next_line_iter(sd.base, sd.stride, imin, touched_line, line_shift_);
        }
      }
      stats.mem_read_bytes = bytes_of(stripe.lines(MemDir::Read));
      stats.mem_write_bytes = bytes_of(stripe.lines(MemDir::Write));
      // Every touch hit and none bypassed, so every slice access hit (a
      // prefetched store's second access finds the line at MRU) and no
      // memory line was counted.
      memo_.valid = spe == nullptr && stats.l3_hits == stats.line_touches &&
                    stats.bypassed_store_lines == 0 && stats.mem_read_bytes == 0 &&
                    stats.mem_write_bytes == 0;
      if (memo_.valid) {
        memo_.slice_epoch = stripe.slice_epoch();
        memo_.iterations = loop.iterations;
        memo_.sw_prefetch = loop.sw_prefetch;
        memo_.streams = n;
        for (std::size_t k = 0; k < n; ++k) memo_.key[k] = key_of(loop.streams[k]);
        memo_.line_touches = stats.line_touches;
        memo_.l3_hits = stats.l3_hits;
        memo_.allocated_store_lines = stats.allocated_store_lines;
        memo_.slice_hits = stripe.slice_hits() - slice_hits0;
        std::copy_n(stream_touches, n, memo_.stream_touches);
      }
    }
  }  // the stripe is released here, publishing the loop's memory lines

  stats.flops = static_cast<double>(loop.iterations) * loop.flops_per_iter;
  // Stride mix (StreamDetector taxonomy): a non-zero stride below two lines
  // advances line-by-line (sequential); strided_capable streams are Stride-N.
  for (std::size_t k = 0; k < n; ++k) {
    if (loop.streams[k].stride == 0) continue;
    (strided_capable[k] ? stats.strided_line_touches : stats.seq_line_touches) +=
        stream_touches[k];
  }

  // Coarse virtual-time model: the loop is limited by the slowest of
  // compute, memory bandwidth, and cache throughput.
  const double util =
      loop.sw_prefetch ? cfg_.mem_bw_utilization_prefetch : cfg_.mem_bw_utilization;
  const double flop_t = stats.flops / cfg_.core_flops;
  const double mem_t = static_cast<double>(stats.mem_read_bytes + stats.mem_write_bytes) /
                       (cfg_.mem_bw_bytes_per_sec * util);
  const double touch_t = static_cast<double>(stats.line_touches) * cfg_.l3_hit_ns * 1e-9;
  stats.time_ns = std::max({flop_t, mem_t, touch_t}) * 1e9;

  if (deferred_time_) {
    pending_ns_ += stats.time_ns;
  } else {
    clock_.advance(stats.time_ns);
    noise_.advance(stats.time_ns);
  }

  counters_.flops += static_cast<std::uint64_t>(stats.flops);
  counters_.line_touches += stats.line_touches;
  counters_.l3_hits += stats.l3_hits;
  counters_.victim_hits += stats.victim_hits;
  counters_.seq_line_touches += stats.seq_line_touches;
  counters_.strided_line_touches += stats.strided_line_touches;
  counters_.busy_ns += stats.time_ns;
  return stats;
}

void AccessEngine::load(std::uint64_t addr, std::uint32_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = line_of(addr);
  const std::uint64_t last = line_of(addr + bytes - 1);
  spe::CoreSampler* const spe = spe::kEnabled ? spe_ : nullptr;
  const std::uint64_t spe_t_ns = spe != nullptr ? spe_time_ns() : 0;
  L3Fabric::StripeHandle stripe = l3_.hold(core_);
  for (std::uint64_t line = first; line <= last; ++line) {
    const L3Fabric::Source src = stripe.load(line);
    account(scalar_stats_, src);
    ++scalar_stats_.line_touches;
    if constexpr (spe::kEnabled) {
      if (spe != nullptr) {
        spe->on_access(std::max(addr, bytes_of(line)),
                       spe::AccessKind::Load, spe_level(src), 0, spe_t_ns);
      }
    }
  }
  scalar_stats_.mem_read_bytes += bytes_of(stripe.lines(MemDir::Read));
}

void AccessEngine::store(std::uint64_t addr, std::uint32_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = line_of(addr);
  const std::uint64_t last = line_of(addr + bytes - 1);
  spe::CoreSampler* const spe = spe::kEnabled ? spe_ : nullptr;
  const std::uint64_t spe_t_ns = spe != nullptr ? spe_time_ns() : 0;
  L3Fabric::StripeHandle stripe = l3_.hold(core_);
  for (std::uint64_t line = first; line <= last; ++line) {
    const L3Fabric::Source src = stripe.store(line);
    account(scalar_stats_, src);
    ++scalar_stats_.line_touches;
    ++scalar_stats_.allocated_store_lines;
    if constexpr (spe::kEnabled) {
      if (spe != nullptr) {
        spe->on_access(std::max(addr, bytes_of(line)),
                       spe::AccessKind::Store, spe_level(src), 0, spe_t_ns);
      }
    }
  }
  scalar_stats_.mem_read_bytes += bytes_of(stripe.lines(MemDir::Read));
  scalar_stats_.mem_write_bytes += bytes_of(stripe.lines(MemDir::Write));
}

void AccessEngine::prefetch(std::uint64_t addr) {
  account(scalar_stats_, l3_.prefetch_line(core_, line_of(addr)));
  ++scalar_stats_.line_touches;
}

LoopStats AccessEngine::take_scalar_stats() {
  LoopStats out = scalar_stats_;
  const double mem_t =
      static_cast<double>(out.mem_read_bytes + out.mem_write_bytes) /
      (cfg_.mem_bw_bytes_per_sec * cfg_.mem_bw_utilization);
  const double touch_t = static_cast<double>(out.line_touches) * cfg_.l3_hit_ns * 1e-9;
  out.time_ns = std::max(mem_t, touch_t) * 1e9;
  scalar_stats_ = LoopStats{};

  // In normal mode the *caller* spends this time (kernels call
  // Machine::advance with it); when deferred it joins the engine's pending
  // time so the replay driver can max-merge it with the loop time.
  if (deferred_time_) pending_ns_ += out.time_ns;

  counters_.line_touches += out.line_touches;
  counters_.l3_hits += out.l3_hits;
  counters_.victim_hits += out.victim_hits;
  counters_.busy_ns += out.time_ns;
  return out;
}

}  // namespace papisim::sim
