#include "sim/access_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <stdexcept>
#include <thread>

#include "sim/thread_pool.hpp"

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

spe::AccessKind spe_kind(AccessKind kind) {
  return kind == AccessKind::Load ? spe::AccessKind::Load : spe::AccessKind::Store;
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

std::uint64_t address_of(const StreamDesc& sd, std::uint64_t iter) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(sd.base) +
                                    static_cast<std::int64_t>(iter) * sd.stride);
}

/// A stream whose line-delta is a constant of >= 2 lines (a stride that is
/// a multiple of the line size and at least two lines): StreamDetector's
/// Stride-N.
bool strided_capable(const StreamDesc& sd, std::int64_t line) {
  const std::int64_t abs_stride = sd.stride < 0 ? -sd.stride : sd.stride;
  return abs_stride >= 2 * line && abs_stride % line == 0;
}

/// What a line touch does, decided before any outcome is known.
enum class TouchOp : std::uint8_t { Load, PrefetchStore, Bypass, Store };

/// The touch walk: every line touch of `loop` (non-empty, at most 16
/// streams), in replay order, handed to `touch(sd, addr, line, op)`.  The
/// walk counts what no outcome decides -- line_touches, allocated and
/// bypassed store lines, and `stream_touches` per stream -- and `touch`
/// performs the access.  execute() and each host thread of a sharded batch
/// walk with it (DESIGN.md §3b).
template <class Touch>
void walk_touches(const MachineConfig& cfg, std::uint32_t line_shift,
                  const LoopDesc& loop, LoopStats& stats,
                  std::uint64_t* stream_touches, Touch&& touch) {
  const std::size_t n = loop.streams.size();
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
  // per-touch StreamDetector outcome is known in advance -- a
  // strided_capable() stream is flagged "strided" after
  // stream_detect_threshold deltas, i.e. from its (threshold+1)-th touch on.
  // This is bit-exact with StreamDetector (verified by tests) and removes
  // the detector from the hot loop.
  bool strided[16];
  std::uint64_t touch_count[16];
  std::uint32_t strided_active = 0;
  const std::int64_t line = cfg.line_bytes;
  for (std::size_t k = 0; k < n; ++k) {
    const StreamDesc& sd = loop.streams[k];
    bypass_ok[k] = cfg.store_bypass && !loop.sw_prefetch &&
                   sd.kind == AccessKind::Store &&
                   sd.stride == static_cast<std::int64_t>(sd.elem_bytes) &&
                   loads_per_store <= cfg.bypass_max_loads_per_store;
    const std::int64_t abs_stride = sd.stride < 0 ? -sd.stride : sd.stride;
    strided[k] = strided_capable(sd, line);
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

  // Per-stream replay cursors: the iteration of the next new-line touch.
  std::uint64_t next_iter[16];
  for (std::size_t k = 0; k < n; ++k) next_iter[k] = 0;
  const std::uint64_t strided_from = std::uint64_t{cfg.stream_detect_threshold} + 1;

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
    const std::uint64_t addr = address_of(sd, imin);
    const std::uint64_t touched_line = addr >> line_shift;

    if (strided[k] && ++touch_count[k] == strided_from) {
      ++strided_active;
    }
    ++stats.line_touches;
    ++stream_touches[k];

    TouchOp op = TouchOp::Load;
    if (sd.kind == AccessKind::Load) {
    } else if (loop.sw_prefetch) {
      op = TouchOp::PrefetchStore;
      ++stats.allocated_store_lines;
    } else if (bypass_ok[k] && strided_active == 0) {
      op = TouchOp::Bypass;
      ++stats.bypassed_store_lines;
    } else {
      op = TouchOp::Store;
      ++stats.allocated_store_lines;
    }
    touch(sd, addr, touched_line, op);

    switch (stride_mode[k]) {
      case kEveryIter:
        next_iter[k] = imin + 1;
        break;
      case kShift: {
        // Iterations until the next line boundary: ceil(remaining / stride).
        const std::uint64_t remaining = ((touched_line + 1) << line_shift) - addr;
        next_iter[k] =
            imin + ((remaining + (std::uint64_t{1} << stride_shift[k]) - 1) >>
                    stride_shift[k]);
        break;
      }
      default:
        next_iter[k] = next_line_iter(sd.base, sd.stride, imin, touched_line, line_shift);
    }
  }
}

/// How many line touches walk_touches() visits in `loop`: a stride of at
/// least a line touches a new line every iteration, a shorter one every line
/// between its first and last address, a zero stride one line.
std::uint64_t touches_of(const LoopDesc& loop, std::uint32_t line_shift) {
  if (loop.iterations == 0) return 0;
  std::uint64_t n = 0;
  for (const StreamDesc& sd : loop.streams) {
    const std::uint64_t abs_stride =
        static_cast<std::uint64_t>(sd.stride < 0 ? -sd.stride : sd.stride);
    if (sd.stride == 0) {
      n += 1;
    } else if (abs_stride >> line_shift != 0) {
      n += loop.iterations;
    } else {
      const std::uint64_t first = sd.base >> line_shift;
      const std::uint64_t last = address_of(sd, loop.iterations - 1) >> line_shift;
      n += (last > first ? last - first : first - last) + 1;
    }
  }
  return n;
}

/// Stride mix (StreamDetector taxonomy): a non-zero stride below two lines
/// advances line-by-line (sequential); strided_capable streams are Stride-N.
void stride_mix(const LoopDesc& loop, std::int64_t line,
                const std::uint64_t* stream_touches, LoopStats& stats) {
  for (std::size_t k = 0; k < loop.streams.size(); ++k) {
    const StreamDesc& sd = loop.streams[k];
    if (sd.stride == 0) continue;
    (strided_capable(sd, line) ? stats.strided_line_touches : stats.seq_line_touches) +=
        stream_touches[k];
  }
}

/// Perform a touch's `op` on `line` through `target` (a StripeHandle, or
/// one shard's view of it); returns where a demand access found the line
/// (Memory for a bypassed store, which account() then ignores).
template <class Target>
L3Fabric::Source perform(Target& target, TouchOp op, std::uint64_t line) {
  switch (op) {
    case TouchOp::Load:
      return target.load(line);
    case TouchOp::PrefetchStore: {
      // dcbtst: prefetch the target line into L3, then the store hits it.
      // The sample's hit level reports where the prefetch found the line.
      const L3Fabric::Source src = target.prefetch(line);
      target.store(line);
      return src;
    }
    case TouchOp::Bypass:
      // Streaming store: bypass the cache, write the full line to memory.
      target.write_through(line);
      return L3Fabric::Source::Memory;
    case TouchOp::Store:
      break;
  }
  return target.store(line);
}

/// One host thread's view of a sharded batch's stripe hold: the accesses of
/// its own slice set `set`, counted in its own Shard.
struct ShardTarget {
  const L3Fabric::StripeHandle& stripe;
  L3Fabric::Shard& shard;
  std::uint64_t set;

  L3Fabric::Source load(std::uint64_t line) {
    return stripe.shard_access(shard, set, line, /*make_dirty=*/false);
  }
  L3Fabric::Source prefetch(std::uint64_t line) { return load(line); }
  L3Fabric::Source store(std::uint64_t line) {
    return stripe.shard_access(shard, set, line, /*make_dirty=*/true);
  }
  void write_through(std::uint64_t line) { stripe.shard_write_through(shard, line); }
};

/// A sample a shard found among its own touches, recorded by the batch's
/// thread afterwards.
struct PendingSample {
  std::uint64_t addr;
  std::int64_t stride;
  std::uint32_t loop;
  spe::AccessKind kind;
  spe::HitLevel level;
};

/// Shard s's results in a set-sharded batch; a line of its own, so shards
/// never share one.
struct alignas(64) ShardTally {
  L3Fabric::Shard shard;
};

/// The set-sharded replay's host threads and scratch (DESIGN.md §3b): one
/// per process, shared by every engine, one batch at a time (claim()).
/// The pool, shard_threads() - 1 workers plus the submitting thread, starts
/// with the first sharded batch.  The scratch grows only on the submitting
/// thread, so no shard allocates.
struct ShardRunner {
  static constexpr std::uint32_t kMaxShards = 8;

  static ShardRunner& get() {
    static ShardRunner runner;
    return runner;
  }

  /// Take the runner for one batch; false while another batch has it.
  bool claim() { return !busy.exchange(true, std::memory_order_acquire); }
  void release() { busy.store(false, std::memory_order_release); }

  ThreadPool& pool() {
    static ThreadPool p(shards - 1);
    return p;
  }

  const std::uint32_t shards = std::clamp<std::uint32_t>(
      std::thread::hardware_concurrency(), 1, kMaxShards);
  std::atomic<bool> busy{false};
  /// Shard s's stats of loop i at [s * loops + i].
  std::vector<LoopStats> stats;
  std::vector<ShardTally> tallies;
  /// The batch's samples in access order; each is written by its owner.
  std::vector<PendingSample> samples;
};

}  // namespace

std::uint32_t AccessEngine::shard_threads() { return ShardRunner::get().shards; }

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

  std::uint64_t stream_touches[16] = {};  // per-stream totals for the stride mix
  // Precise-event sampling (DESIGN.md §3g): one timestamp per execute() --
  // samples are joined against phase boundaries, which are orders of
  // magnitude coarser than a loop replay.
  spe::CoreSampler* const spe = spe::kEnabled ? spe_ : nullptr;
  const std::uint64_t spe_t_ns = spe != nullptr ? spe_time_ns() : 0;

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
      walk_touches(cfg_, line_shift_, loop, stats, stream_touches,
                   [&](const StreamDesc& sd, std::uint64_t addr, std::uint64_t line,
                       TouchOp op) {
                     const L3Fabric::Source src = perform(stripe, op, line);
                     account(stats, src);
                     if constexpr (spe::kEnabled) {
                       if (spe != nullptr) {
                         spe->on_access(addr, spe_kind(sd.kind),
                                        op == TouchOp::Bypass ? spe::HitLevel::Bypass
                                                              : spe_level(src),
                                        sd.stride, spe_t_ns);
                       }
                     }
                   });
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

  stride_mix(loop, cfg_.line_bytes, stream_touches, stats);
  finish(loop, stats);
  return stats;
}

void AccessEngine::finish(const LoopDesc& loop, LoopStats& stats) {
  stats.flops = static_cast<double>(loop.iterations) * loop.flops_per_iter;

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
}

void AccessEngine::execute_all(std::span<const LoopDesc> loops, LoopStats& total) {
  if (replay_sharded(loops, total)) return;
  for (const LoopDesc& loop : loops) total += execute(loop);
}

bool AccessEngine::replay_sharded(std::span<const LoopDesc> loops, LoopStats& total) {
  ShardRunner& run = ShardRunner::get();
  const std::uint32_t shards = run.shards;
  // Unlocked reads: the capacities change only while no replay is in flight.
  if (shards < 2 || l3_.slice(core_).sets() == 0 ||
      l3_.victim_store(core_).capacity_lines() != 0) {
    return false;
  }
  std::uint64_t touches = 0;
  std::uint64_t replayed = 0;  // loops with a touch
  for (const LoopDesc& loop : loops) {
    if (loop.streams.size() > 16) return false;  // execute() throws at that loop
    const std::uint64_t t = touches_of(loop, line_shift_);
    touches += t;
    replayed += t != 0;
  }
  if (touches < kShardMinTouches || !run.claim()) return false;
  struct Release {
    ShardRunner& run;
    ~Release() { run.release(); }
  } release{run};

  spe::CoreSampler* const spe = spe::kEnabled ? spe_ : nullptr;
  const spe::CoreSampler::Cursor cursor0 = spe != nullptr ? spe->cursor()
                                                          : spe::CoreSampler::Cursor{};
  // Every sample gap is at least ceil(period / 2), so this bounds the
  // batch's samples.
  const std::uint64_t max_samples =
      spe != nullptr ? touches / (spe->period() - spe->period() / 2) + 1 : 0;
  const std::size_t nloops = loops.size();
  if (run.stats.size() < shards * nloops) run.stats.resize(shards * nloops);
  run.tallies.assign(shards, ShardTally{});
  if (run.samples.size() < max_samples) run.samples.resize(max_samples);
  spe::CoreSampler::Cursor cursor_end = cursor0;
  std::uint64_t sampled = 0;

  {
    L3Fabric::StripeHandle stripe = l3_.hold(core_);
    stripe.prepare_shards();
    const std::uint64_t sets = stripe.slice_sets();
    // Shard s owns the contiguous sets [sets * s / shards, sets * (s + 1) /
    // shards) and performs just the touches that map there; it walks every
    // touch, so it also knows which of them the sampler picks.
    auto shard_replay = [&](std::uint32_t s) {
      const std::uint64_t lo = sets * s / shards;
      const std::uint64_t width = sets * (s + 1) / shards - lo;
      L3Fabric::Shard& shard = run.tallies[s].shard;
      spe::CoreSampler::Cursor cursor = cursor0;
      std::uint64_t next_sample = 0;
      for (std::size_t i = 0; i < nloops; ++i) {
        const LoopDesc& loop = loops[i];
        if (loop.streams.empty() || loop.iterations == 0) continue;
        LoopStats stats;
        std::uint64_t stream_touches[16] = {};
        const std::uint64_t read0 = shard.lines(MemDir::Read);
        const std::uint64_t write0 = shard.lines(MemDir::Write);
        walk_touches(
            cfg_, line_shift_, loop, stats, stream_touches,
            [&](const StreamDesc& sd, std::uint64_t addr, std::uint64_t line, TouchOp op) {
              const std::uint64_t set = stripe.slice_set(line);
              const bool mine = set - lo < width;
              L3Fabric::Source src = L3Fabric::Source::Memory;
              if (mine) {
                ShardTarget target{stripe, shard, set};
                src = perform(target, op, line);
                account(stats, src);
              }
              if constexpr (spe::kEnabled) {
                if (spe != nullptr && spe->step(cursor)) {
                  if (mine) {
                    run.samples[next_sample] = PendingSample{
                        addr, sd.stride, static_cast<std::uint32_t>(i), spe_kind(sd.kind),
                        op == TouchOp::Bypass ? spe::HitLevel::Bypass : spe_level(src)};
                  }
                  ++next_sample;
                }
              }
            });
        stats.mem_read_bytes = bytes_of(shard.lines(MemDir::Read) - read0);
        stats.mem_write_bytes = bytes_of(shard.lines(MemDir::Write) - write0);
        stride_mix(loop, cfg_.line_bytes, stream_touches, stats);
        run.stats[s * nloops + i] = stats;
      }
      if (s == 0) {
        cursor_end = cursor;
        sampled = next_sample;
      }
    };
    run.pool().parallel_for(shards, std::ref(shard_replay));
    for (const ShardTally& t : run.tallies) stripe.merge(t.shard);
    stripe.count_acquisitions(replayed - 1);
  }  // the stripe is released here, publishing the batch's memory lines

  // Per loop, in order, what execute() does after its touch walk.  Shard 0
  // carries the counts no outcome decides; the outcomes add up over shards.
  std::uint64_t next_sample = 0;
  for (std::size_t i = 0; i < nloops; ++i) {
    const LoopDesc& loop = loops[i];
    if (loop.streams.empty() || loop.iterations == 0) continue;
    if constexpr (spe::kEnabled) {
      if (spe != nullptr) {
        const std::uint64_t t_ns = spe_time_ns();
        for (; next_sample < sampled && run.samples[next_sample].loop == i; ++next_sample) {
          const PendingSample& p = run.samples[next_sample];
          spe->record(p.addr, p.kind, p.level, p.stride, t_ns);
        }
      }
    }
    LoopStats stats = run.stats[i];
    for (std::uint32_t s = 1; s < shards; ++s) {
      const LoopStats& part = run.stats[s * nloops + i];
      stats.l3_hits += part.l3_hits;
      stats.victim_hits += part.victim_hits;
      stats.mem_read_bytes += part.mem_read_bytes;
      stats.mem_write_bytes += part.mem_write_bytes;
    }
    finish(loop, stats);
    total += stats;
    ++counters_.sharded_loops;
  }
  if (spe != nullptr) spe->advance(touches, cursor_end);
  memo_.valid = false;
  return true;
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
