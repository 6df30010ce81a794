// Execution-driven replay of kernel access streams at cache-line granularity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/clock.hpp"
#include "sim/config.hpp"
#include "sim/l3fabric.hpp"
#include "sim/memctrl.hpp"
#include "sim/noise.hpp"
#include "spe/ring.hpp"

namespace papisim::sim {

enum class AccessKind : std::uint8_t { Load, Store };

/// One affine access stream inside an innermost loop:
/// iteration i accesses [base + i*stride, base + i*stride + elem_bytes).
struct StreamDesc {
  std::uint64_t base = 0;
  std::int64_t stride = 0;    ///< bytes between consecutive iterations
  std::uint32_t elem_bytes = 8;
  AccessKind kind = AccessKind::Load;
};

/// An innermost loop: every stream is accessed once per iteration, in the
/// order given.  This is how kernels describe their real loop bodies to the
/// simulator (e.g. GEMV inner loop = {load A-row, load x}, N iterations).
struct LoopDesc {
  std::vector<StreamDesc> streams;
  std::uint64_t iterations = 0;
  double flops_per_iter = 0.0;
  /// Model of GCC -fprefetch-loop-arrays: issue dcbtst-style prefetches for
  /// store streams (forcing their lines into L3) and raise achieved memory
  /// bandwidth for the loop.
  bool sw_prefetch = false;
};

/// Traffic/time accounting for one replay.
struct LoopStats {
  std::uint64_t line_touches = 0;      ///< distinct line events processed
  std::uint64_t mem_read_bytes = 0;    ///< demand + allocate + prefetch reads
  std::uint64_t mem_write_bytes = 0;   ///< bypassed stores + eviction writebacks
  std::uint64_t l3_hits = 0;
  std::uint64_t victim_hits = 0;
  std::uint64_t bypassed_store_lines = 0;
  std::uint64_t allocated_store_lines = 0;
  /// Stride-mix split of line_touches, using the StreamDetector taxonomy
  /// (stream_detect.hpp): touches from streams advancing by exactly one line
  /// are sequential, touches from Stride-N streams (constant delta of >= 2
  /// lines) are strided.  Scalar accesses count as neither.  The split is
  /// the raw material of the sampled-replay window signature (DESIGN.md §3i).
  std::uint64_t seq_line_touches = 0;
  std::uint64_t strided_line_touches = 0;
  double time_ns = 0.0;
  double flops = 0.0;

  LoopStats& operator+=(const LoopStats& o);
};

/// Cumulative per-core activity counters (the CPU component's substrate).
struct CoreCounters {
  std::uint64_t flops = 0;         ///< floating-point operations retired
  std::uint64_t line_touches = 0;  ///< L3-level accesses
  std::uint64_t l3_hits = 0;
  std::uint64_t victim_hits = 0;
  std::uint64_t seq_line_touches = 0;      ///< stride-mix: one-line advances
  std::uint64_t strided_line_touches = 0;  ///< stride-mix: Stride-N streams
  /// execute() passes taken from the repeat memo instead of being replayed
  /// (their touches and hits are counted above like replayed ones).
  std::uint64_t repeated_loops = 0;
  /// Loops execute_all() replayed set-sharded across host threads.
  std::uint64_t sharded_loops = 0;
  double busy_ns = 0.0;            ///< time this core spent executing

  std::uint64_t l3_misses() const { return line_touches - l3_hits - victim_hits; }
  /// Synthetic instruction estimate: one fused op per flop plus the
  /// load/store/address work of each line touch.
  std::uint64_t instructions() const { return flops + 4 * line_touches; }
};

/// Per-core replay engine.  Applies the micro-architectural policies the
/// paper invokes (DESIGN.md §3):
///
///  * loads/stores walk the sliced L3 (write-back, write-allocate);
///  * a store stream bypasses the cache iff it is contiguous, the loop is
///    store-dense (<= bypass_max_loads_per_store load streams per store
///    stream), bypass is enabled, and no strided stream is detected;
///  * sw_prefetch forces store-stream lines to be *read* into L3 first;
///  * every memory transaction is 64 B and lands on an MBA channel.
///
/// A pass that provably repeats the previous one is not replayed (DESIGN.md
/// §3b): when a replay hit the slice on every access, counted no memory line
/// and bypassed no store, the engine remembers its loop and stats.  The next
/// execute() of the same loop on an unchanged slice (same CacheLevel::epoch)
/// reuses those stats -- replaying it would hit the same lines in the same
/// order and leave the slice as it was.  Everything after the touch loop
/// (stride mix, time model, clock, noise, counters) runs as for a replay.
/// Never while an SPE sampler is attached: it must see every touch.
///
/// The engine advances the virtual clock (and accrues measurement noise over
/// the elapsed time) after each replay -- unless deferred-time mode is on, in
/// which case elapsed time accumulates locally and the replay driver advances
/// the shared clock once (by the maximum across cores) after joining its
/// workers.  Deferral is what gives parallel replay the serial max-merge
/// timeline instead of summing concurrent cores' time.
///
/// Thread safety: one engine is single-threaded (one simulated core == one
/// driving thread); *different* engines may replay concurrently.  All traffic
/// an engine reports in LoopStats is counted by its own stripe hold
/// (L3Fabric::StripeHandle::lines), never by diffing the MemController's
/// global counters, so concurrent cores cannot leak into each other's
/// statistics.  Cache-line aligned: each core's engine writes its own
/// counters on every replay, and two engines must never share a line.
/// execute_all() may spread one engine's batch over the process's shard
/// threads; its caller is still the one driving thread.
class alignas(64) AccessEngine {
 public:
  /// Throws std::invalid_argument unless cfg.line_bytes is a power of two
  /// (line numbers are computed by shifting).
  AccessEngine(const MachineConfig& cfg, std::uint32_t core, L3Fabric& l3,
               SimClock& clock, NoiseModel& noise);

  /// Replay a full innermost-loop nest execution.
  LoopStats execute(const LoopDesc& loop);

  /// Replay `loops` in order, adding each one's stats to `total`.  Equal,
  /// bit for bit, to `for (const LoopDesc& l : loops) total += execute(l);`
  /// in every stat, counter, tag, channel count, clock and noise step and
  /// SPE sample it leaves; only the bookkeeping of how differs
  /// (repeated_loops, sharded_loops).  When the core has no victim store,
  /// every slice set is an independent LRU, so a batch of at least
  /// kShardMinTouches line touches is replayed set-sharded: each of
  /// shard_threads() host threads walks the whole batch and performs the
  /// touches of its own contiguous range of sets, and the outcomes, which
  /// are sums, are merged per loop (DESIGN.md §3b).  Otherwise -- a victim
  /// store, a small batch, or another thread's batch in flight -- it runs
  /// that loop.
  void execute_all(std::span<const LoopDesc> loops, LoopStats& total);

  /// Fewest line touches a batch needs to go set-sharded.
  static constexpr std::uint64_t kShardMinTouches = 1 << 14;
  /// Host threads a set-sharded batch runs on (1: execute_all never
  /// shards): the host's hardware threads, at most 8.
  static std::uint32_t shard_threads();

  /// Scalar accesses (used for sparse stores such as y[i]/C[i][j] and by
  /// tests).  Scalar stores never bypass: the hardware cannot prove density.
  /// A zero-byte access touches nothing.
  void load(std::uint64_t addr, std::uint32_t bytes);
  void store(std::uint64_t addr, std::uint32_t bytes);

  /// dcbtst analogue: prefetch the line holding `addr` into L3.
  void prefetch(std::uint64_t addr);

  /// Accumulated scalar-access traffic/time since the last call; scalar ops
  /// are cheap bookkeeping and do not advance the clock individually.
  LoopStats take_scalar_stats();

  std::uint32_t core() const { return core_; }

  /// Deferred-time mode: replay time accumulates in this engine instead of
  /// advancing the shared clock/noise.  Used by literal per-core replay so
  /// the driver can max-merge core times after the parallel join.
  void set_deferred_time(bool on) { deferred_time_ = on; }
  bool deferred_time() const { return deferred_time_; }

  /// Drain the time accumulated while deferred (ns since the last take).
  double take_deferred_time_ns() {
    const double t = pending_ns_;
    pending_ns_ = 0.0;
    return t;
  }

  /// Monotonic activity totals since construction.
  const CoreCounters& counters() const { return counters_; }

  /// Attach/detach a precise-event sampler (DESIGN.md §3g).  When attached,
  /// every demand line touch (loop replay and scalar accesses; software
  /// prefetches excluded) is offered to the sampler, which records 1-in-N of
  /// them.  Compiled out entirely under PAPISIM_SPE=OFF.  The sampler must
  /// outlive any replay that runs while attached; attach/detach only while
  /// this core is quiescent (same contract as set_deferred_time).
  void set_spe(spe::CoreSampler* sampler) { spe_ = sampler; }
  spe::CoreSampler* spe() const { return spe_; }

 private:
  /// A pass's key fixes its line-touch sequence: the trip count, the
  /// prefetch flag, the stream count and, per stream, this: its stride,
  /// element size, kind and start -- the start line when the stride is a
  /// whole number of lines (every touch then sits at a fixed line offset
  /// from it), else the exact base address.
  struct StreamKey {
    std::uint64_t start = 0;
    std::int64_t stride = 0;
    std::uint32_t elem_bytes = 0;
    AccessKind kind = AccessKind::Load;
    bool operator==(const StreamKey&) const = default;
  };
  /// The last all-hit pass and what it counted (see the class comment).
  struct RepeatMemo {
    bool valid = false;
    std::uint64_t slice_epoch = 0;  ///< the slice's epoch when the pass ended
    std::uint64_t iterations = 0;
    bool sw_prefetch = false;
    std::size_t streams = 0;
    StreamKey key[16];
    std::uint64_t line_touches = 0;
    std::uint64_t l3_hits = 0;
    std::uint64_t allocated_store_lines = 0;
    std::uint64_t slice_hits = 0;  ///< two per store touch under sw_prefetch
    std::uint64_t stream_touches[16] = {};
  };

  StreamKey key_of(const StreamDesc& sd) const;
  /// True when memo_ holds a pass of `loop` taken at this slice epoch.
  bool repeats(const LoopDesc& loop, std::uint64_t slice_epoch) const;

  /// What execute() does after its touch walk and stride mix: flops, the
  /// time model, the clock and noise (or deferred time), the counters.
  void finish(const LoopDesc& loop, LoopStats& stats);
  /// execute_all()'s set-sharded replay; false, having done nothing, when
  /// the batch must run loop by loop.
  bool replay_sharded(std::span<const LoopDesc> loops, LoopStats& total);

  std::uint64_t line_of(std::uint64_t addr) const { return addr >> line_shift_; }
  /// Bytes in `lines` lines, which is also the first address of line `lines`.
  std::uint64_t bytes_of(std::uint64_t lines) const { return lines << line_shift_; }
  static void account(LoopStats& s, L3Fabric::Source src);

  const MachineConfig& cfg_;
  std::uint32_t core_;
  /// log2(cfg_.line_bytes): line <-> address conversions shift, never divide.
  std::uint32_t line_shift_;
  L3Fabric& l3_;
  SimClock& clock_;
  NoiseModel& noise_;
  /// Virtual timestamp SPE samples carry: shared clock plus this core's
  /// deferred time -- a per-core-deterministic quantity under both serial
  /// and parallel replay (the driver advances the shared clock only at
  /// batch joins).
  std::uint64_t spe_time_ns() const {
    return static_cast<std::uint64_t>(clock_.now_ns() + pending_ns_);
  }

  LoopStats scalar_stats_;
  CoreCounters counters_;
  RepeatMemo memo_;
  spe::CoreSampler* spe_ = nullptr;
  bool deferred_time_ = false;
  double pending_ns_ = 0.0;
};

}  // namespace papisim::sim
