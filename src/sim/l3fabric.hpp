// Sliced L3 with lateral cast-out (POWER9 behaviour).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/memctrl.hpp"

namespace papisim::sim {

/// One socket's L3: a 5 MB slice per core, plus a "victim store" that models
/// lateral cast-out into *idle* cores' slices.
///
/// Mechanism (DESIGN.md §3):
///  * A core's accesses allocate only in its own slice.
///  * Capacity victims of the slice are cast out laterally into the victim
///    store, whose capacity is (idle cores) x slice size, fair-shared across
///    the active cores.  A later miss may recover the line from there
///    (probabilistically, deterministic per-line) without any memory traffic.
///  * When every core is active the victim store has zero capacity, so each
///    core is limited to its hard 5 MB share.
///
/// This is what makes the single-threaded GEMM degrade *gradually* past the
/// 5 MB footprint while the fully-batched GEMM jumps sharply (paper Figs 2-4).
///
/// Hit path and memory miss inline (DESIGN.md §3b): access_line() and the
/// StripeHandle accessors are defined in this header and CacheLevel::access()
/// in its own, so a slice hit -- nearly every GEMM touch -- runs from the
/// replay loop to the tag compare with no function call.  So does a slice
/// miss when the core's victim store has no capacity (every core active, or
/// lateral cast-out off): the dirty victim's write and the line's read are
/// counted inline.  Only a miss with a victim store leaves the inline path,
/// once, for slice_miss(): the lateral cast-out of the slice's victim, the
/// victim-store recovery and its retention draw, the memory-line count.
///
/// Threading model (DESIGN.md §3b): all per-core mutable state (the slice,
/// the core's victim-store partition, the retention-event sequence, the
/// memory lines of the current hold) lives in one *stripe* guarded by one
/// mutex, so concurrent replay workers driving different cores never contend
/// and workers hammering the same core serialize correctly.  Accesses run
/// through a StripeHandle, which holds one stripe for its lifetime: a loop
/// replay (or one scalar access) takes its core's stripe once and counts its
/// memory lines per channel in the stripe; releasing the handle publishes
/// them to the MemController, one add_lines() per touched channel and
/// direction.  The per-line path does no atomic read-modify-write, and the
/// controller's counters are exact whenever no handle is held.  No function
/// ever holds two stripe locks, so the locking order "stripe mutex ->
/// memctrl atomics" is trivially deadlock-free.  Victim counters are
/// per-stripe, written only under the stripe lock and summed on read.
/// set_active_cores()/flush_*() take the stripe locks one at a time and may
/// run concurrently with accesses, but reconfiguring while a replay is in
/// flight is a modelling error (the capacity change would apply
/// mid-kernel).  Every stripe acquisition is counted by selfmon
/// (l3.stripe_acquisitions, and l3.stripe_contention for those that found
/// the stripe already held), so replay-pool contention on shared cores is
/// observable through the selfmon component.
class L3Fabric {
  struct Stripe;

 public:
  L3Fabric(const MachineConfig& cfg, MemController& mem);

  /// Declare how many cores on this socket are running workloads.  Resets
  /// every core's victim-store partition to (idle cores / active cores)
  /// slices of capacity.
  void set_active_cores(std::uint32_t n);
  std::uint32_t active_cores() const { return active_cores_; }

  enum class Source : std::uint8_t { L3Hit, VictimHit, Memory };

  /// Exclusive hold on one core's stripe, released on destruction.  Its
  /// accesses take no further lock.  A thread holds at most one handle at a
  /// time (never two stripes at once).  Memory lines the accesses cause are
  /// counted in the stripe and published to the MemController once, when
  /// the handle is destroyed.
  class StripeHandle {
   public:
    StripeHandle(const StripeHandle&) = delete;
    StripeHandle& operator=(const StripeHandle&) = delete;
    /// Publishes before lock_ is released, so the next holder starts from
    /// zero.  Not movable, so exactly one destructor publishes a hold.
    ~StripeHandle() {
      if (stripe_->touched != 0) fabric_->publish(*stripe_);
    }

    /// Demand load of `line`.  Memory reads and any eviction writebacks are
    /// counted against the hold.
    Source load(std::uint64_t line) {
      return fabric_->access_line(*stripe_, line, /*make_dirty=*/false);
    }

    /// Store with write-allocate: a miss reads the line from memory first
    /// (the paper's "read incurred by the hardware when writing").
    Source store(std::uint64_t line) {
      return fabric_->access_line(*stripe_, line, /*make_dirty=*/true);
    }

    /// dcbtst-style software prefetch: fetch into the slice (clean),
    /// reading from memory on a miss.  Returns where the line came from.
    Source prefetch(std::uint64_t line) { return load(line); }

    /// Streaming store that bypasses the cache: one full-line memory write.
    void write_through(std::uint64_t line) {
      fabric_->count_line(*stripe_, line, MemDir::Write);
    }

    /// The slice's tag-state epoch and hit count (CacheLevel::epoch/hits).
    std::uint64_t slice_epoch() const { return stripe_->slice.epoch(); }
    std::uint64_t slice_hits() const { return stripe_->slice.hits(); }
    /// Count `n` slice hits of a repeated all-hit pass that was not replayed
    /// (AccessEngine's repeat memo, DESIGN.md §3b).
    void repeat_hits(std::uint64_t n) { stripe_->slice.count_hits(n); }

    /// Memory lines this hold has caused so far in direction `dir`.
    std::uint64_t lines(MemDir dir) const {
      std::uint64_t n = 0;
      for (std::uint64_t m = stripe_->touched; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        if ((i & 1) == static_cast<int>(dir)) n += stripe_->lines[i];
      }
      return n;
    }

   private:
    friend class L3Fabric;
    StripeHandle(L3Fabric& fabric, Stripe& stripe);

    L3Fabric* fabric_;
    Stripe* stripe_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Take `core`'s stripe, waiting while another thread holds it.
  StripeHandle hold(std::uint32_t core) {
    return StripeHandle(*this, *stripes_[core]);
  }

  /// Single accesses, each holding the stripe for one line.
  Source load_line(std::uint32_t core, std::uint64_t line) {
    return hold(core).load(line);
  }
  Source store_line(std::uint32_t core, std::uint64_t line) {
    return hold(core).store(line);
  }
  Source prefetch_line(std::uint32_t core, std::uint64_t line) {
    return hold(core).prefetch(line);
  }

  /// Write back and drop every line held in `core`'s slice (its victim
  /// partition is drained by flush_all()).
  void flush_core(std::uint32_t core);

  /// Write back and drop everything including the victim partitions.
  void flush_all();

  /// Direct slice access for tests/inspection (unsynchronized: do not call
  /// while replay workers are driving this core).
  CacheLevel& slice(std::uint32_t core) { return stripes_[core]->slice; }
  const CacheLevel& victim_store(std::uint32_t core = 0) const {
    return stripes_[core]->victim;
  }

  /// Lateral cast-outs recovered without memory traffic, across all cores.
  std::uint64_t victim_recoveries() const;
  /// Victim-store hits lost to the retention draw, across all cores.
  std::uint64_t victim_retention_misses() const;

  /// Total slice-level lookups (hits + misses) across all cores, for the
  /// concurrency-stress conservation check.  Unsynchronized snapshot.
  std::uint64_t total_slice_lookups() const;

 private:
  /// Most memory channels a socket may have: a stripe marks the channel and
  /// direction pairs its hold has touched in one 64-bit mask.
  static constexpr std::uint32_t kMaxChannels = 32;

  /// Per-core stripe: everything one core's accesses mutate, under one lock.
  /// Cache-line aligned with the caches held inline, so two cores' per-access
  /// writes (hit/miss counts, retention events, line counts) never share a
  /// cache line.
  struct alignas(64) Stripe {
    Stripe(CacheLevel slice_cache, CacheLevel victim_cache)
        : slice(std::move(slice_cache)), victim(std::move(victim_cache)) {}
    std::mutex mu;
    CacheLevel slice;
    CacheLevel victim;  ///< this core's lateral-cast-out share
    std::uint64_t retention_events = 0;  ///< per-core: order-independent across cores
    /// Written under `mu` only (selfmon::detail::owner_add), read any time.
    std::atomic<std::uint64_t> victim_recoveries{0};
    std::atomic<std::uint64_t> victim_retention_misses{0};
    /// Memory lines of the current hold, indexed channel * 2 + direction;
    /// `touched` has bit i set iff lines[i] != 0.  Published and cleared
    /// when the hold ends.
    std::uint64_t touched = 0;
    std::uint64_t lines[2 * kMaxChannels] = {};
  };
  /// Lock a stripe, counting the acquisition (and, if the stripe was
  /// already held, the contention) in selfmon.
  static std::unique_lock<std::mutex> lock_stripe(Stripe& stripe);

  /// One access; the caller holds `stripe`.  A slice hit returns inline,
  /// and so does a miss with no victim store to cast out to or recover
  /// from; everything else is in slice_miss().
  Source access_line(Stripe& stripe, std::uint64_t line, bool make_dirty) {
    const CacheLevel::Result r = stripe.slice.access(line, make_dirty);
    if (r.hit) return Source::L3Hit;
    if (stripe.victim.capacity_lines() != 0) return slice_miss(stripe, line, r);
    if (r.victim_dirty) count_line(stripe, r.victim_line, MemDir::Write);
    count_line(stripe, line, MemDir::Read);
    return Source::Memory;
  }
  /// The slice missed on `line` and filled it, displacing `r`'s victim (if
  /// any), and the stripe has a victim store: cast that victim out into it,
  /// then recover `line` from it or read `line` from memory.
  Source slice_miss(Stripe& stripe, std::uint64_t line, const CacheLevel::Result& r);
  bool retained(Stripe& stripe, std::uint64_t line);

  /// Count one memory line against the current hold of `stripe`.
  void count_line(Stripe& stripe, std::uint64_t line, MemDir dir) {
    const std::uint32_t i = mem_.channel_of(line) * 2 + static_cast<std::uint32_t>(dir);
    ++stripe.lines[i];
    stripe.touched |= std::uint64_t{1} << i;
  }
  /// Publish the hold's line counts to the MemController and clear them.
  void publish(Stripe& stripe);

  const MachineConfig& cfg_;
  MemController& mem_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::uint32_t active_cores_ = 1;
  std::uint64_t retention_threshold_;  ///< hash cutoff for deterministic retention
};

}  // namespace papisim::sim
