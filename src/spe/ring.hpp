// Precise-event sampling core (SPE-style, DESIGN.md §3g).
//
// Aggregate nest counters say *how much* traffic flowed; they cannot say
// *which addresses* caused it.  This header is the per-access measurement
// modality that closes that gap: every replayed cache-line touch passes
// through a per-core CoreSampler that records 1-in-N accesses -- address,
// R/W, level-of-hit, modeled latency, stride context, virtual timestamp --
// into a bounded lock-free single-producer/single-consumer ring.
//
// Contracts:
//  * Determinism: the sampling decision depends only on (seed, core,
//    sample ordinal) via the same splitmix-style hash the cast-out retention
//    model uses, never on host timing.  One simulated core is driven by one
//    host thread at a time (the AccessEngine contract), so each core's
//    sample sequence -- and therefore the merged per-core-ordered stream --
//    is bit-identical across host thread counts and across serial vs
//    parallel replay.
//  * Backpressure is explicit: a full ring NEVER blocks the replay hot path
//    and never overwrites; the sample is dropped and counted (drops_ and
//    selfmon spe.drops).  With drains at deterministic points (between
//    replay batches), the dropped set is deterministic too.
//  * Single-writer counters reuse the selfmon owner-add discipline
//    (selfmon::detail::owner_add): the owning replay thread is the only
//    writer, readers merge on read with relaxed loads.
//  * Compile-out: -DPAPISIM_SPE=OFF turns every hook into dead code behind
//    `if constexpr (spe::kEnabled)`; the component registers as disabled,
//    mirroring PAPISIM_SELFMON=OFF.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "selfmon/metrics.hpp"
#include "sim/rng.hpp"

#ifndef PAPISIM_SPE_ENABLED
#define PAPISIM_SPE_ENABLED 1
#endif

namespace papisim::spe {

inline constexpr bool kEnabled = PAPISIM_SPE_ENABLED != 0;

enum class AccessKind : std::uint8_t { Load, Store };

/// Where the sampled access was satisfied.  Bypass marks streaming stores
/// that skipped the cache entirely (full-line write straight to memory).
enum class HitLevel : std::uint8_t { L3Hit, VictimHit, Memory, Bypass };

inline constexpr std::size_t kNumHitLevels = 4;

inline const char* to_string(HitLevel level) {
  switch (level) {
    case HitLevel::L3Hit: return "l3_hit";
    case HitLevel::VictimHit: return "victim_hit";
    case HitLevel::Memory: return "memory";
    case HitLevel::Bypass: return "bypass";
  }
  return "?";
}

/// One recorded access.  32 bytes; the stream is the ground truth the
/// hot-footprint report aggregates, so the full byte address is kept.
struct Sample {
  std::uint64_t addr = 0;        ///< byte address of the sampled access
  std::uint64_t time_ns = 0;     ///< virtual time (SimClock + deferred core time)
  std::int64_t stride = 0;       ///< affine stride of the stream (0 for scalar)
  float latency_ns = 0.0f;       ///< modeled completion latency for the hit level
  std::uint16_t core = 0;        ///< global core id (socket * cores_per_socket + core)
  AccessKind kind = AccessKind::Load;
  HitLevel level = HitLevel::Memory;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Sampling-policy and sizing knobs.
struct SpeConfig {
  /// Mean accesses per sample (the "1-in-N").  Clamped to >= 1.
  std::uint64_t period = 1024;
  /// Seeds the per-core gap sequence; same seed => same sample stream.
  std::uint64_t seed = 0x5be5a3b1ed5c01ceULL;
  /// Jitter each inter-sample gap uniformly over [period/2, 3*period/2)
  /// (deterministically, from the seed) so periodic access patterns cannot
  /// alias with the sampling period.  Off = fixed gap of exactly `period`.
  bool jitter = true;
  /// Per-core ring capacity in samples (rounded up to a power of two).
  std::size_t ring_capacity = 1u << 16;

  // Coarse per-level completion-latency model (observability payload only;
  // the virtual-time model is unchanged).  POWER9-flavoured defaults.
  float l3_hit_latency_ns = 12.0f;
  float victim_hit_latency_ns = 28.0f;
  float memory_latency_ns = 140.0f;
  float bypass_latency_ns = 8.0f;
};

/// Bounded lock-free SPSC ring of samples.  The producer is the one host
/// thread driving the owning core's AccessEngine; the consumer is whoever
/// drains (SpeComponent reads / SpeCollector::drain).  try_push never
/// blocks and never overwrites: a full ring rejects the sample so the
/// caller can count the drop.
class SampleRing {
 public:
  explicit SampleRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer-only.  False (and no write) when the ring is full.
  bool try_push(const Sample& s) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= slots_.size()) return false;
    slots_[head & mask_] = s;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-only.  Appends everything currently published, in FIFO order
  /// (wraparound preserved), and frees the slots.  Returns the count.
  /// `out` grows geometrically (no exact reserve), so many small drains into
  /// one vector stay linear overall.
  std::size_t pop_all(std::vector<Sample>& out) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    for (; tail != head; ++tail) out.push_back(slots_[tail & mask_]);
    tail_.store(tail, std::memory_order_release);
    return n;
  }

  /// Published-but-unconsumed count (racy snapshot; exact when quiescent).
  std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_relaxed) -
                                    tail_.load(std::memory_order_relaxed));
  }

 private:
  std::vector<Sample> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

/// Per-core sampling state: the countdown, the seeded gap sequence, the
/// ring, and the owner-written totals.  One CoreSampler belongs to exactly
/// one simulated core; the thread driving that core's AccessEngine is the
/// only writer (same single-writer discipline as a selfmon ThreadBlock).
class CoreSampler {
 public:
  CoreSampler(std::uint16_t core, const SpeConfig& cfg)
      : core_(core),
        period_(cfg.period < 1 ? 1 : cfg.period),
        seed_(cfg.seed),
        jitter_(cfg.jitter),
        ring_(cfg.ring_capacity),
        latency_{cfg.l3_hit_latency_ns, cfg.victim_hit_latency_ns,
                 cfg.memory_latency_ns, cfg.bypass_latency_ns} {
    cursor_.countdown = gap_for(0);
  }

  std::uint16_t core() const { return core_; }
  std::uint64_t period() const { return period_; }

  /// Replay hot-path hook: count the access, record it if the countdown
  /// fires.  Cost off the sampling tick: two owner-add movs + a decrement.
  void on_access(std::uint64_t addr, AccessKind kind, HitLevel level,
                 std::int64_t stride, std::uint64_t time_ns) {
    selfmon::detail::owner_add(accesses_, 1);
    if (step(cursor_)) record(addr, kind, level, stride, time_ns);
  }

  /// Where the gap sequence stands: accesses left until the next sample,
  /// and the samples scheduled so far.
  struct Cursor {
    std::uint64_t countdown = 1;
    std::uint64_t ordinal = 0;
  };
  Cursor cursor() const { return cursor_; }

  /// Count one access against `c`; true when that access is sampled.  The
  /// gaps are a pure function of (seed, core, ordinal), so any thread may
  /// step a copy of cursor() to learn which of the coming accesses
  /// on_access() would record (the set-sharded replay, DESIGN.md §3b).
  bool step(Cursor& c) const {
    if (--c.countdown != 0) return false;
    c.countdown = gap_for(++c.ordinal);
    return true;
  }

  /// Record one sample: on_access() does when its countdown fires, and the
  /// set-sharded replay does, in access order, for each access a stepped
  /// copy of cursor() chose.
  void record(std::uint64_t addr, AccessKind kind, HitLevel level,
              std::int64_t stride, std::uint64_t time_ns) {
    Sample s;
    s.addr = addr;
    s.time_ns = time_ns;
    s.stride = stride;
    s.latency_ns = latency_[static_cast<std::size_t>(level)];
    s.core = core_;
    s.kind = kind;
    s.level = level;
    if (ring_.try_push(s)) {
      selfmon::detail::owner_add(samples_, 1);
      selfmon::counter_add(selfmon::CounterId::SpeSamples);
    } else {
      selfmon::detail::owner_add(drops_, 1);
      selfmon::counter_add(selfmon::CounterId::SpeDrops);
    }
  }
  /// Count `accesses` that a copy of cursor() was stepped over, and adopt
  /// that copy: the sampler then stands where on_access() of each of them
  /// would have left it.
  void advance(std::uint64_t accesses, const Cursor& c) {
    selfmon::detail::owner_add(accesses_, accesses);
    cursor_ = c;
  }

  /// Change the sampling period and deterministically restart the gap
  /// sequence.  Callers must quiesce the producing thread first (same
  /// contract as L3Fabric::set_active_cores).
  void set_period(std::uint64_t period) {
    period_ = period < 1 ? 1 : period;
    cursor_ = Cursor{gap_for(0), 0};
  }

  /// Consumer-side drain; see SampleRing::pop_all.
  std::size_t drain(std::vector<Sample>& out) { return ring_.pop_all(out); }

  std::uint64_t samples() const { return accesses_rel(samples_); }
  std::uint64_t drops() const { return accesses_rel(drops_); }
  std::uint64_t accesses() const { return accesses_rel(accesses_); }

  SampleRing& ring() { return ring_; }

 private:
  static std::uint64_t accesses_rel(const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  }

  /// Gap before sample `ordinal` (>= 1).  Pure function of (seed, core,
  /// ordinal): uniform in [period - period/2, period + ceil(period/2)) when
  /// jittered, exactly `period` otherwise.
  std::uint64_t gap_for(std::uint64_t ordinal) const {
    if (!jitter_ || period_ <= 1) return period_;
    const std::uint64_t h = sim::hash64(
        seed_ ^ (static_cast<std::uint64_t>(core_) * 0x9e3779b97f4a7c15ULL) ^
        ordinal);
    return period_ - period_ / 2 + h % period_;
  }

  std::uint16_t core_;
  std::uint64_t period_;
  std::uint64_t seed_;
  bool jitter_;
  Cursor cursor_;
  SampleRing ring_;
  float latency_[kNumHitLevels];
  // Owner-written (replay thread), merged on read: same discipline as
  // selfmon's per-thread blocks, but keyed by core instead of thread.
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> accesses_{0};
};

}  // namespace papisim::spe
