// Self-monitoring metrics registry: the simulator profiles the profiler.
//
// The paper's central concern is the cost and trustworthiness of *indirect*
// measurement (PCP's daemon round-trips vs direct privileged reads).  This
// registry gives the reproduction visibility into its own indirection costs:
// PMCD round-trip latency, replay-pool dispatch and queue-wait time, L3
// stripe-lock contention, sampler overhead.  The metrics are exposed through
// the ordinary multi-component API by SelfmonComponent, so the measurement
// pipeline can carry "profiling the profiler" columns next to pcp/nvml ones.
//
// Design (DESIGN.md "Observability / selfmon"):
//  * Fixed metric set (enums below): counters (monotonic), gauges
//    (instantaneous, e.g. PMCD queue depth) and latency histograms with
//    power-of-two nanosecond buckets.
//  * Writers are lock-free: each thread owns a ThreadBlock of relaxed
//    atomics, registered once on first use; the hot-path cost of one
//    counter_add is a TLS load plus a relaxed load+store pair (owner-only
//    writes need no atomic RMW, see detail::owner_add).
//  * Readers merge on read: snapshot() sums every thread's block (plus the
//    merged totals of exited threads) under the registry mutex.  Writers are
//    never blocked by readers.
//  * Wall-clock (std::chrono::steady_clock), NOT the virtual SimClock: these
//    are real host costs of the harness itself, the quantity the paper's
//    adaptive-repetition scheme (Eq. 5) exists to amortize.
//  * Compile-out: configure with -DPAPISIM_SELFMON=OFF and every recording
//    call becomes an empty inline function (kEnabled == false); snapshot()
//    then reports all zeros and SelfmonComponent registers as disabled.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string_view>

#ifndef PAPISIM_SELFMON_ENABLED
#define PAPISIM_SELFMON_ENABLED 1
#endif

namespace papisim::selfmon {

inline constexpr bool kEnabled = PAPISIM_SELFMON_ENABLED != 0;

/// Monotonic counters.  Order must match kCounterInfo in metrics.cpp.
enum class CounterId : std::uint16_t {
  PoolBatches,             ///< parallel_for batches dispatched
  PoolClaims,              ///< indices claimed from the shared batch cursor
  PoolTasks,               ///< tasks executed to completion
  PoolExceptionsDropped,   ///< task exceptions beyond the first (not rethrown)
  L3StripeAcquisitions,    ///< stripe mutex acquisitions
  L3StripeContention,      ///< contended acquisitions (exact count)
  PcpRequestsServed,       ///< requests the PMCD thread completed
  PcpRetries,              ///< round-trip retries after timeout or transient fault
  PcpTimeouts,             ///< round-trip attempts that missed the client deadline
  PcpFaultsInjected,       ///< requests faulted by the active FaultPlan
  PcpRestarts,             ///< crashed PMCD service threads revived by the supervisor
  PcpFetchesCoalesced,     ///< queued fetches resolved by another fetch's counter read
  PcpCacheHits,            ///< fetches served from the short-TTL reply cache
  PcpCacheMisses,          ///< fetches that consulted the cache and read the PMU
  PcpOverloadShed,         ///< requests rejected at admission (fair-share backpressure)
  SamplerRows,             ///< timeline rows recorded by Sampler::sample()
  RunnerReps,              ///< kernel repetitions executed (replayed or extrapolated)
  RunnerRepsReplayed,      ///< repetitions fully replayed through the simulator
  RunnerRepsExtrapolated,  ///< repetitions extrapolated from recorded traffic
  RunnerResampleFallbacks, ///< sampled-replay signature divergences (fallback to full)
  SpeSamples,              ///< precise-event samples recorded into per-core rings
  SpeDrops,                ///< SPE samples dropped by a full ring (backpressure)
  TraceSpans,              ///< causal spans recorded into per-thread trace rings
  TraceSpansDropped,       ///< spans rejected by a full trace ring (backpressure)
  TraceFlightDumps,        ///< flight-recorder dumps written (crash/overload/deadline)
  kCount,
};

/// Instantaneous gauges.  Order must match kGaugeInfo in metrics.cpp.
enum class GaugeId : std::uint16_t {
  PcpQueueDepth,         ///< requests currently queued at the PMCD (all shards)
  PcpCoalesceRatioPpm,   ///< coalesced fetches per million resolved fetches
  PcpCacheHitRatePpm,    ///< cache hits per million cache consultations
  kCount,
};

/// Latency histograms (nanoseconds).  Order must match kHistInfo.
enum class HistId : std::uint16_t {
  PoolDispatchNs,   ///< parallel_for call latency (submit to join)
  PoolQueueWaitNs,  ///< worker idle wait between batches
  PcpFetchRttNs,    ///< client-visible PMCD fetch round trip
  SamplerSampleNs,  ///< one Sampler::sample() (all event-set reads)
  RunnerRepNs,      ///< one kernel repetition (simulate or replay)
  kCount,
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(CounterId::kCount);
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(GaugeId::kCount);
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(HistId::kCount);

/// Bucket b holds samples with bit_width(ns) == b, i.e. [2^(b-1), 2^b);
/// bucket 0 holds ns == 0.  40 buckets cover up to ~9 minutes.
inline constexpr std::size_t kHistBuckets = 40;

constexpr std::size_t idx(CounterId id) { return static_cast<std::size_t>(id); }
constexpr std::size_t idx(GaugeId id) { return static_cast<std::size_t>(id); }
constexpr std::size_t idx(HistId id) { return static_cast<std::size_t>(id); }

struct MetricInfo {
  std::string_view name;         ///< dotted selfmon event name, e.g. "pool.tasks"
  std::string_view description;
  std::string_view units;
};

const MetricInfo& counter_info(CounterId id);
const MetricInfo& gauge_info(GaugeId id);
const MetricInfo& hist_info(HistId id);

/// A merged histogram as seen at one point in time.
struct HistSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  /// q in [0, 1]; linear interpolation inside the matched power-of-two
  /// bucket.  Returns 0 for an empty histogram.
  double percentile(double q) const;

  double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(count);
  }

  /// Bucket-wise difference against an earlier snapshot of the same
  /// histogram (the "since start()" window of SelfmonComponent).
  HistSnapshot since(const HistSnapshot& earlier) const;
};

/// Merged view of every metric (merge-on-read over all thread blocks).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::int64_t, kNumGauges> gauges{};
  std::array<HistSnapshot, kNumHists> hists{};

  std::uint64_t counter(CounterId id) const { return counters[idx(id)]; }
  std::int64_t gauge(GaugeId id) const { return gauges[idx(id)]; }
  const HistSnapshot& hist(HistId id) const { return hists[idx(id)]; }
};

namespace detail {

/// One thread's private slab of metrics.  Only the owning thread writes
/// (relaxed load+store, no RMW needed with a single writer); snapshot()
/// does relaxed loads from other threads, which is exactly what atomics
/// are for.
struct ThreadBlock {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  struct Hist {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<Hist, kNumHists> hists{};
};

/// constinit: every translation unit reads the variable directly instead of
/// through a thread-local init wrapper.
extern constinit thread_local ThreadBlock* tls_block;

/// Slow path: allocate (or reuse a retired) block and register it.
ThreadBlock& acquire_block();

inline ThreadBlock& local_block() {
  ThreadBlock* b = tls_block;
  return b != nullptr ? *b : acquire_block();
}

void gauge_add_impl(GaugeId id, std::int64_t delta);
void gauge_set_impl(GaugeId id, std::int64_t value);

}  // namespace detail

namespace detail {

/// Owner-only increment: the owning thread is the sole writer of its block,
/// so a relaxed load+store pair replaces the atomic RMW -- no locked
/// instruction on the hot path (snapshot() readers still see whole values).
inline void owner_add(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace detail

inline void counter_add(CounterId id, std::uint64_t n = 1) {
  if constexpr (kEnabled) {
    detail::owner_add(detail::local_block().counters[idx(id)], n);
  } else {
    (void)id;
    (void)n;
  }
}

inline void gauge_add(GaugeId id, std::int64_t delta) {
  if constexpr (kEnabled) {
    detail::gauge_add_impl(id, delta);
  } else {
    (void)id;
    (void)delta;
  }
}

inline void gauge_set(GaugeId id, std::int64_t value) {
  if constexpr (kEnabled) {
    detail::gauge_set_impl(id, value);
  } else {
    (void)id;
    (void)value;
  }
}

inline void hist_record_ns(HistId id, std::uint64_t ns) {
  if constexpr (kEnabled) {
    const std::size_t b =
        ns == 0 ? 0
                : std::min<std::size_t>(kHistBuckets - 1,
                                        static_cast<std::size_t>(std::bit_width(ns)));
    detail::ThreadBlock::Hist& h = detail::local_block().hists[idx(id)];
    detail::owner_add(h.buckets[b], 1);
    detail::owner_add(h.sum_ns, ns);
  } else {
    (void)id;
    (void)ns;
  }
}

using TimePoint = std::chrono::steady_clock::time_point;

/// steady_clock::now() when enabled, a zero-cost default otherwise.
inline TimePoint clock_now() {
  if constexpr (kEnabled) {
    return std::chrono::steady_clock::now();
  } else {
    return {};
  }
}

inline void hist_record_since(HistId id, TimePoint t0) {
  if constexpr (kEnabled) {
    const auto dt = std::chrono::steady_clock::now() - t0;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
    hist_record_ns(id, ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  } else {
    (void)id;
    (void)t0;
  }
}

/// RAII latency probe: records the scope's wall time into a histogram.
class Stopwatch {
 public:
  explicit Stopwatch(HistId id) : id_(id), t0_(clock_now()) {}
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;
  ~Stopwatch() { hist_record_since(id_, t0_); }

 private:
  HistId id_;
  TimePoint t0_;
};

/// Merge-on-read over every live and retired thread block.  Thread-safe;
/// concurrent writers keep writing (values are a consistent-enough relaxed
/// sum, monotone per counter across successive snapshots of a quiescent
/// writer set).
Snapshot snapshot();

/// Zero every metric.  Test-only: callers must guarantee no concurrent
/// writers (instrumented threads may be alive but must be idle).
void reset_for_testing();

}  // namespace papisim::selfmon
