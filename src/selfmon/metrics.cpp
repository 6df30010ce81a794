#include "selfmon/metrics.hpp"

#include <memory>
#include <mutex>
#include <vector>

namespace papisim::selfmon {

namespace {

constexpr MetricInfo kCounterInfo[kNumCounters] = {
    {"pool.batches", "parallel_for batches dispatched to the replay pool", "batches"},
    {"pool.claims", "batch indices claimed from the shared cursor", "claims"},
    {"pool.tasks", "pool tasks executed to completion", "tasks"},
    {"pool.exceptions_dropped",
     "task exceptions beyond the first per batch (dropped, not rethrown)", "exceptions"},
    {"l3.stripe_acquisitions",
     "L3 stripe mutex acquisitions (one per loop replay or scalar access)",
     "locks"},
    {"l3.stripe_contention",
     "stripe acquisitions that found the stripe already held", "locks"},
    {"pcp.requests_served", "requests completed by the PMCD service thread", "requests"},
    {"pcp.retries", "PMCD round-trip retries after a timeout or transient fault",
     "retries"},
    {"pcp.timeouts", "PMCD round-trip attempts that missed the client deadline",
     "timeouts"},
    {"pcp.faults_injected", "PMCD requests faulted by the active FaultPlan", "faults"},
    {"pcp.restarts", "crashed PMCD service threads revived by the supervisor",
     "restarts"},
    {"pcp.coalesced",
     "queued identical fetches resolved by another fetch's counter read",
     "requests"},
    {"pcp.cache_hits", "fetches served from the short-TTL reply cache", "requests"},
    {"pcp.cache_misses", "fetches that consulted the cache and read the PMU",
     "requests"},
    {"pcp.overload_shed",
     "requests rejected at admission by fair-share backpressure", "requests"},
    {"sampler.rows", "timeline rows recorded by Sampler::sample()", "rows"},
    {"runner.reps", "kernel repetitions executed by KernelRunner", "reps"},
    {"runner.reps_replayed",
     "repetitions fully replayed through the cache simulator", "reps"},
    {"runner.reps_extrapolated",
     "repetitions extrapolated from recorded per-channel traffic", "reps"},
    {"runner.resample_fallbacks",
     "sampled-replay signature divergences that forced full replay", "fallbacks"},
    {"spe.samples", "precise-event samples recorded into per-core SPE rings",
     "samples"},
    {"spe.drops",
     "precise-event samples dropped because a per-core SPE ring was full",
     "samples"},
    {"trace.spans", "causal spans recorded into per-thread trace rings",
     "spans"},
    {"trace.spans_dropped",
     "causal spans rejected because a trace ring was full", "spans"},
    {"trace.flight_dumps",
     "flight-recorder dumps written on crash/overload/deadline triggers",
     "dumps"},
};

constexpr MetricInfo kGaugeInfo[kNumGauges] = {
    {"pcp.queue_depth", "requests currently queued at the PMCD (all shards)",
     "requests"},
    {"pcp.coalesce_ratio_ppm",
     "coalesced fetches per million resolved fetches", "ppm"},
    {"pcp.cache_hit_ppm", "cache hits per million cache consultations", "ppm"},
};

constexpr MetricInfo kHistInfo[kNumHists] = {
    {"pool.dispatch_ns", "parallel_for latency, submit to join", "ns"},
    {"pool.queue_wait_ns", "worker idle wait between batches", "ns"},
    {"pcp.fetch_rtt_ns", "client-visible PMCD fetch round trip", "ns"},
    {"sampler.sample_ns", "one Sampler::sample() including all reads", "ns"},
    {"runner.rep_ns", "one kernel repetition, simulated or replayed", "ns"},
};

using detail::ThreadBlock;

void merge_block_into(const ThreadBlock& block, Snapshot& out) {
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    out.counters[c] += block.counters[c].load(std::memory_order_relaxed);
  }
  for (std::size_t h = 0; h < kNumHists; ++h) {
    HistSnapshot& hs = out.hists[h];
    hs.sum_ns += block.hists[h].sum_ns.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      const std::uint64_t n = block.hists[h].buckets[b].load(std::memory_order_relaxed);
      hs.buckets[b] += n;
      hs.count += n;
    }
  }
}

void zero_block(ThreadBlock& block) {
  for (auto& c : block.counters) c.store(0, std::memory_order_relaxed);
  for (auto& h : block.hists) {
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    h.sum_ns.store(0, std::memory_order_relaxed);
  }
}

/// Owns every thread block ever created.  Blocks of exited threads are
/// merged into `retired_` and recycled, so totals survive thread churn and
/// memory stays bounded by the peak live-thread count.
class Registry {
 public:
  ThreadBlock* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    ThreadBlock* block;
    if (!free_.empty()) {
      block = free_.back();
      free_.pop_back();
    } else {
      all_.push_back(std::make_unique<ThreadBlock>());
      block = all_.back().get();
    }
    return block;
  }

  void retire(ThreadBlock* block) {
    std::lock_guard<std::mutex> lock(mu_);
    merge_block_into(*block, retired_);
    zero_block(*block);
    free_.push_back(block);
  }

  Snapshot snapshot() {
    Snapshot out;
    std::lock_guard<std::mutex> lock(mu_);
    out = retired_;
    // Free blocks are zeroed, so summing every block ever allocated is the
    // same as summing the live ones.
    for (const auto& block : all_) merge_block_into(*block, out);
    for (std::size_t g = 0; g < kNumGauges; ++g) {
      out.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    retired_ = Snapshot{};
    for (const auto& block : all_) zero_block(*block);
    for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  }

  void gauge_add(GaugeId id, std::int64_t delta) {
    gauges_[idx(id)].fetch_add(delta, std::memory_order_relaxed);
  }

  void gauge_set(GaugeId id, std::int64_t value) {
    gauges_[idx(id)].store(value, std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBlock>> all_;
  std::vector<ThreadBlock*> free_;
  Snapshot retired_;  ///< merged totals of exited threads (gauges unused)
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges_{};
};

/// Deliberately leaked: thread_local destructors of late-exiting threads may
/// retire blocks after main() returns; a leaked singleton has no destruction
/// order to race with.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// Retires the thread's block when the thread exits.
struct BlockHandle {
  ThreadBlock* block = nullptr;
  ~BlockHandle() {
    if (block != nullptr) {
      registry().retire(block);
      detail::tls_block = nullptr;
    }
  }
};

thread_local BlockHandle t_handle;

}  // namespace

namespace detail {

constinit thread_local ThreadBlock* tls_block = nullptr;

ThreadBlock& acquire_block() {
  ThreadBlock* block = registry().acquire();
  t_handle.block = block;
  tls_block = block;
  return *block;
}

void gauge_add_impl(GaugeId id, std::int64_t delta) {
  registry().gauge_add(id, delta);
}

void gauge_set_impl(GaugeId id, std::int64_t value) {
  registry().gauge_set(id, value);
}

}  // namespace detail

const MetricInfo& counter_info(CounterId id) { return kCounterInfo[idx(id)]; }
const MetricInfo& gauge_info(GaugeId id) { return kGaugeInfo[idx(id)]; }
const MetricInfo& hist_info(HistId id) { return kHistInfo[idx(id)]; }

double HistSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; walk the cumulative distribution.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t prev = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) >= rank) {
      // Bucket b spans [2^(b-1), 2^b); bucket 0 is exactly {0}.
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(1ull << (b - 1));
      const double hi = lo * 2.0;
      const double frac =
          (rank - static_cast<double>(prev)) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * frac;
    }
  }
  return static_cast<double>(1ull << (kHistBuckets - 1));
}

HistSnapshot HistSnapshot::since(const HistSnapshot& earlier) const {
  HistSnapshot out;
  out.count = count - earlier.count;
  out.sum_ns = sum_ns - earlier.sum_ns;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    out.buckets[b] = buckets[b] - earlier.buckets[b];
  }
  return out;
}

Snapshot snapshot() { return registry().snapshot(); }

void reset_for_testing() { return registry().reset(); }

}  // namespace papisim::selfmon
