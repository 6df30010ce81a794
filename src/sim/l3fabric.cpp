#include "sim/l3fabric.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "selfmon/metrics.hpp"
#include "sim/rng.hpp"

namespace papisim::sim {

std::unique_lock<std::mutex> L3Fabric::lock_stripe(Stripe& stripe) {
  std::unique_lock<std::mutex> lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    selfmon::counter_add(selfmon::CounterId::L3StripeContention, 1);
  }
  selfmon::counter_add(selfmon::CounterId::L3StripeAcquisitions, 1);
  return lock;
}

L3Fabric::StripeHandle::StripeHandle(L3Fabric& fabric, Stripe& stripe)
    : fabric_(&fabric), stripe_(&stripe), lock_(lock_stripe(stripe)) {}

void L3Fabric::publish(Stripe& stripe) {
  for (std::uint64_t m = stripe.touched; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    mem_.add_lines(static_cast<std::uint32_t>(i / 2), static_cast<MemDir>(i & 1),
                   stripe.lines[i]);
    stripe.lines[i] = 0;
  }
  stripe.touched = 0;
}

L3Fabric::L3Fabric(const MachineConfig& cfg, MemController& mem)
    : cfg_(cfg), mem_(mem) {
  if (mem.channels() > kMaxChannels) {
    throw std::invalid_argument("L3Fabric: at most 32 memory channels");
  }
  stripes_.reserve(cfg.cores_per_socket);
  for (std::uint32_t c = 0; c < cfg.cores_per_socket; ++c) {
    stripes_.push_back(std::make_unique<Stripe>(
        CacheLevel(cfg.l3_slice_bytes, cfg.l3_associativity, cfg.line_bytes,
                   /*hashed_sets=*/true),
        CacheLevel(0, 8, cfg.line_bytes)));  // sized by set_active_cores
  }
  // Clamp: retention >= 1.0 must map to "always retained" (the cast of
  // 1.0 * 2^64 to uint64 would otherwise overflow).
  retention_threshold_ =
      cfg.castout_retention >= 1.0
          ? ~0ull
          : static_cast<std::uint64_t>(cfg.castout_retention * 0x1p64);
  set_active_cores(1);
}

void L3Fabric::set_active_cores(std::uint32_t n) {
  if (n == 0 || n > cfg_.cores_per_socket) {
    throw std::invalid_argument("L3Fabric: active cores out of range");
  }
  active_cores_ = n;
  const std::uint32_t idle = cfg_.cores_per_socket - n;
  // The idle cores' aggregate capacity is fair-shared: each active core gets
  // its own victim partition so cores never contend for (or observe) each
  // other's cast-outs.  Partitioning is what keeps a per-core replay
  // deterministic regardless of how worker threads interleave.
  const std::uint64_t capacity =
      cfg_.lateral_castout
          ? static_cast<std::uint64_t>(idle) * cfg_.l3_slice_bytes / n
          : 0;
  for (auto& stripe : stripes_) {
    const auto lock = lock_stripe(*stripe);
    // The victim store aggregates many remote slices; model it with a lower
    // associativity (it is a recovery approximation, not a real cache -- the
    // retention probability already dominates its behaviour) to keep the
    // simulator's hottest miss path cheap.
    stripe->victim = CacheLevel(capacity, 8, cfg_.line_bytes,
                                /*hashed_sets=*/true);
  }
}

bool L3Fabric::retained(Stripe& stripe, std::uint64_t line) {
  // Per-recovery-event probability (deterministic sequence): a fraction of
  // lateral-cast-out recoveries fail and must re-fetch from memory.  This is
  // what makes the lone-core traffic exceed the expectation *gradually* as
  // the footprint spills past the local slice (paper Figs. 2-4 (a) panels).
  // The event counter is per stripe so each core sees the same sequence it
  // would in a serial replay, independent of the other cores' progress.
  ++stripe.retention_events;
  return hash64(line ^ (stripe.retention_events * 0x9e3779b97f4a7c15ULL)) <=
         retention_threshold_;
}

L3Fabric::Source L3Fabric::slice_miss(Stripe& stripe, std::uint64_t line,
                                      const CacheLevel::Result& r) {
  // The slice's access() already filled the line (with the right dirty bit)
  // and reported the displaced victim; cast that victim out laterally.
  if (r.evicted) {
    const CacheLevel::Result cast = stripe.victim.insert(r.victim_line, r.victim_dirty);
    if (cast.evicted && cast.victim_dirty) {
      count_line(stripe, cast.victim_line, MemDir::Write);
    }
  }

  // Did the line come from a lateral cast-out (victim store) or from memory?
  const CacheLevel::Invalidated inv = stripe.victim.invalidate(line);
  if (inv.present) {
    if (retained(stripe, line)) {
      selfmon::detail::owner_add(stripe.victim_recoveries, 1);
      return Source::VictimHit;
    }
    selfmon::detail::owner_add(stripe.victim_retention_misses, 1);
  }
  count_line(stripe, line, MemDir::Read);
  return Source::Memory;
}

void L3Fabric::flush_core(std::uint32_t core) {
  Stripe& stripe = *stripes_[core];
  const auto lock = lock_stripe(stripe);
  stripe.slice.flush([&](std::uint64_t line, bool dirty) {
    if (dirty) count_line(stripe, line, MemDir::Write);
  });
  publish(stripe);
}

void L3Fabric::flush_all() {
  for (std::uint32_t c = 0; c < cfg_.cores_per_socket; ++c) flush_core(c);
  for (auto& stripe : stripes_) {
    const auto lock = lock_stripe(*stripe);
    stripe->victim.flush([&](std::uint64_t line, bool dirty) {
      if (dirty) count_line(*stripe, line, MemDir::Write);
    });
    publish(*stripe);
  }
}

std::uint64_t L3Fabric::victim_recoveries() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->victim_recoveries.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t L3Fabric::victim_retention_misses() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->victim_retention_misses.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t L3Fabric::total_slice_lookups() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->slice.hits() + stripe->slice.misses();
  }
  return total;
}

}  // namespace papisim::sim
