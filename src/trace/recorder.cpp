#include "trace/recorder.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "selfmon/metrics.hpp"
#include "trace/export.hpp"

namespace papisim::trace {

namespace {

/// Default per-thread ring capacity.  8192 spans * 64 B = 512 KiB per
/// recording thread -- enough for a full bench sweep between drains; a
/// saturated overflow rejects-and-counts rather than growing.
constexpr std::size_t kDefaultRingCapacity = 1u << 13;

/// Bound on the registry-side backlog of spans from exited threads.
constexpr std::size_t kRetiredBacklogCap = 1u << 20;

/// Bounded lock-free SPSC ring of spans, the spe::SampleRing discipline:
/// the owning thread is the only producer; any thread holding the registry
/// mutex may consume (one consumer at a time).  try_push never blocks and
/// never overwrites a slot the consumer has not taken.
struct ThreadRing {
  explicit ThreadRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots.resize(cap);
    mask = cap - 1;
  }

  bool try_push(const Span& s) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= slots.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots[head & mask] = s;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consume everything (caller holds the registry mutex).
  void pop_all(std::vector<Span>& out) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) out.push_back(slots[tail & mask]);
    tail_.store(tail, std::memory_order_release);
  }

  /// Copy without consuming (flight-recorder snapshot).  Safe against a
  /// concurrent producer: slots in [tail, head) are published and never
  /// overwritten until the consumer advances tail.
  void peek_all(std::vector<Span>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (std::uint64_t i = tail; i != head; ++i) out.push_back(slots[i & mask]);
  }

  std::vector<Span> slots;
  std::size_t mask = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped{0};
};

/// Owns every ring ever created (selfmon Registry pattern): rings of exited
/// threads are drained into a bounded backlog and recycled, so spans
/// survive client-thread churn and memory stays bounded by the peak
/// live-thread count.
class Registry {
 public:
  ThreadRing* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      ThreadRing* ring = free_.back();
      free_.pop_back();
      return ring;
    }
    all_.push_back(std::make_unique<ThreadRing>(ring_capacity_));
    return all_.back().get();
  }

  void retire(ThreadRing* ring) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> spans;
    ring->pop_all(spans);
    for (Span& s : spans) {
      if (retired_.size() >= kRetiredBacklogCap) {
        ++retired_dropped_;
        continue;
      }
      retired_.push_back(s);
    }
    retired_dropped_ += ring->dropped.exchange(0, std::memory_order_relaxed);
    free_.push_back(ring);
  }

  std::vector<Span> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = std::move(retired_);
    retired_.clear();
    for (const auto& ring : all_) ring->pop_all(out);
    std::stable_sort(out.begin(), out.end(),
                     [](const Span& x, const Span& y) { return x.t0_ns < y.t0_ns; });
    return out;
  }

  /// Most recent `last_n` spans without consuming anything.
  /// `cutoff_ns` bounds the window at the trigger instant: spans that finish
  /// after the incident are post-trigger noise, and under load they would
  /// otherwise race into the rings while we peek and evict the incident
  /// span itself from the last-N cut.
  std::vector<Span> snapshot(std::size_t last_n, std::uint64_t cutoff_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = retired_;
    for (const auto& ring : all_) ring->peek_all(out);
    std::erase_if(out, [cutoff_ns](const Span& s) { return s.t1_ns > cutoff_ns; });
    std::stable_sort(out.begin(), out.end(),
                     [](const Span& x, const Span& y) { return x.t1_ns < y.t1_ns; });
    if (out.size() > last_n) out.erase(out.begin(), out.end() - last_n);
    std::stable_sort(out.begin(), out.end(),
                     [](const Span& x, const Span& y) { return x.t0_ns < y.t0_ns; });
    return out;
  }

  std::uint64_t dropped() {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = retired_dropped_;
    for (const auto& ring : all_) {
      n += ring->dropped.load(std::memory_order_relaxed);
    }
    return n;
  }

  void note_exemplar(std::uint64_t trace_id, std::uint64_t ns) {
    const std::size_t b =
        ns == 0 ? 0
                : std::min<std::size_t>(selfmon::kHistBuckets - 1,
                                        static_cast<std::size_t>(std::bit_width(ns)));
    std::lock_guard<std::mutex> lock(ex_mu_);
    Exemplar& cell = exemplars_[b];
    cell.bucket = b;
    cell.trace_id = trace_id;
    cell.ns = ns;
    ++cell.count;
  }

  std::vector<Exemplar> exemplars() {
    std::lock_guard<std::mutex> lock(ex_mu_);
    std::vector<Exemplar> out;
    for (const Exemplar& e : exemplars_) {
      if (e.count > 0) out.push_back(e);
    }
    return out;
  }

  void arm(std::string path, std::size_t last_n) {
    std::lock_guard<std::mutex> lock(flight_mu_);
    flight_path_ = std::move(path);
    flight_last_n_ = last_n == 0 ? 1 : last_n;
    fired_.clear();
    armed_.store(true, std::memory_order_release);
  }

  void disarm() {
    std::lock_guard<std::mutex> lock(flight_mu_);
    armed_.store(false, std::memory_order_release);
    flight_path_.clear();
    fired_.clear();
  }

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  void flight_dump(std::string_view reason) {
    const std::uint64_t trigger_ns = now_ns();
    std::string path;
    std::size_t last_n = 0;
    {
      std::lock_guard<std::mutex> lock(flight_mu_);
      if (!armed_.load(std::memory_order_relaxed)) return;
      for (const std::string& r : fired_) {
        if (r == reason) return;  // first trigger per reason wins
      }
      fired_.emplace_back(reason);
      path = flight_path_;
      last_n = flight_last_n_;
    }
    const std::size_t pct = path.find("%r");
    if (pct != std::string::npos) path.replace(pct, 2, reason);
    const std::vector<Span> spans = snapshot(last_n, trigger_ns);
    std::ofstream os(path);
    if (!os) return;
    write_span_dump(os, spans, reason, dropped(), exemplars());
    flight_dumps_.fetch_add(1, std::memory_order_relaxed);
    selfmon::counter_add(selfmon::CounterId::TraceFlightDumps);
  }

  std::uint64_t flight_dumps() const {
    return flight_dumps_.load(std::memory_order_relaxed);
  }

  void set_ring_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    ring_capacity_ = capacity < 2 ? 2 : capacity;
  }

  void reset() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired_.clear();
      retired_dropped_ = 0;
      std::vector<Span> sink;
      for (const auto& ring : all_) {
        ring->pop_all(sink);
        ring->dropped.store(0, std::memory_order_relaxed);
      }
      ring_capacity_ = kDefaultRingCapacity;
    }
    {
      std::lock_guard<std::mutex> lock(ex_mu_);
      exemplars_.assign(selfmon::kHistBuckets, Exemplar{});
    }
    disarm();
    flight_dumps_.store(0, std::memory_order_relaxed);
  }

  Registry() { exemplars_.assign(selfmon::kHistBuckets, Exemplar{}); }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRing>> all_;
  std::vector<ThreadRing*> free_;
  std::vector<Span> retired_;
  std::uint64_t retired_dropped_ = 0;
  std::size_t ring_capacity_ = kDefaultRingCapacity;

  std::mutex ex_mu_;
  std::vector<Exemplar> exemplars_;

  std::mutex flight_mu_;
  std::atomic<bool> armed_{false};
  std::string flight_path_;
  std::size_t flight_last_n_ = 256;
  std::vector<std::string> fired_;
  std::atomic<std::uint64_t> flight_dumps_{0};
};

/// Deliberately leaked (selfmon registry() rationale): late-exiting threads
/// retire rings after main() returns; a leaked singleton cannot race a
/// destructor.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// Retires the thread's ring when the thread exits.
struct RingHandle {
  ThreadRing* ring = nullptr;
  ~RingHandle();
};

thread_local ThreadRing* t_ring = nullptr;
thread_local RingHandle t_ring_handle;

RingHandle::~RingHandle() {
  if (ring != nullptr) {
    registry().retire(ring);
    t_ring = nullptr;
  }
}

ThreadRing& local_ring() {
  if (t_ring == nullptr) {
    t_ring = registry().acquire();
    t_ring_handle.ring = t_ring;
  }
  return *t_ring;
}

std::atomic<std::uint64_t> g_next_id{1};

}  // namespace

namespace detail {

constinit thread_local TraceContext tls_current;

std::uint64_t now_ns_impl() {
  static const auto epoch = std::chrono::steady_clock::now();
  const auto dt = std::chrono::steady_clock::now() - epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

std::uint64_t next_id_impl() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void record_impl(const Span& s) {
  if (local_ring().try_push(s)) {
    selfmon::counter_add(selfmon::CounterId::TraceSpans);
  } else {
    selfmon::counter_add(selfmon::CounterId::TraceSpansDropped);
  }
}

void note_rpc_exemplar_impl(std::uint64_t trace_id, std::uint64_t ns) {
  registry().note_exemplar(trace_id, ns);
}

}  // namespace detail

std::vector<Span> drain() {
  if constexpr (!kEnabled) return {};
  return registry().drain();
}

std::uint64_t dropped() {
  if constexpr (!kEnabled) return 0;
  return registry().dropped();
}

std::vector<Exemplar> exemplars() {
  if constexpr (!kEnabled) return {};
  return registry().exemplars();
}

void arm_flight_recorder(std::string path, std::size_t last_n) {
  if constexpr (!kEnabled) {
    (void)last_n;
    return;
  }
  registry().arm(std::move(path), last_n);
}

void disarm_flight_recorder() {
  if constexpr (!kEnabled) return;
  registry().disarm();
}

void flight_dump(std::string_view reason) {
  if constexpr (!kEnabled) {
    (void)reason;
    return;
  }
  registry().flight_dump(reason);
}

std::uint64_t flight_dumps() {
  if constexpr (!kEnabled) return 0;
  return registry().flight_dumps();
}

void set_ring_capacity_for_testing(std::size_t capacity) {
  if constexpr (!kEnabled) {
    (void)capacity;
    return;
  }
  registry().set_ring_capacity(capacity);
}

void reset_for_testing() {
  if constexpr (!kEnabled) return;
  registry().reset();
}

}  // namespace papisim::trace
