// Causal span recorder: per-thread bounded lock-free rings, a merge-on-drain
// registry, and the crash flight recorder (DESIGN.md §3j).
//
// Recording discipline mirrors spe::SampleRing and the selfmon slab
// registry: the recording thread is the single producer of its own ring
// (head/tail atomics, power-of-two mask), a full ring rejects-and-counts
// (selfmon trace.spans_dropped) and NEVER blocks, and rings of exited
// threads are retired into a bounded registry-side backlog so spans survive
// client-thread churn.
//
// The flight recorder is the same rings read sideways: when armed, a
// trigger (FaultKind::Crash, final Status::Overloaded, deadline exhaustion)
// snapshots the most recent N spans -- peeking the rings without consuming,
// which is safe because producers never overwrite unconsumed slots -- and
// writes them to a strict-JSON dump.  The first trigger per reason wins
// until re-armed, so the crash postmortem is never overwritten by the
// timeout storm that follows it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/span.hpp"

namespace papisim::trace {

namespace detail {

/// constinit: every translation unit reads the variable directly instead of
/// through a thread-local init wrapper.
extern constinit thread_local TraceContext tls_current;

std::uint64_t now_ns_impl();
std::uint64_t next_id_impl();
void record_impl(const Span& s);
void note_rpc_exemplar_impl(std::uint64_t trace_id, std::uint64_t ns);

}  // namespace detail

/// Host steady-clock nanoseconds since the process's trace epoch (first
/// call).  0 when tracing is compiled out.
inline std::uint64_t now_ns() {
  if constexpr (kEnabled) {
    return detail::now_ns_impl();
  } else {
    return 0;
  }
}

/// A fresh span id (never 0).
inline std::uint64_t next_span_id() {
  if constexpr (kEnabled) {
    return detail::next_id_impl();
  } else {
    return 0;
  }
}

/// Mint a fresh root context: trace_id == span_id == a new id.
inline TraceContext mint() {
  if constexpr (kEnabled) {
    const std::uint64_t id = detail::next_id_impl();
    return TraceContext{id, id};
  } else {
    return {};
  }
}

/// The calling thread's active context ({0,0} when none).
inline TraceContext current() {
  if constexpr (kEnabled) {
    return detail::tls_current;
  } else {
    return {};
  }
}

/// Record a completed span into the calling thread's ring (reject-and-count
/// on overflow; never blocks, never allocates on the hot path).
inline void record(const Span& s) {
  if constexpr (kEnabled) {
    detail::record_impl(s);
  } else {
    (void)s;
  }
}

/// Exemplar linkage (DESIGN.md §3j): on RPC completion the fetch path notes
/// (trace_id, rtt ns); the recorder keeps one exemplar trace id per
/// power-of-two latency bucket -- the same bucketing as the selfmon
/// pcp.fetch_rtt_ns histogram -- so each p99 bucket names a trace that can
/// be pulled out of the next span dump.
inline void note_rpc_exemplar(std::uint64_t trace_id, std::uint64_t ns) {
  if constexpr (kEnabled) {
    detail::note_rpc_exemplar_impl(trace_id, ns);
  } else {
    (void)trace_id;
    (void)ns;
  }
}

/// Scoped current-trace for cross-layer propagation.  AdoptOrMint joins the
/// caller's active trace if one exists (Pmcd::fetch under PcpClient);
/// Fresh always mints a new root (PcpClient per RPC, KernelRunner per
/// measurement window).  Restores the previous context on destruction.
class ScopedTrace {
 public:
  enum class Mode { AdoptOrMint, Fresh };

  explicit ScopedTrace(Mode mode = Mode::AdoptOrMint) {
    if constexpr (kEnabled) {
      saved_ = detail::tls_current;
      if (mode == Mode::Fresh || !saved_.valid()) {
        detail::tls_current = mint();
        owns_ = true;
      }
      ctx_ = detail::tls_current;
    } else {
      (void)mode;
    }
  }
  ~ScopedTrace() {
    if constexpr (kEnabled) {
      if (owns_) detail::tls_current = saved_;
    }
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  TraceContext context() const { return ctx_; }

 private:
  TraceContext ctx_{};
  TraceContext saved_{};
  bool owns_ = false;
};

/// One (bucket -> exemplar) cell of the RPC-latency exemplar table.
struct Exemplar {
  std::uint64_t bucket = 0;    ///< bit_width(ns), selfmon histogram bucketing
  std::uint64_t trace_id = 0;  ///< last trace observed in this bucket
  std::uint64_t ns = 0;        ///< that trace's RTT
  std::uint64_t count = 0;     ///< RPCs that landed in this bucket
};

/// Consume every recorded span (live rings + retired backlog), sorted by
/// start time.  Empty when tracing is compiled out.
std::vector<Span> drain();

/// Spans rejected because a ring (or the retired backlog) was full.
std::uint64_t dropped();

/// Populated cells of the exemplar table, ascending by bucket.
std::vector<Exemplar> exemplars();

/// Arm the flight recorder: on the next trigger per reason, snapshot the
/// most recent `last_n` spans to `path` ("%r" in the path expands to the
/// trigger reason, e.g. "crash"/"overloaded"/"deadline").  Disarmed = every
/// trigger is a cheap atomic-load no-op.
void arm_flight_recorder(std::string path, std::size_t last_n = 256);
void disarm_flight_recorder();

/// Trigger: snapshot and dump if armed and this reason has not fired since
/// arming.  Safe from any thread, including a crashing shard worker.
void flight_dump(std::string_view reason);

/// Flight dumps written since process start.
std::uint64_t flight_dumps();

/// Ring capacity (in spans) for rings created *after* this call.  Test-only.
void set_ring_capacity_for_testing(std::size_t capacity);

/// Drop every recorded span, exemplar, and flight arming.  Test-only:
/// callers must guarantee no concurrent recorder.
void reset_for_testing();

}  // namespace papisim::trace
