#include "pcp/pmcd.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <type_traits>
#include <utility>

#include "pcp/backoff.hpp"
#include "selfmon/metrics.hpp"
#include "trace/recorder.hpp"

namespace papisim::pcp {

namespace {

/// The attempt's trace context, whichever concrete request carries it.
/// (Template so the private Pmcd::Request variant needs no naming here.)
template <typename RequestVariant>
trace::TraceContext ctx_of(const RequestVariant& req) {
  return std::visit([](const auto& r) { return r.ctx; }, req);
}

/// Coalescing/cache key of a fetch: the cpu instance plus the exact pmid
/// sequence.  Two fetches with equal keys read the same counters and may
/// share one PMU read.
std::string fetch_key(const std::vector<PmId>& pmids, std::uint32_t cpu) {
  std::string key = "c" + std::to_string(cpu);
  for (const PmId id : pmids) {
    key += '|';
    key += std::to_string(id);
  }
  return key;
}

}  // namespace

Pmcd::Pmcd(sim::Machine& machine, PmcdOptions options)
    : machine_(machine),
      options_(options),
      pmns_(machine.config()),
      pmu_(machine, sim::Credentials::root()) {
  if (options_.shards == 0) options_.shards = 1;
  per_tenant_queue_limit_ = options_.per_tenant_queue_limit;
  total_queue_limit_ = options_.total_queue_limit;
  base_.assign(static_cast<std::size_t>(pmu_.sockets()) * pmu_.channels() *
                   std::size(nest::kAllNestEventKinds),
               0);
  tenants_.push_back(std::make_unique<std::atomic<std::uint32_t>>(0));
  shards_.reserve(options_.shards);
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    shards_[s]->worker = std::thread([this, s] { serve_shard(s); });
  }
}

Pmcd::~Pmcd() { shutdown(); }

ClientId Pmcd::register_client() {
  std::lock_guard<std::mutex> lock(mu_);
  const ClientId id = static_cast<ClientId>(tenants_.size());
  tenants_.push_back(std::make_unique<std::atomic<std::uint32_t>>(0));
  return id;
}

void Pmcd::shutdown() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    draining_.store(true, std::memory_order_release);
  }
  // Wake every worker under its shard lock (no lost wakeup: a worker either
  // sees the flag in its predicate or is inside wait when notify fires).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Drain-then-stop served everything accepted by a live pool; residual
  // queued requests exist only when the pool had crashed (or a post raced a
  // crash sweep).  Fail them typed -- no promise is ever silently broken.
  for (auto& shard : shards_) {
    for (Queued& q : shard->queue) {
      finish_dequeue(q);
      fail_request(q.req, Error(Status::Shutdown,
                                "pmcd: shut down with the request queued"));
    }
    shard->queue.clear();
  }
  {
    std::lock_guard<std::mutex> lock(dropped_mu_);
    for (Request& d : dropped_) {
      fail_request(d, Error(Status::Shutdown,
                            "pmcd: shut down with the reply outstanding"));
    }
    dropped_.clear();
  }
  selfmon::gauge_set(selfmon::GaugeId::PcpQueueDepth, 0);
}

void Pmcd::set_fault_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  plan_ = plan;
}

void Pmcd::set_rpc_options(const RpcOptions& opt) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  rpc_ = opt;
}

void Pmcd::set_admission_limits(std::uint32_t per_tenant, std::uint32_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  per_tenant_queue_limit_ = per_tenant;
  total_queue_limit_ = total;
}

std::size_t Pmcd::counter_slot(std::uint32_t socket, std::uint32_t channel,
                               nest::NestEventKind kind) const {
  return (static_cast<std::size_t>(socket) * pmu_.channels() + channel) *
             std::size(nest::kAllNestEventKinds) +
         static_cast<std::size_t>(kind);
}

void Pmcd::fail_request(Request& req, const Error& err) {
  std::visit(
      [&](auto& r) { r.reply.set_exception(std::make_exception_ptr(err)); },
      req);
}

std::uint32_t Pmcd::shard_of(const Request& req) const {
  const std::size_t h = std::visit(
      [](const auto& r) -> std::size_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, LookupReq>) {
          return std::hash<std::string>{}(r.name);
        } else if constexpr (std::is_same_v<T, NamesReq>) {
          return std::hash<std::string>{}(r.prefix);
        } else {
          return std::hash<std::string>{}(r.key);
        }
      },
      req);
  return static_cast<std::uint32_t>(h % shards_.size());
}

std::atomic<std::uint32_t>* Pmcd::tenant_slot_locked(ClientId client) {
  const std::size_t i =
      client < tenants_.size() ? static_cast<std::size_t>(client) : 0;
  return tenants_[i].get();
}

void Pmcd::finish_dequeue(const Queued& q) {
  if (q.tenant != nullptr) q.tenant->fetch_sub(1, std::memory_order_relaxed);
  const std::uint32_t depth =
      total_queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
  selfmon::gauge_set(selfmon::GaugeId::PcpQueueDepth,
                     static_cast<std::int64_t>(depth));
}

Pmcd::PostResult Pmcd::post(Request req, ClientId client) {
  const trace::TraceContext ctx = ctx_of(req);
  const std::uint64_t admit_ns = trace::now_ns();
  const auto admission_span = [&](trace::SpanStatus st, std::uint64_t shard,
                                  std::uint64_t depth) {
    trace::record({ctx.trace_id, trace::next_span_id(), ctx.span_id, admit_ns,
                   trace::now_ns(), shard, depth, trace::Stage::Admission, st});
  };
  std::uint32_t shard_index = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_) {
      admission_span(trace::SpanStatus::Shutdown, 0, 0);
      return PostResult::ShuttingDown;
    }
    if (crashed_.load(std::memory_order_acquire)) {
      restart_locked();  // supervisor: revive the pool before enqueueing
    }
    std::atomic<std::uint32_t>* tenant = tenant_slot_locked(client);
    if (total_queued_.load(std::memory_order_relaxed) >= total_queue_limit_ ||
        tenant->load(std::memory_order_relaxed) >= per_tenant_queue_limit_) {
      // Fair-share backpressure: shed instead of queueing without bound.
      shed_.fetch_add(1, std::memory_order_relaxed);
      selfmon::counter_add(selfmon::CounterId::PcpOverloadShed);
      admission_span(trace::SpanStatus::Shed, 0,
                     total_queued_.load(std::memory_order_relaxed));
      return PostResult::Overloaded;
    }
    tenant->fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t depth =
        total_queued_.fetch_add(1, std::memory_order_relaxed) + 1;
    selfmon::gauge_set(selfmon::GaugeId::PcpQueueDepth,
                       static_cast<std::int64_t>(depth));
    shard_index = shard_of(req);
    admission_span(trace::SpanStatus::Ok, shard_index, depth);
    Shard& shard = *shards_[shard_index];
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    shard.queue.push_back(Queued{std::move(req), tenant, ctx, trace::now_ns()});
  }
  shards_[shard_index]->cv.notify_one();
  return PostResult::Accepted;
}

void Pmcd::restart_locked() {
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Stragglers that raced the crash sweep (posted after the sweep cleared
  // their shard) are failed typed here; their clients retry against the new
  // incarnation.  No shard lock needed: the pool is joined and posts are
  // serialized by mu_ (held by the caller).
  for (auto& shard : shards_) {
    for (Queued& q : shard->queue) {
      finish_dequeue(q);
      fail_request(q.req, Error(Status::Internal,
                                "pmcd: daemon crashed with the request queued"));
    }
    shard->queue.clear();
    shard->cache.clear();  // cached replies belong to the dead incarnation
  }
  {
    std::lock_guard<std::mutex> lock(dropped_mu_);
    for (Request& d : dropped_) {
      fail_request(d, Error(Status::Internal,
                            "pmcd: daemon crashed with the reply outstanding"));
    }
    dropped_.clear();
  }
  // A restarted collector reports counters relative to its own start (as a
  // real pmcd's perfevent PMDA does): capture the baseline the incarnation
  // will subtract.  No worker runs here, so base_ is write-safe.
  const std::uint64_t rebase_ns = trace::now_ns();
  for (std::uint32_t s = 0; s < pmu_.sockets(); ++s) {
    for (std::uint32_t c = 0; c < pmu_.channels(); ++c) {
      for (const nest::NestEventKind k : nest::kAllNestEventKinds) {
        base_[counter_slot(s, c, k)] = pmu_.read({s, c, k});
      }
    }
  }
  crashed_.store(false, std::memory_order_release);
  const std::uint64_t new_gen =
      generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Re-baselining belongs to no request: an orphan root trace marks the
  // restart window and the generation every later reply reports.
  const trace::TraceContext rb = trace::mint();
  trace::record({rb.trace_id, rb.span_id, 0, rebase_ns, trace::now_ns(),
                 new_gen, 0, trace::Stage::Rebaseline, trace::SpanStatus::Ok});
  selfmon::counter_add(selfmon::CounterId::PcpRestarts);
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { serve_shard(s); });
  }
}

template <typename Reply, typename MakeReq>
Reply Pmcd::round_trip(ClientId client, MakeReq&& make_req) {
  RpcOptions opt;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    opt = rpc_;
  }
  // Root span: adopt the caller's context (PcpClient mints one per RPC;
  // fetch() mints for direct daemon calls) so every attempt, backoff and
  // daemon-side stage hangs off a single client-visible rpc root.
  trace::ScopedTrace scope;
  const trace::TraceContext root = scope.context();
  const std::uint64_t rpc_t0 = trace::now_ns();
  const auto finish_rpc = [&](trace::SpanStatus st) {
    trace::record({root.trace_id, root.span_id, 0, rpc_t0, trace::now_ns(), 0,
                   0, trace::Stage::Rpc, st});
  };
  // Per-attempt outcome trail, surfaced on the final error so a failure
  // report shows what every retry saw instead of only the last status.
  std::string trail;
  const auto note = [&trail](int attempt, std::uint64_t backoff_ns,
                             const std::string& what) {
    if (!trail.empty()) trail += "; ";
    trail += "attempt " + std::to_string(attempt + 1) + ": " + what;
    if (backoff_ns != 0) {
      trail += " (backoff " + std::to_string(backoff_ns) + "ns)";
    }
  };
  std::exception_ptr last;
  bool timed_out = false;
  for (int attempt = 0; attempt <= opt.max_retries; ++attempt) {
    std::uint64_t backoff_ns = 0;
    if (attempt > 0) {
      selfmon::counter_add(selfmon::CounterId::PcpRetries);
      // Seeded jitter desynchronizes the retry storm after a shared failure
      // (N clients failed by one crash must not re-arrive in lockstep).
      const auto backoff =
          jittered_backoff(opt.backoff_base, opt.jitter_seed, client, attempt);
      backoff_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(backoff)
              .count());
      const std::uint64_t b0 = trace::now_ns();
      std::this_thread::sleep_for(backoff);
      trace::record({root.trace_id, trace::next_span_id(), root.span_id, b0,
                     trace::now_ns(), static_cast<std::uint64_t>(attempt),
                     backoff_ns, trace::Stage::Backoff,
                     trace::SpanStatus::Ok});
    }
    const trace::TraceContext attempt_ctx{root.trace_id,
                                          trace::next_span_id()};
    const std::uint64_t a_t0 = trace::now_ns();
    const auto attempt_span = [&](trace::SpanStatus st) {
      trace::record({root.trace_id, attempt_ctx.span_id, root.span_id, a_t0,
                     trace::now_ns(), static_cast<std::uint64_t>(attempt),
                     backoff_ns, trace::Stage::Attempt, st});
    };
    auto req = make_req();
    req.ctx = attempt_ctx;
    std::future<Reply> f = req.reply.get_future();
    switch (post(Request{std::move(req)}, client)) {
      case PostResult::ShuttingDown:
        attempt_span(trace::SpanStatus::Shutdown);
        finish_rpc(trace::SpanStatus::Shutdown);
        throw Error(Status::Shutdown, "pmcd: daemon is shutting down");
      case PostResult::Overloaded:
        timed_out = false;
        attempt_span(trace::SpanStatus::Shed);
        note(attempt, backoff_ns, "shed at admission");
        last = std::make_exception_ptr(
            Error(Status::Overloaded,
                  "pmcd: request shed by fair-share admission (overloaded)"));
        continue;
      case PostResult::Accepted:
        break;
    }
    if (f.wait_for(opt.timeout) != std::future_status::ready) {
      // Abandon the reply (a late or dropped one is harmless) and retry.
      selfmon::counter_add(selfmon::CounterId::PcpTimeouts);
      timed_out = true;
      attempt_span(trace::SpanStatus::Timeout);
      note(attempt, backoff_ns, "timeout");
      continue;
    }
    try {
      Reply r = f.get();
      attempt_span(trace::SpanStatus::Ok);
      finish_rpc(trace::SpanStatus::Ok);
      return r;
    } catch (const Error& e) {
      if (e.status() == Status::Shutdown) {
        attempt_span(trace::SpanStatus::Shutdown);
        finish_rpc(trace::SpanStatus::Shutdown);
        throw;
      }
      timed_out = false;
      attempt_span(trace::SpanStatus::Fault);
      note(attempt, backoff_ns, std::string("fault: ") + e.what());
      last = std::current_exception();  // transient: injected error or crash
    } catch (const std::future_error&) {
      // Unreachable under the drain-then-stop protocol (no promise is
      // destroyed unserved); mapped to a typed error as a backstop.
      timed_out = false;
      attempt_span(trace::SpanStatus::Shutdown);
      note(attempt, backoff_ns, "reply promise broken");
      last = std::make_exception_ptr(
          Error(Status::Shutdown, "pmcd: reply promise broken"));
    }
  }
  const std::string suffix = trail.empty() ? std::string() : " [" + trail + "]";
  if (timed_out || last == nullptr) {
    trace::flight_dump("deadline");
    finish_rpc(trace::SpanStatus::Timeout);
    throw Error(Status::Timeout,
                "pmcd: round trip missed its deadline after " +
                    std::to_string(opt.max_retries + 1) + " attempts" +
                    suffix);
  }
  try {
    std::rethrow_exception(last);
  } catch (const Error& e) {
    if (e.status() == Status::Overloaded) trace::flight_dump("overloaded");
    finish_rpc(e.status() == Status::Overloaded ? trace::SpanStatus::Shed
                                                : trace::SpanStatus::Fault);
    throw Error(e.status(), std::string(e.what()) + suffix);
  }
}

LookupReply Pmcd::lookup(const std::string& name, ClientId client) {
  return round_trip<LookupReply>(client, [&] {
    LookupReq req;
    req.name = name;
    return req;
  });
}

NamesReply Pmcd::names_under(const std::string& prefix, ClientId client) {
  return round_trip<NamesReply>(client, [&] {
    NamesReq req;
    req.prefix = prefix;
    return req;
  });
}

FetchReply Pmcd::fetch(const std::vector<PmId>& pmids, std::uint32_t cpu,
                       ClientId client) {
  // Client-visible round trip: enqueue to reply, the indirection latency the
  // paper's Section I weighs against direct privileged reads.
  const selfmon::Stopwatch rtt(selfmon::HistId::PcpFetchRttNs);
  // Adopt the caller's trace (PcpClient mints one per RPC) or mint one for
  // direct daemon calls, so every fetch RTT is exemplar-addressable.  The
  // exemplar is noted only on success; the Stopwatch above stays
  // failure-inclusive.
  trace::ScopedTrace scope;
  const std::uint64_t f0 = trace::now_ns();
  FetchReply reply = round_trip<FetchReply>(client, [&] {
    FetchReq req;
    req.pmids = pmids;
    req.cpu = cpu;
    req.key = fetch_key(pmids, cpu);
    return req;
  });
  trace::note_rpc_exemplar(scope.context().trace_id, trace::now_ns() - f0);
  return reply;
}

void Pmcd::serve_control(Request& req) {
  if (auto* l = std::get_if<LookupReq>(&req)) {
    LookupReply reply;
    reply.pmid = pmns_.lookup(l->name);
    reply.ok = reply.pmid.has_value();
    l->reply.set_value(std::move(reply));
  } else if (auto* n = std::get_if<NamesReq>(&req)) {
    NamesReply reply;
    reply.names = pmns_.names_under(n->prefix);
    n->reply.set_value(std::move(reply));
  }
}

FetchReply Pmcd::compute_fetch(const FetchReq& req,
                               const trace::TraceContext& svc) {
  FetchReply reply;
  reply.ok = true;
  reply.generation = generation_.load(std::memory_order_relaxed);
  reply.values.reserve(req.pmids.size());
  if (req.cpu >= machine_.config().usable_cpus()) {
    reply.ok = false;
    reply.error = "instance (cpu) out of range";
  } else {
    const std::uint64_t r0 = trace::now_ns();
    const std::uint32_t socket = machine_.socket_of_cpu(req.cpu);
    for (const PmId pmid : req.pmids) {
      const MetricDesc* d = pmns_.descriptor(pmid);
      if (d == nullptr) {
        reply.ok = false;
        reply.error = "unknown pmid " + std::to_string(pmid);
        reply.values.clear();
        break;
      }
      nest::NestEventId ev = d->event;
      ev.socket = socket;
      reply.values.push_back(
          pmu_.read(ev) - base_[counter_slot(ev.socket, ev.channel, ev.kind)]);
    }
    trace::record({svc.trace_id, trace::next_span_id(), svc.span_id, r0,
                   trace::now_ns(), req.pmids.size(), 0,
                   trace::Stage::CounterRead,
                   reply.ok ? trace::SpanStatus::Ok
                            : trace::SpanStatus::Fault});
  }
  return reply;
}

FetchReply Pmcd::serve_fetch_cached(Shard& shard, const FetchReq& req,
                                    const trace::TraceContext& svc) {
  const auto ttl = options_.fetch_cache_ttl;
  if (ttl.count() <= 0) return compute_fetch(req, svc);
  const std::uint64_t lookup_ns = trace::now_ns();
  const auto cache_span = [&](trace::SpanStatus st) {
    trace::record({svc.trace_id, trace::next_span_id(), svc.span_id,
                   lookup_ns, trace::now_ns(), 0, 0, trace::Stage::CacheLookup,
                   st});
  };
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();
  const auto it = shard.cache.find(req.key);
  if (it != shard.cache.end() && it->second.generation == gen &&
      now - it->second.stamped <= ttl) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    selfmon::counter_add(selfmon::CounterId::PcpCacheHits);
    cache_span(trace::SpanStatus::Hit);
    FetchReply reply;
    reply.ok = true;
    reply.generation = gen;
    reply.values = it->second.values;
    return reply;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  selfmon::counter_add(selfmon::CounterId::PcpCacheMisses);
  cache_span(trace::SpanStatus::Miss);
  FetchReply reply = compute_fetch(req, svc);
  if (reply.ok) {
    if (shard.cache.size() >= options_.fetch_cache_capacity) {
      shard.cache.clear();  // crude but bounded; hot keys re-enter on the next miss
    }
    shard.cache[req.key] =
        Shard::CacheEntry{reply.values, reply.generation, now};
  }
  return reply;
}

std::vector<Pmcd::Queued> Pmcd::extract_coalescable(Shard& shard,
                                                    const std::string& key) {
  std::vector<Queued> out;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.queue.begin(); it != shard.queue.end();) {
      auto* fr = std::get_if<FetchReq>(&it->req);
      if (fr != nullptr && fr->key == key) {
        out.push_back(std::move(*it));
        it = shard.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const Queued& q : out) finish_dequeue(q);
  return out;
}

void Pmcd::crash_pool() {
  // Order matters: the flag first, so workers racing the sweep exit rather
  // than serve from a dead incarnation.
  crashed_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::deque<Queued> doomed;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      doomed.swap(shard->queue);
    }
    for (Queued& q : doomed) {
      finish_dequeue(q);
      fail_request(q.req, Error(Status::Internal,
                                "pmcd: daemon crashed with the request queued"));
    }
  }
  {
    std::lock_guard<std::mutex> lock(dropped_mu_);
    for (Request& d : dropped_) {
      fail_request(d, Error(Status::Internal,
                            "pmcd: daemon crashed with the reply outstanding"));
    }
    dropped_.clear();
  }
  selfmon::gauge_set(selfmon::GaugeId::PcpQueueDepth, 0);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
  }
}

void Pmcd::publish_ratio_gauges() {
  const std::uint64_t resolved =
      fetches_resolved_.load(std::memory_order_relaxed);
  const std::uint64_t co = coalesced_.load(std::memory_order_relaxed);
  selfmon::gauge_set(
      selfmon::GaugeId::PcpCoalesceRatioPpm,
      resolved == 0 ? 0
                    : static_cast<std::int64_t>(co * 1'000'000 / resolved));
  const std::uint64_t hits = cache_hits_.load(std::memory_order_relaxed);
  const std::uint64_t misses = cache_misses_.load(std::memory_order_relaxed);
  selfmon::gauge_set(
      selfmon::GaugeId::PcpCacheHitRatePpm,
      hits + misses == 0
          ? 0
          : static_cast<std::int64_t>(hits * 1'000'000 / (hits + misses)));
}

void Pmcd::serve_shard(std::uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    Queued q;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return !shard.queue.empty() ||
               draining_.load(std::memory_order_acquire) ||
               crashed_.load(std::memory_order_acquire);
      });
      if (crashed_.load(std::memory_order_acquire)) {
        return;  // another shard's worker crashed the pool; it sweeps
      }
      if (shard.queue.empty()) return;  // draining, and drained
      q = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    finish_dequeue(q);
    const std::uint64_t dequeue_ns = trace::now_ns();
    trace::record({q.ctx.trace_id, trace::next_span_id(), q.ctx.span_id,
                   q.enqueue_ns, dequeue_ns, shard_index, 0,
                   trace::Stage::QueueWait, trace::SpanStatus::Ok});
    // The service span must END before any promise is fulfilled, so it nests
    // inside the client's attempt span even when the client races ahead.
    const trace::TraceContext svc{q.ctx.trace_id, trace::next_span_id()};
    const auto svc_span = [&](trace::SpanStatus st, std::uint64_t fault_kind,
                              std::uint64_t followers) {
      trace::record({q.ctx.trace_id, svc.span_id, q.ctx.span_id, dequeue_ns,
                     trace::now_ns(), fault_kind, followers,
                     trace::Stage::Service, st});
    };

    FaultPlan plan;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      plan = plan_;
    }
    const FaultKind fault =
        plan.roll(service_index_.fetch_add(1, std::memory_order_relaxed));
    const auto fault_a = static_cast<std::uint64_t>(fault);
    if (fault != FaultKind::None) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      selfmon::counter_add(selfmon::CounterId::PcpFaultsInjected);
    }
    switch (fault) {
      case FaultKind::Drop: {
        // Swallow the request but keep its promise alive: the client sees
        // silence (and must time out), not a broken promise.
        svc_span(trace::SpanStatus::Dropped, fault_a, 0);
        std::lock_guard<std::mutex> lock(dropped_mu_);
        dropped_.push_back(std::move(q.req));
        continue;
      }
      case FaultKind::Delay:
        std::this_thread::sleep_for(std::chrono::microseconds(plan.delay_us));
        break;  // then serve normally
      case FaultKind::Error:
        svc_span(trace::SpanStatus::Fault, fault_a, 0);
        fail_request(q.req,
                     Error(Status::Internal, "pmcd: injected transient fault"));
        continue;
      case FaultKind::Crash:
        // The daemon dies mid-request: the in-flight request and everything
        // queued behind it -- on every shard -- fail like lost connections,
        // then the pool exits.  The supervisor (post) restarts it on demand.
        // The flight recorder fires first, while this worker's in-flight
        // spans (queue wait + this service span) are still in its ring.
        // The pool is marked crashed before the in-flight request fails:
        // its client may post again the moment it sees the failure, and
        // that post must find the flag and restart the pool, not enqueue
        // into the dying one.
        svc_span(trace::SpanStatus::Crash, fault_a, 0);
        trace::flight_dump("crash");
        crash_pool();
        fail_request(q.req, Error(Status::Internal,
                                  "pmcd: daemon crashed serving the request"));
        return;
      case FaultKind::None:
        break;
    }

    if (auto* fr = std::get_if<FetchReq>(&q.req)) {
      // Coalescing: identical fetches still queued on this shard are
      // resolved from this one counter read.  Followers bypass their own
      // fault roll -- a coalesced batch shares the leader's fate.
      std::vector<Queued> followers = extract_coalescable(shard, fr->key);
      const std::uint64_t adopt_ns = trace::now_ns();
      for (const Queued& fq : followers) {
        // A follower's own trace shows its queue wait ending in adoption,
        // with an instant span naming the leader's service span (a) and
        // trace (b) -- the cross-trace causal link.
        trace::record({fq.ctx.trace_id, trace::next_span_id(), fq.ctx.span_id,
                       fq.enqueue_ns, adopt_ns, shard_index, 0,
                       trace::Stage::QueueWait, trace::SpanStatus::Ok});
        trace::record({fq.ctx.trace_id, trace::next_span_id(), fq.ctx.span_id,
                       adopt_ns, adopt_ns, svc.span_id, q.ctx.trace_id,
                       trace::Stage::CoalesceFollow, trace::SpanStatus::Ok});
      }
      FetchReply reply = serve_fetch_cached(shard, *fr, svc);
      const std::uint64_t n = 1 + followers.size();
      requests_served_.fetch_add(n, std::memory_order_relaxed);
      selfmon::counter_add(selfmon::CounterId::PcpRequestsServed, n);
      fetches_resolved_.fetch_add(n, std::memory_order_relaxed);
      if (!followers.empty()) {
        coalesced_.fetch_add(followers.size(), std::memory_order_relaxed);
        selfmon::counter_add(selfmon::CounterId::PcpFetchesCoalesced,
                             followers.size());
      }
      publish_ratio_gauges();
      svc_span(trace::SpanStatus::Ok, fault_a, followers.size());
      for (Queued& f : followers) {
        std::get<FetchReq>(f.req).reply.set_value(reply);
      }
      fr->reply.set_value(std::move(reply));
    } else {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      selfmon::counter_add(selfmon::CounterId::PcpRequestsServed);
      svc_span(trace::SpanStatus::Ok, fault_a, 0);
      serve_control(q.req);
    }
  }
}

}  // namespace papisim::pcp
