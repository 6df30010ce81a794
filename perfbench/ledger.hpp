// Benchmark-side span ledger: the traced run's per-layer accounting.
//
// The benchmark opens a span around every call it makes into a papisim
// layer (a GEMM replay callback, KernelRunner::measure, Sampler::sample,
// Pmcd::fetch, ...).  Spans are kept in per-thread memory and summarized at
// the end of the run.  A layer's self time is its span's duration minus the
// part of that interval its child spans cover.  Children that overlap each
// other (replay callbacks running on several pool threads) share the covered
// wall time in proportion to their durations, so the self times of one root
// add up to the root's duration: that sum is what the traced run reconciles
// against the untraced run_s.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  Bench,         ///< the workload's fixed work (root of one traced iteration)
  Setup,         ///< one set-up (root)
  SetupMachine,  ///< sim::Machine construction
  SetupPmcd,     ///< PMCD daemon + client construction
  Kernels,       ///< KernelRunner::measure
  Sim,           ///< a replay callback into the simulator (run_gemm)
  Pcp,           ///< Pmcd::fetch
  Core,          ///< Sampler::sample / Profiler::sample
  Spe,           ///< SpeCollector::drain_into
  Analysis,      ///< timeline/analyze/attribute/score/footprint
  Fft,           ///< DistributedFft3d::run_forward (minus its sampler ticks)
  Qmc,           ///< QmcApp::run (minus its sampler ticks)
  kCount,
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

inline constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "bench", "setup", "setup.machine", "setup.pmcd", "kernels", "sim",
    "pcp",   "core",  "spe",           "analysis",   "fft",     "qmc"};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t t0 = 0, t1 = 0;
  std::uint32_t thread = 0;  ///< ledger-local thread index
  Layer layer = Layer::Bench;
};

/// Per-layer totals over a set of roots.
struct LayerTotals {
  std::array<double, kNumLayers> self_s{};  ///< attributed self wall time
  std::array<double, kNumLayers> dur_s{};   ///< summed raw span durations
  std::array<std::uint64_t, kNumLayers> count{};
  /// Replay-callback imbalance: for each span with Sim children, the busiest
  /// thread's callback time over the mean across the threads that ran them,
  /// weighted by the parent span's duration.
  double imbalance_weighted = 0, imbalance_weight = 0;
};

class Ledger {
 public:
  /// Spans are recorded only while enabled; a disabled Scope costs one
  /// relaxed load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every recorded span, all threads.  Call when no scope is open.
  std::vector<SpanRec> collect() const {
    std::lock_guard lock(mu_);
    std::vector<SpanRec> out;
    for (const auto& buf : buffers_) out.insert(out.end(), buf->begin(), buf->end());
    return out;
  }

  /// Self-time attribution over the trees rooted at `roots`.
  static LayerTotals totals(const std::vector<SpanRec>& spans,
                            const std::vector<std::uint64_t>& roots) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      index[spans[i].id] = i;
      if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
    }
    LayerTotals t;
    std::vector<std::pair<std::size_t, double>> stack;  // (span, wall scale)
    for (const std::uint64_t root : roots) {
      const auto it = index.find(root);
      if (it == index.end()) continue;
      stack.emplace_back(it->second, 1.0);
      while (!stack.empty()) {
        const auto [i, scale] = stack.back();
        stack.pop_back();
        const SpanRec& s = spans[i];
        const auto li = static_cast<std::size_t>(s.layer);
        t.count[li] += 1;
        t.dur_s[li] += dur_s(s);
        const auto ch = children.find(s.id);
        double covered = 0, child_sum = 0;
        if (ch != children.end()) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
          std::unordered_map<std::uint32_t, double> sim_busy;  // by thread
          for (const std::size_t c : ch->second) {
            const std::uint64_t a = std::max(spans[c].t0, s.t0);
            const std::uint64_t b = std::min(spans[c].t1, s.t1);
            if (b > a) iv.emplace_back(a, b);
            child_sum += dur_s(spans[c]);
            if (spans[c].layer == Layer::Sim) sim_busy[spans[c].thread] += dur_s(spans[c]);
          }
          double busy_sum = 0, busy_max = 0;
          for (const auto& [thread, busy] : sim_busy) {
            busy_sum += busy;
            busy_max = std::max(busy_max, busy);
          }
          if (busy_sum > 0) {
            const double mean = busy_sum / static_cast<double>(sim_busy.size());
            t.imbalance_weighted += busy_max / mean * dur_s(s);
            t.imbalance_weight += dur_s(s);
          }
          std::sort(iv.begin(), iv.end());
          std::uint64_t end = 0;
          for (const auto& [a, b] : iv) {
            if (b <= end) continue;
            covered += static_cast<double>(b - std::max(a, end)) * 1e-9;
            end = b;
          }
          const double child_scale = child_sum > 0 ? scale * covered / child_sum : 0;
          for (const std::size_t c : ch->second) stack.emplace_back(c, child_scale);
        }
        t.self_s[li] += scale * std::max(0.0, dur_s(s) - covered);
      }
    }
    return t;
  }

  /// RAII span.  `parent` = 0 links to the calling thread's innermost open
  /// span; pass an explicit id to link work running on another thread.
  class Scope {
   public:
    Scope(Ledger& ledger, Layer layer, std::uint64_t parent = 0) {
      if (!ledger.enabled()) return;
      ledger_ = &ledger;
      Local& l = ledger.local();
      rec_.id = ledger.next_id_.fetch_add(1, std::memory_order_relaxed);
      rec_.parent = parent != 0 ? parent : (l.open.empty() ? 0 : l.open.back());
      rec_.thread = l.thread;
      rec_.layer = layer;
      l.open.push_back(rec_.id);
      rec_.t0 = now_ns();
    }
    ~Scope() {
      if (ledger_ == nullptr) return;
      rec_.t1 = now_ns();
      Local& l = ledger_->local();
      l.open.pop_back();
      l.buf->push_back(rec_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id (0 when the ledger is disabled).
    std::uint64_t id() const { return rec_.id; }

   private:
    Ledger* ledger_ = nullptr;
    SpanRec rec_;
  };

 private:
  struct Local {
    std::vector<SpanRec>* buf = nullptr;
    std::vector<std::uint64_t> open;
    std::uint32_t thread = 0;
  };

  static double dur_s(const SpanRec& s) {
    return s.t1 > s.t0 ? static_cast<double>(s.t1 - s.t0) * 1e-9 : 0.0;
  }

  /// The calling thread's buffer, registered on first use.  Buffers are
  /// owned by the ledger, so spans outlive the (pool) threads that made them.
  Local& local() const {
    thread_local Local l;
    if (l.buf == nullptr) {
      std::lock_guard lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRec>>());
      l.buf = buffers_.back().get();
      l.thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    }
    return l;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers_;
};

}  // namespace perfbench
