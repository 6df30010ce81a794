// google-benchmark micro-benchmarks of the simulator itself: cache access
// rates, loop-replay event rates, the PCP round-trip cost, and the parallel
// replay engine's scaling.  These bound the wall-clock cost of the figure
// benches.
//
// Extra flags (stripped before google-benchmark sees argv):
//   --threads N        pin the BM_ParallelGemmReplay sweep to N host threads
//                      instead of the default 1/2/4/8 progression.
//   --sampled          run KernelRunner measurements with the SampledReplay
//                      strategy (DESIGN.md §3i).  In JSON mode this adds the
//                      "sampled_replay" section: the fig3 batched-GEMM sweep
//                      measured full (literal_reps) vs sampled, with the
//                      speedup and traffic-error columns.
//   --bench-json PATH  skip the google-benchmark suite; instead measure the
//                      headline throughput numbers plus the refutation-probe
//                      grid wall time and write them as JSON (the checked-in
//                      BENCH_sim.json at the repo root).
//   --traffic-fingerprint
//                      skip the suite; replay fixed deterministic workloads
//                      (GEMM through the full PCP stack, a copy loop with
//                      noise off and on, an S1CF strided-store re-sort, a
//                      lone-core capped GEMV that spills into the victim
//                      store) and print the exact simulated byte and op
//                      counts of every memory channel (and the GEMV's
//                      victim recoveries).  CI diffs this output, from the
//                      default build and from each compile-out build,
//                      against the checked-in bench/traffic_fingerprint.txt:
//                      neither a commit nor an instrumentation layer may
//                      perturb the simulated traffic unnoticed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "components/pcp_component.hpp"
#include "core/json_util.hpp"
#include "core/library.hpp"
#include "fft/resort.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/expected.hpp"
#include "kernels/runner.hpp"
#include "pcp/client.hpp"
#include "pcp/pmcd.hpp"
#include "probe/report.hpp"
#include "sim/machine.hpp"
#include "sim/thread_pool.hpp"
#include "spe/collector.hpp"

using namespace papisim;

namespace {
std::uint32_t g_threads_override = 0;  // 0 = sweep the registered Arg() list
bool g_sampled = false;                // --sampled: use SampledReplay
}

static void BM_CacheHit(benchmark::State& state) {
  sim::CacheLevel cache(5ull << 20, 20, 64, /*hashed_sets=*/true);
  for (std::uint64_t l = 0; l < 1024; ++l) cache.access(l, false);
  std::uint64_t l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(l & 1023, false).hit);
    ++l;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

static void BM_CacheMissEvict(benchmark::State& state) {
  sim::CacheLevel cache(1 << 20, 20, 64, /*hashed_sets=*/true);
  std::uint64_t l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(l, false).evicted);
    l += 97;  // never revisit: always a miss
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissEvict);

static void BM_SequentialLoopReplay(benchmark::State& state) {
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  const std::uint64_t elems = 1 << 16;
  sim::LoopDesc loop;
  loop.iterations = elems;
  loop.streams = {{1 << 20, 8, 8, sim::AccessKind::Load},
                  {1 << 26, 8, 8, sim::AccessKind::Store}};
  std::uint64_t touches = 0;
  for (auto _ : state) {
    const sim::LoopStats st = m.engine(0, 0).execute(loop);
    touches += st.line_touches;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(touches));
  state.counters["Mtouches/s"] = benchmark::Counter(
      static_cast<double>(touches) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialLoopReplay);

static void BM_StridedLoopReplay(benchmark::State& state) {
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  m.set_active_cores(0, m.cores_per_socket());
  const std::uint64_t elems = 1 << 14;
  sim::LoopDesc loop;
  loop.iterations = elems;
  loop.streams = {{1 << 20, 64 * 8, 8, sim::AccessKind::Load},
                  {1 << 30, 8, 8, sim::AccessKind::Store}};
  std::uint64_t touches = 0;
  for (auto _ : state) {
    const sim::LoopStats st = m.engine(0, 0).execute(loop);
    touches += st.line_touches;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(touches));
  state.counters["Mtouches/s"] = benchmark::Counter(
      static_cast<double>(touches) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StridedLoopReplay);

static void BM_GemmReplaySmall(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  const kernels::GemmBuffers buf = kernels::GemmBuffers::allocate(m.address_space(), n);
  std::uint64_t touches = 0;
  for (auto _ : state) {
    touches += kernels::run_gemm(m, 0, 0, n, buf).line_touches;
    m.flush_socket(0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(touches));
}
BENCHMARK(BM_GemmReplaySmall)->Arg(64)->Arg(128)->Arg(256);

static void BM_PcpFetchRoundTrip(benchmark::State& state) {
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  pcp::Pmcd daemon(m);
  pcp::PcpClient client(daemon, m, m.user_credentials());
  const std::vector<pcp::PmId> ids{0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.fetch(ids, 0).values.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcpFetchRoundTrip);

// The tentpole scaling bench: a batched GEMM replayed literally, one
// simulated core per pool thread.  Per-core L3 stripes and atomic channel
// counters mean the threads share no mutable cache state, so touches/s
// should scale ~linearly with host cores (the 1-thread row is the serial
// baseline for the speedup ratio).
static void BM_ParallelGemmReplay(benchmark::State& state) {
  const std::uint32_t want = g_threads_override != 0
                                 ? g_threads_override
                                 : static_cast<std::uint32_t>(state.range(0));
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  // Clamp into [1, cores]: want == 0 (a bare `--threads 0`) used to reach
  // `ThreadPool pool(threads - 1)` as a wrapped-around worker count, and an
  // over-socket override was clamped silently.  The `threads_requested`
  // counter surfaces the clamp in the report.
  const std::uint32_t threads =
      std::min(std::max(want, 1u), m.cores_per_socket());
  m.set_active_cores(0, threads);
  const std::uint64_t n = 160;
  std::vector<kernels::GemmBuffers> bufs;
  bufs.reserve(threads);
  for (std::uint32_t c = 0; c < threads; ++c) {
    bufs.push_back(kernels::GemmBuffers::allocate(m.address_space(), n));
  }
  sim::ThreadPool pool(threads - 1);
  std::uint64_t touches = 0;
  for (auto _ : state) {
    for (std::uint32_t c = 0; c < threads; ++c) {
      m.engine(0, c).set_deferred_time(true);
    }
    std::atomic<std::uint64_t> batch_touches{0};
    pool.parallel_for(threads, [&](std::uint32_t c) {
      batch_touches.fetch_add(kernels::run_gemm(m, 0, c, n, bufs[c]).line_touches,
                              std::memory_order_relaxed);
    });
    double max_ns = 0.0;
    for (std::uint32_t c = 0; c < threads; ++c) {
      max_ns = std::max(max_ns, m.engine(0, c).take_deferred_time_ns());
      m.engine(0, c).set_deferred_time(false);
    }
    m.advance(max_ns);
    m.flush_socket(0);
    touches += batch_touches.load(std::memory_order_relaxed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(touches));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["threads_requested"] = static_cast<double>(want);
  state.counters["Mtouches/s"] = benchmark::Counter(
      static_cast<double>(touches) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelGemmReplay)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The sequential copy loop with per-access sampling attached; Arg is the
// sampling period.  Compare against BM_SequentialLoopReplay for the hook's
// end-to-end overhead (skip path at 1024, record-heavy at 64).
static void BM_SpeSampledReplay(benchmark::State& state) {
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  spe::SpeConfig cfg;
  cfg.period = static_cast<std::uint64_t>(state.range(0));
  spe::SpeCollector collector(m, cfg);
  sim::LoopDesc loop;
  loop.iterations = 1 << 16;
  loop.streams = {{1 << 20, 8, 8, sim::AccessKind::Load},
                  {1 << 26, 8, 8, sim::AccessKind::Store}};
  std::uint64_t touches = 0;
  std::vector<spe::Sample> drained;
  for (auto _ : state) {
    touches += m.engine(0, 0).execute(loop).line_touches;
    drained.clear();
    collector.drain_into(drained);  // keep the ring from saturating
    benchmark::DoNotOptimize(drained.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(touches));
  state.counters["period"] = static_cast<double>(cfg.period);
  state.counters["samples"] =
      static_cast<double>(collector.totals().samples);
  state.counters["Mtouches/s"] = benchmark::Counter(
      static_cast<double>(touches) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpeSampledReplay)->Arg(1024)->Arg(64);

namespace {

/// The S1CF re-sort (Listing 8: sequential loads, strided stores) of one
/// FFT rank on a fully active socket, so there is no victim store and every
/// slice miss goes to memory: the simulator's miss path.
struct ResortLeg {
  sim::Machine m{sim::MachineConfig::summit()};
  fft::RankDims dims = fft::RankDims::of(128, mpi::Grid{2, 4});
  fft::ResortBuffers buf;

  ResortLeg() {
    m.set_noise_enabled(false);
    m.set_active_cores(0, m.cores_per_socket());
    buf = fft::ResortBuffers::allocate(m.address_space(), dims.bytes());
  }

  /// One replay plus the socket flush; returns the line touches.
  std::uint64_t run() {
    const std::uint64_t touches =
        fft::s1cf_combined_replay(m, 0, 0, dims, buf, false).line_touches;
    m.flush_socket(0);
    return touches;
  }
};

}  // namespace

static void BM_ResortReplay(benchmark::State& state) {
  ResortLeg leg;
  std::uint64_t touches = 0;
  for (auto _ : state) touches += leg.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(touches));
}
BENCHMARK(BM_ResortReplay);

// ------------------------------------------------------- JSON summary mode

namespace {

using BenchClock = std::chrono::steady_clock;

double seconds_since(BenchClock::time_point t0) {
  return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

/// Replay the canonical 1-load/1-store copy loop serially for ~budget_sec
/// and report simulated line touches (cache-line accesses) per wall second.
double sequential_accesses_per_sec(double budget_sec) {
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  sim::LoopDesc loop;
  loop.iterations = 1 << 16;
  loop.streams = {{1 << 20, 8, 8, sim::AccessKind::Load},
                  {1 << 26, 8, 8, sim::AccessKind::Store}};
  std::uint64_t touches = 0;
  const auto t0 = BenchClock::now();
  double elapsed = 0.0;
  do {
    touches += m.engine(0, 0).execute(loop).line_touches;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_sec);
  return static_cast<double>(touches) / elapsed;
}

/// The S1CF strided-store re-sort (ResortLeg) for ~budget_sec, line touches
/// per wall second including the socket flush after each replay.
double resort_accesses_per_sec(double budget_sec) {
  ResortLeg leg;
  std::uint64_t touches = 0;
  const auto t0 = BenchClock::now();
  double elapsed = 0.0;
  do {
    touches += leg.run();
    elapsed = seconds_since(t0);
  } while (elapsed < budget_sec);
  return static_cast<double>(touches) / elapsed;
}

/// One leg of the SPE-overhead comparison: the canonical copy loop with an
/// optional SpeCollector attached (period == 0 -> uninstrumented baseline).
/// Each leg keeps its own machine state across timing slices so the legs
/// can be measured interleaved.
struct SpeOverheadLeg {
  sim::Machine m{sim::MachineConfig::summit()};
  std::unique_ptr<spe::SpeCollector> collector;
  sim::LoopDesc loop;
  std::vector<spe::Sample> drained;
  std::uint64_t touches = 0;
  double elapsed = 0.0;

  explicit SpeOverheadLeg(std::uint64_t period) {
    m.set_noise_enabled(false);
    if (period != 0) {
      spe::SpeConfig cfg;
      cfg.period = period;
      collector = std::make_unique<spe::SpeCollector>(m, cfg);
    }
    loop.iterations = 1 << 16;
    loop.streams = {{1 << 20, 8, 8, sim::AccessKind::Load},
                    {1 << 26, 8, 8, sim::AccessKind::Store}};
  }

  void run_slice(double slice_sec, bool record) {
    const auto t0 = BenchClock::now();
    std::uint64_t t = 0;
    double e = 0.0;
    do {
      t += m.engine(0, 0).execute(loop).line_touches;
      if (collector != nullptr) {
        drained.clear();
        collector->drain_into(drained);  // keep the ring from saturating
      }
      e = seconds_since(t0);
    } while (e < slice_sec);
    if (record) {
      touches += t;
      elapsed += e;
    }
  }

  double rate() const {
    return elapsed > 0.0 ? static_cast<double>(touches) / elapsed : 0.0;
  }
};

struct SpeOverheadResult {
  double baseline = 0.0;  ///< one shared baseline, reused for both periods
  double spe_1024 = 0.0;
  double spe_64 = 0.0;
  spe::SpeCollector::Totals totals_1024, totals_64;
};

/// Measures the uninstrumented baseline and both SPE-instrumented variants
/// with a shared warmup pass and interleaved round-robin timing slices, and
/// reuses the single baseline rate for both periods' overhead columns.
/// Measuring the legs back to back used to report *negative* SPE overhead
/// (-13.5% at period 1024): the baseline ran first and cold while the
/// instrumented legs inherited a warmed-up process (hot caches, ramped
/// clocks), an artifact of measurement order rather than of the SPE hook.
SpeOverheadResult measure_spe_overhead(double budget_sec) {
  SpeOverheadLeg baseline(0), spe_1024(1024), spe_64(64);
  SpeOverheadLeg* legs[] = {&baseline, &spe_1024, &spe_64};
  for (SpeOverheadLeg* leg : legs) leg->run_slice(0.05, /*record=*/false);
  const double slice_sec = 0.02;
  const int rounds = std::max(
      1, static_cast<int>(budget_sec / (3.0 * slice_sec)));
  for (int r = 0; r < rounds; ++r) {
    for (SpeOverheadLeg* leg : legs) leg->run_slice(slice_sec, /*record=*/true);
  }
  SpeOverheadResult res;
  res.baseline = baseline.rate();
  res.spe_1024 = spe_1024.rate();
  res.spe_64 = spe_64.rate();
  res.totals_1024 = spe_1024.collector->totals();
  res.totals_64 = spe_64.collector->totals();
  return res;
}

/// Batched literal GEMM replay on `threads` host threads, accesses/sec.
double parallel_accesses_per_sec(std::uint32_t threads, double budget_sec) {
  sim::Machine m(sim::MachineConfig::summit());
  m.set_noise_enabled(false);
  // Same [1, cores] clamp as BM_ParallelGemmReplay: threads == 0 would wrap
  // the ThreadPool worker count below.
  threads = std::min(std::max(threads, 1u), m.cores_per_socket());
  m.set_active_cores(0, threads);
  const std::uint64_t n = 160;
  std::vector<kernels::GemmBuffers> bufs;
  bufs.reserve(threads);
  for (std::uint32_t c = 0; c < threads; ++c) {
    bufs.push_back(kernels::GemmBuffers::allocate(m.address_space(), n));
  }
  sim::ThreadPool pool(threads - 1);
  std::uint64_t touches = 0;
  const auto t0 = BenchClock::now();
  double elapsed = 0.0;
  do {
    for (std::uint32_t c = 0; c < threads; ++c) {
      m.engine(0, c).set_deferred_time(true);
    }
    std::atomic<std::uint64_t> batch{0};
    pool.parallel_for(threads, [&](std::uint32_t c) {
      batch.fetch_add(kernels::run_gemm(m, 0, c, n, bufs[c]).line_touches,
                      std::memory_order_relaxed);
    });
    double max_ns = 0.0;
    for (std::uint32_t c = 0; c < threads; ++c) {
      max_ns = std::max(max_ns, m.engine(0, c).take_deferred_time_ns());
      m.engine(0, c).set_deferred_time(false);
    }
    m.advance(max_ns);
    m.flush_socket(0);
    touches += batch.load(std::memory_order_relaxed);
    elapsed = seconds_since(t0);
  } while (elapsed < budget_sec);
  return static_cast<double>(touches) / elapsed;
}

/// One size of the fig3 batched-GEMM sweep measured twice on fresh stacks:
/// full replay (every Eq. 5 repetition simulated, `literal_reps`) vs
/// SampledReplay.  Noise is off, so the traffic comparison is exact
/// methodology error, not jitter.
struct SampledSweepPoint {
  std::uint64_t n = 0;
  std::uint32_t reps = 0;
  double full_wall_sec = 0.0, sampled_wall_sec = 0.0;
  double full_bytes = 0.0, sampled_bytes = 0.0;
  double err_pct = 0.0, speedup_x = 0.0;
  std::uint32_t reps_replayed = 0, reps_extrapolated = 0;
  std::uint32_t clusters = 0, fallbacks = 0;
};

/// Every channel's read/write bytes and ops, one line per channel.
std::string channel_dump(const sim::MemController& mc) {
  std::string out;
  for (std::uint32_t ch = 0; ch < mc.channels(); ++ch) {
    out += "  ch" + std::to_string(ch) +
           " read=" + std::to_string(mc.channel_bytes(ch, sim::MemDir::Read)) +
           " write=" + std::to_string(mc.channel_bytes(ch, sim::MemDir::Write)) +
           " read_ops=" + std::to_string(mc.channel_ops(ch, sim::MemDir::Read)) +
           " write_ops=" + std::to_string(mc.channel_ops(ch, sim::MemDir::Write)) +
           "\n";
  }
  return out;
}

/// `channels`, if given, receives the socket's channel_dump() afterwards.
kernels::Measurement measure_gemm_leg(std::uint64_t n, bool sampled,
                                      double* wall_sec,
                                      std::string* channels = nullptr) {
  sim::Machine machine(sim::MachineConfig::summit());
  machine.set_noise_enabled(false);
  pcp::Pmcd daemon(machine);
  pcp::PcpClient client(daemon, machine, machine.user_credentials());
  Library lib;
  lib.register_component(std::make_unique<components::PcpComponent>(client));
  kernels::KernelRunner runner(machine, lib, "pcp",
                               machine.config().cpus_per_socket() - 1);
  const kernels::GemmBuffers buf =
      kernels::GemmBuffers::allocate(machine.address_space(), n);
  kernels::RunnerOptions opt;
  opt.reps = kernels::repetitions_for(n);
  opt.batched = true;
  opt.strategy = sampled ? kernels::ReplayMode::Sampled : kernels::ReplayMode::Full;
  opt.literal_reps = !sampled;
  const auto t0 = BenchClock::now();
  const kernels::Measurement m = runner.measure(
      [&](std::uint32_t core) { kernels::run_gemm(machine, 0, core, n, buf); },
      opt);
  *wall_sec = seconds_since(t0);
  if (channels != nullptr) *channels = channel_dump(machine.memctrl(0));
  return m;
}

std::vector<SampledSweepPoint> sampled_replay_sweep() {
  std::vector<SampledSweepPoint> points;
  for (const std::uint64_t n : {std::uint64_t{64}, std::uint64_t{96},
                                std::uint64_t{128}}) {
    SampledSweepPoint p;
    p.n = n;
    p.reps = kernels::repetitions_for(n);
    const kernels::Measurement full =
        measure_gemm_leg(n, /*sampled=*/false, &p.full_wall_sec);
    const kernels::Measurement sampled =
        measure_gemm_leg(n, /*sampled=*/true, &p.sampled_wall_sec);
    p.full_bytes = full.read_bytes + full.write_bytes;
    p.sampled_bytes = sampled.read_bytes + sampled.write_bytes;
    p.err_pct = p.full_bytes > 0.0
                    ? std::abs(p.sampled_bytes - p.full_bytes) / p.full_bytes * 100.0
                    : 0.0;
    p.speedup_x = p.sampled_wall_sec > 0.0 ? p.full_wall_sec / p.sampled_wall_sec
                                           : 0.0;
    p.reps_replayed = sampled.reps_replayed;
    p.reps_extrapolated = sampled.reps_extrapolated;
    p.clusters = sampled.clusters;
    p.fallbacks = sampled.resample_fallbacks;
    points.push_back(p);
  }
  return points;
}

int emit_bench_json(const std::string& path) {
  const double seq = sequential_accesses_per_sec(0.25);
  const double resort = resort_accesses_per_sec(0.25);
  const double par8 = parallel_accesses_per_sec(8, 0.5);

  // Warmed, interleaved measurement with one shared baseline: the overhead
  // columns can no longer go negative from measurement order alone.  Any
  // residual scheduling noise is floored at zero.
  SpeOverheadResult spe_res;
  if (spe::kEnabled) spe_res = measure_spe_overhead(0.75);
  const auto overhead_pct = [&](double with_spe) {
    return spe_res.baseline > 0 && with_spe > 0
               ? std::max(0.0, (spe_res.baseline / with_spe - 1.0) * 100.0)
               : 0.0;
  };

  std::vector<SampledSweepPoint> sampled_points;
  if (g_sampled) sampled_points = sampled_replay_sweep();

  probe::ProbeOptions curated;
  const auto t_curated = BenchClock::now();
  const auto curated_reports = probe::run_all_probes(curated);
  const double curated_ms = seconds_since(t_curated) * 1e3;

  probe::ProbeOptions full;
  full.full_grid = true;
  const auto t_full = BenchClock::now();
  const auto full_reports = probe::run_all_probes(full);
  const double full_ms = seconds_since(t_full) * 1e3;

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open '" << path << "' for writing\n";
    return 1;
  }
  out << "{\n  \"bench_sim\": 1,\n";
  out << "  \"machine\": \"" << json_escape(curated.machine.name) << "\",\n";
  out << "  \"accesses_per_sec\": {\n";
  out << "    \"sequential_replay\": " << static_cast<std::uint64_t>(seq)
      << ",\n";
  out << "    \"resort_replay\": " << static_cast<std::uint64_t>(resort)
      << ",\n";
  out << "    \"parallel_gemm_replay_8t\": " << static_cast<std::uint64_t>(par8)
      << "\n  },\n";
  out << "  \"spe\": {\n";
  out << "    \"enabled\": " << (spe::kEnabled ? "true" : "false") << ",\n";
  out << "    \"interleaved_warmed_baseline\": "
      << static_cast<std::uint64_t>(spe_res.baseline) << ",\n";
  out << "    \"sequential_replay_period_1024\": "
      << static_cast<std::uint64_t>(spe_res.spe_1024) << ",\n";
  out << "    \"sequential_replay_period_64\": "
      << static_cast<std::uint64_t>(spe_res.spe_64) << ",\n";
  out << "    \"overhead_pct_period_1024\": " << overhead_pct(spe_res.spe_1024)
      << ",\n";
  out << "    \"overhead_pct_period_64\": " << overhead_pct(spe_res.spe_64)
      << ",\n";
  out << "    \"samples_period_64\": " << spe_res.totals_64.samples << ",\n";
  out << "    \"drops_period_64\": " << spe_res.totals_64.drops << "\n  },\n";
  if (g_sampled) {
    double full_wall = 0.0, sampled_wall = 0.0, max_err = 0.0;
    for (const SampledSweepPoint& p : sampled_points) {
      full_wall += p.full_wall_sec;
      sampled_wall += p.sampled_wall_sec;
      max_err = std::max(max_err, p.err_pct);
    }
    const double speedup = sampled_wall > 0.0 ? full_wall / sampled_wall : 0.0;
    out << "  \"sampled_replay\": {\n";
    out << "    \"strategy\": \"signature-clustered sampling (DESIGN.md 3i)\",\n";
    out << "    \"noise\": false,\n";
    out << "    \"error_bound_pct\": 2.0,\n";
    out << "    \"sampled_speedup_x\": " << speedup << ",\n";
    out << "    \"max_err_pct\": " << max_err << ",\n";
    out << "    \"sweep\": [\n";
    for (std::size_t i = 0; i < sampled_points.size(); ++i) {
      const SampledSweepPoint& p = sampled_points[i];
      out << "      {\"n\": " << p.n << ", \"reps\": " << p.reps
          << ", \"full_wall_ms\": " << p.full_wall_sec * 1e3
          << ", \"sampled_wall_ms\": " << p.sampled_wall_sec * 1e3
          << ", \"speedup_x\": " << p.speedup_x
          << ", \"err_pct\": " << p.err_pct
          << ", \"reps_replayed\": " << p.reps_replayed
          << ", \"reps_extrapolated\": " << p.reps_extrapolated
          << ", \"clusters\": " << p.clusters
          << ", \"resample_fallbacks\": " << p.fallbacks << "}"
          << (i + 1 < sampled_points.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n";
  }
  out << "  \"probe_grid\": {\n";
  out << "    \"curated_wall_ms\": " << curated_ms << ",\n";
  out << "    \"curated_confirmed\": "
      << (probe::all_confirmed(curated_reports) ? "true" : "false") << ",\n";
  out << "    \"full_wall_ms\": " << full_ms << ",\n";
  out << "    \"full_confirmed\": "
      << (probe::all_confirmed(full_reports) ? "true" : "false") << ",\n";
  out << "    \"mechanisms\": [\n";
  for (std::size_t i = 0; i < full_reports.size(); ++i) {
    out << "      {\"mechanism\": \"" << json_escape(full_reports[i].mechanism)
        << "\", \"wall_ms\": " << full_reports[i].wall_ms << "}"
        << (i + 1 < full_reports.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }\n}\n";
  std::cout << "wrote " << path << " (seq " << static_cast<std::uint64_t>(seq)
            << " acc/s, resort " << static_cast<std::uint64_t>(resort)
            << " acc/s, 8t " << static_cast<std::uint64_t>(par8)
            << " acc/s, probe full grid " << full_ms << " ms)\n";
  return probe::all_confirmed(curated_reports) &&
                 probe::all_confirmed(full_reports)
             ? 0
             : 1;
}

/// The canonical 1-load/1-store copy loop replayed 8 times on core 0, then
/// the socket flushed; with noise on, every replay also accrues background
/// traffic and each one a repetition and a measurement overhead, all spread
/// over the channels.
std::uint64_t copy_loop_leg(sim::Machine& m, bool noise) {
  m.set_noise_enabled(noise);
  sim::LoopDesc loop;
  loop.iterations = 1 << 16;
  loop.streams = {{1 << 20, 8, 8, sim::AccessKind::Load},
                  {1 << 26, 8, 8, sim::AccessKind::Store}};
  std::uint64_t touches = 0;
  for (int i = 0; i < 8; ++i) {
    touches += m.engine(0, 0).execute(loop).line_touches;
    if (noise) {
      m.noise(0).repetition_overhead();
      m.noise(0).measurement_overhead();
    }
  }
  m.flush_socket(0);
  return touches;
}

/// The Fig. 5 capped GEMV (M = 5120 rows over a P = 1280 x N = 1280 matrix,
/// 13 MB re-read four times) on one active core of a noise-off socket, then
/// the socket flushed.  Its matrix spills the 5 MB slice into the idle
/// cores' slices, so this is the leg that drives lateral cast-out, victim
/// recovery and the retention draw.
struct CappedGemvLeg {
  sim::Machine m{sim::MachineConfig::summit()};
  std::uint64_t run() {
    m.set_noise_enabled(false);
    m.set_active_cores(0, 1);
    constexpr std::uint64_t kRows = 5120, kN = 1280;
    const kernels::GemvBuffers buf =
        kernels::GemvBuffers::allocate(m.address_space(), kRows, kN, kN);
    const std::uint64_t touches =
        kernels::run_capped_gemv(m, 0, 0, kRows, kN, kN, buf).line_touches;
    m.flush_socket(0);
    return touches;
  }
};

/// --traffic-fingerprint: exact simulated traffic of fixed workloads.
/// Everything printed is a deterministic function of the simulation (fixed
/// sizes/reps/seeds, serial replay; the noise leg's jitter stream is seeded)
/// -- no wall-clock times, no rates -- so two builds that simulate
/// identically print identical bytes.  CI diffs it against the checked-in
/// bench/traffic_fingerprint.txt in the default build and with each
/// compile-out layer (PAPISIM_TRACE, PAPISIM_SPE, PAPISIM_SELFMON) off.
int emit_traffic_fingerprint() {
  std::cout << "traffic-fingerprint v3\n";
  for (const std::uint64_t n :
       {std::uint64_t{64}, std::uint64_t{128}, std::uint64_t{256}}) {
    for (const bool sampled : {false, true}) {
      double wall = 0.0;  // measured but deliberately not printed
      std::string channels;
      const kernels::Measurement m = measure_gemm_leg(n, sampled, &wall, &channels);
      std::cout << "gemm n=" << n << " mode=" << (sampled ? "sampled" : "full")
                << " reps=" << kernels::repetitions_for(n)
                << " threads=" << m.threads << " read="
                << static_cast<std::uint64_t>(std::llround(m.read_bytes))
                << " write="
                << static_cast<std::uint64_t>(std::llround(m.write_bytes))
                << " replayed=" << m.reps_replayed
                << " extrapolated=" << m.reps_extrapolated
                << " clusters=" << m.clusters
                << " fallbacks=" << m.resample_fallbacks << "\n"
                << channels;
    }
  }
  for (const bool noise : {false, true}) {
    sim::Machine m(sim::MachineConfig::summit());
    const std::uint64_t touches = copy_loop_leg(m, noise);
    const sim::MemController& mc = m.memctrl(0);
    std::cout << "loop noise=" << (noise ? "on" : "off") << " touches=" << touches
              << " read=" << mc.total_bytes(sim::MemDir::Read)
              << " write=" << mc.total_bytes(sim::MemDir::Write)
              << " read_ops=" << mc.total_ops(sim::MemDir::Read)
              << " write_ops=" << mc.total_ops(sim::MemDir::Write) << "\n"
              << channel_dump(mc);
  }
  {
    ResortLeg leg;
    const std::uint64_t touches = leg.run();
    const sim::MemController& mc = leg.m.memctrl(0);
    std::cout << "s1cf touches=" << touches
              << " read=" << mc.total_bytes(sim::MemDir::Read)
              << " write=" << mc.total_bytes(sim::MemDir::Write)
              << " read_ops=" << mc.total_ops(sim::MemDir::Read)
              << " write_ops=" << mc.total_ops(sim::MemDir::Write) << "\n"
              << channel_dump(mc);
  }
  {
    CappedGemvLeg leg;
    const std::uint64_t touches = leg.run();
    const sim::MemController& mc = leg.m.memctrl(0);
    std::cout << "gemv lone touches=" << touches
              << " victim_recoveries=" << leg.m.l3(0).victim_recoveries()
              << " retention_misses=" << leg.m.l3(0).victim_retention_misses()
              << " read=" << mc.total_bytes(sim::MemDir::Read)
              << " write=" << mc.total_bytes(sim::MemDir::Write)
              << " read_ops=" << mc.total_ops(sim::MemDir::Read)
              << " write_ops=" << mc.total_ops(sim::MemDir::Write) << "\n"
              << channel_dump(mc);
  }
  return 0;
}

}  // namespace

// Wall cost of one complete KernelRunner measurement of a fig3 batched-GEMM
// point (Eq. 5 repetitions): full literal replay by default, SampledReplay
// under --sampled.  The suite-mode view of the JSON sweep's speedup column.
static void BM_GemmMeasure(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t replayed = 0, extrapolated = 0;
  for (auto _ : state) {
    double wall = 0.0;
    const kernels::Measurement m = measure_gemm_leg(n, g_sampled, &wall);
    benchmark::DoNotOptimize(m.read_bytes);
    replayed += m.reps_replayed;
    extrapolated += m.reps_extrapolated;
  }
  state.counters["reps_replayed"] =
      static_cast<double>(replayed) / static_cast<double>(state.iterations());
  state.counters["reps_extrapolated"] =
      static_cast<double>(extrapolated) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_GemmMeasure)->Arg(64)->Unit(benchmark::kMillisecond);

// Custom main: strip `--threads N` / `--threads=N`, `--sampled`, and
// `--bench-json PATH` before google-benchmark parses the remaining flags.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  std::string bench_json;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--threads" && i + 1 < argc) {
      g_threads_override = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      continue;
    }
    if (a.starts_with("--threads=")) {
      g_threads_override =
          static_cast<std::uint32_t>(std::atoi(argv[i] + sizeof("--threads=") - 1));
      continue;
    }
    if (a == "--sampled") {
      g_sampled = true;
      continue;
    }
    if (a == "--traffic-fingerprint") {
      return emit_traffic_fingerprint();
    }
    if (a == "--bench-json" && i + 1 < argc) {
      bench_json = argv[++i];
      continue;
    }
    if (a.starts_with("--bench-json=")) {
      bench_json = argv[i] + sizeof("--bench-json=") - 1;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!bench_json.empty()) return emit_bench_json(bench_json);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
