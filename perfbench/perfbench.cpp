// perfbench: the repo benchmark binary (workloads, correctness gates,
// end-to-end metrics and the traced per-layer ledger).  See NOTES.md for why
// each workload exists and which ROADMAP item it serves; run it through
// run.py, which builds this binary from the checkout first.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1
//             [--max-iterations K] [--perturb-reference] [--commit C]
//             [--out-dir D]
//
// Every iteration of a workload builds a stack (timed: set-up; gemm_parallel
// builds one per run), runs the workload's fixed work (timed: run), checks
// the outputs, and then runs the PCP probe.  Iterations repeat until
// --seconds is spent (at least three).  The last line of standard output is
// the result object.
//
// The simulated machine is a model of Summit's POWER9 node; it has not been
// validated against hardware, so the simulated statistics here are checked
// for determinism against recorded references, not for accuracy.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/footprint.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/report.hpp"
#include "analysis/score.hpp"
#include "analysis/span_report.hpp"
#include "components/infiniband_component.hpp"
#include "components/nvml_component.hpp"
#include "components/pcp_component.hpp"
#include "components/perf_nest_component.hpp"
#include "core/library.hpp"
#include "core/profiler.hpp"
#include "core/sampler.hpp"
#include "fft/fft3d.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/expected.hpp"
#include "kernels/runner.hpp"
#include "ledger.hpp"
#include "nest/nest_pmu.hpp"
#include "pcp/client.hpp"
#include "pcp/pmcd.hpp"
#include "qmc/qmc_app.hpp"
#include "sim/cache.hpp"
#include "sim/rng.hpp"
#include "spe/collector.hpp"
#include "trace/recorder.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace papisim;

// ---------------------------------------------------------------------------
// Workload inputs and recorded references.

/// One KernelRunner measurement point: a lone core (batched = false) or a
/// batched socket (one kernel per core).  GEMM sizes 128 and 256 sit below the
/// Eqs. 3/4 cache band (N in [467, 809] for the 5 MB slice).  The band's own
/// GEMM sizes cost about 6 s per point, so the lone core's spill into idle
/// cores' slices (lateral cast-out, victim store) is exercised by the Fig. 5
/// capped GEMV instead: its 13 MB matrix is re-read four times for ~0.1 s.
struct KernelPoint {
  enum class Kernel : std::uint8_t { Gemm, CappedGemv };
  Kernel kernel = Kernel::Gemm;
  bool batched = false;
  std::uint64_t n = 0;  ///< GEMM N; capped GEMV N = P (A is P x N)
  std::uint64_t m = 0;  ///< capped GEMV rows
  double read_ref = 0;  ///< noise-off bytes per repetition, recorded at the seed commit
  double write_ref = 0;
};

using K = KernelPoint::Kernel;
constexpr std::uint64_t kGemvN = 1280, kGemvM = 4 * kGemvN;

const std::vector<KernelPoint> kSerialPoints = {
    {K::Gemm, false, 128, 0, 393216, 131072},
    {K::Gemm, false, 256, 0, 1572864, 524288},
    {K::Gemm, true, 128, 0, 8257536, 2752512},
    {K::Gemm, true, 256, 0, 33030144, 11010048},
    {K::CappedGemv, false, kGemvN, kGemvM, 13555840, 40960},
};

/// gemm_parallel replays every core of the batch literally; its reference is
/// the symmetric-batch (one representative, scaled) result for the same N.
const std::vector<KernelPoint> kParallelPoints = {
    {K::Gemm, true, 128, 0, 8257536, 2752512},
    {K::Gemm, true, 256, 0, 33030144, 11010048},
};

/// app_profile: Fig. 11 3D-FFT rank at n=1024 on the 8x8 grid with GPU
/// offload; ticks_per_phase = 140 gives ~2100 sampler rows per iteration, so
/// the per-iteration sample p99 has ~20 samples beyond it.
constexpr std::uint64_t kFftN = 1024;
constexpr std::uint32_t kFftTicksPerPhase = 140;
constexpr std::uint64_t kSpePeriod = 1024;

struct PhaseRef {
  const char* name;
  std::uint64_t read, write;
};
const std::vector<PhaseRef> kFftPhaseRefs = {
    {"resort1_S1CF", 536870912, 265793152},   {"fft_z", 0, 0},
    {"all2all_1", 0, 0},                      {"resort2_S2CF", 268427904, 271077760},
    {"fft_y", 0, 0},                          {"all2all_2", 0, 0},
    {"resort3_S1PF", 1342177280, 1069536960}, {"fft_x", 0, 0},
    {"resort4_S2PF", 268435456, 272640320},
};

/// Segmentation scores recorded at the seed commit.  (At ticks_per_phase = 70
/// the same profile matched 7 of 8 boundaries at 99.37% label accuracy.)
struct ScoreRef {
  std::size_t matched, truth;
  double label_accuracy;
};
constexpr ScoreRef kFftScoreRef = {8, 8, 1.0};
constexpr ScoreRef kQmcScoreRef = {2, 2, 1.0};

/// The PCP probe: rounds per iteration, fetches per tenant per round, and the
/// fewest Sampler calls per round.  Each round is one slice of the fetch and
/// sample metrics, and the program's span rings are drained between rounds.
constexpr std::uint32_t kProbeRounds = 3;
constexpr std::uint32_t kProbeFetches = 5000;
constexpr std::uint32_t kMinProbeSamples = 1000;
constexpr std::uint32_t kHotKeys = 4;  ///< one-metric keys the tenants share
constexpr std::uint32_t kMinIterations = 3;
constexpr std::uint32_t kMinSetups = 5;
/// Stated tolerance for reconciling the traced ledger with untraced run_s.
constexpr double kReconcileTolPct = 10.0;

// ---------------------------------------------------------------------------
// Small utilities.

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string mba_event(std::uint32_t ch, bool write, std::uint32_t cpu) {
  const std::string c = std::to_string(ch);
  return "pcp:::perfevent.hwcounters.nest_mba" + c + "_imc.PM_MBA" + c +
         (write ? "_WRITE_BYTES" : "_READ_BYTES") + ".value:cpu" + std::to_string(cpu);
}

// ---------------------------------------------------------------------------
// The Summit software stack, built as bench/bench_util.hpp's SummitStack
// builds it (machine, PMCD with default options, user client, PCP and
// perf_nest components), with set-up spans around the machine and daemon.

struct Stack {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<pcp::Pmcd> daemon;
  std::unique_ptr<pcp::PcpClient> client;
  Library lib;
  /// Socket-0 nest counters (8 read, then 8 write channels) when the daemon
  /// started: the daemon reports values relative to these.
  std::vector<std::uint64_t> baseline;

  Stack(Ledger& ledger, bool noise) {
    {
      Ledger::Scope s(ledger, Layer::SetupMachine);
      machine = std::make_unique<sim::Machine>(sim::MachineConfig::summit());
      machine->set_noise_enabled(noise);
    }
    {
      Ledger::Scope s(ledger, Layer::SetupPmcd);
      baseline = nest_now();
      daemon = std::make_unique<pcp::Pmcd>(*machine);
      client = std::make_unique<pcp::PcpClient>(*daemon, *machine,
                                                machine->user_credentials());
    }
    lib.register_component(std::make_unique<components::PcpComponent>(*client));
    lib.register_component(std::make_unique<components::PerfNestComponent>(
        *machine, machine->user_credentials()));
  }

  std::uint32_t measure_cpu(std::uint32_t socket = 0) const {
    return (socket + 1) * machine->config().cpus_per_socket() - 1;
  }

  /// Privileged socket-0 nest counter read (8 read, 8 write channels).
  std::vector<std::uint64_t> nest_now() const {
    nest::NestPmu pmu(*machine, sim::Credentials::root());
    std::vector<std::uint64_t> v;
    for (const auto kind : {nest::NestEventKind::ReadBytes, nest::NestEventKind::WriteBytes}) {
      for (const std::uint64_t x : pmu.read_socket(0, kind)) v.push_back(x);
    }
    return v;
  }

  /// What the daemon should report now for each of the 16 metrics.
  std::vector<std::uint64_t> expected_fetch() const {
    std::vector<std::uint64_t> v = nest_now();
    for (std::size_t i = 0; i < v.size(); ++i) v[i] -= baseline[i];
    return v;
  }

  /// The 16 MBA pmids (8 read, then 8 write), looked up in the PMNS.
  std::vector<pcp::PmId> lookup_pmids(pcp::ClientId id) {
    std::vector<pcp::PmId> out;
    for (const auto kind : {nest::NestEventKind::ReadBytes, nest::NestEventKind::WriteBytes}) {
      for (std::uint32_t ch = 0; ch < machine->config().mem_channels; ++ch) {
        const pcp::LookupReply r = daemon->lookup(pcp::Pmns::metric_name(ch, kind), id);
        if (!r.ok || !r.pmid) throw std::runtime_error("PMNS lookup failed");
        out.push_back(*r.pmid);
      }
    }
    return out;
  }
};

/// Exact simulator counts (both sockets, all cores).
struct SimCounts {
  std::uint64_t touches = 0, l3_hits = 0, victim_hits = 0;
  std::uint64_t mem_read = 0, mem_write = 0;
  std::uint64_t bypassed = 0, allocated = 0;  ///< from the LoopStats the benchmark sees

  static SimCounts of(sim::Machine& m) {
    SimCounts c;
    for (std::uint32_t s = 0; s < m.sockets(); ++s) {
      for (std::uint32_t k = 0; k < m.cores_per_socket(); ++k) {
        const sim::CoreCounters& cc = m.engine(s, k).counters();
        c.touches += cc.line_touches;
        c.l3_hits += cc.l3_hits;
        c.victim_hits += cc.victim_hits;
      }
      c.mem_read += m.memctrl(s).total_bytes(sim::MemDir::Read);
      c.mem_write += m.memctrl(s).total_bytes(sim::MemDir::Write);
    }
    return c;
  }
  SimCounts minus(const SimCounts& o) const {
    return {touches - o.touches,   l3_hits - o.l3_hits,     victim_hits - o.victim_hits,
            mem_read - o.mem_read, mem_write - o.mem_write, bypassed - o.bypassed,
            allocated - o.allocated};
  }
  void add_loop(const sim::LoopStats& s) {
    bypassed += s.bypassed_store_lines;
    allocated += s.allocated_store_lines;
  }
  bool operator==(const SimCounts&) const = default;
};

struct PcpCounts {
  std::uint64_t served = 0, coalesced = 0, cache_hits = 0, cache_misses = 0, shed = 0;
  static PcpCounts of(const pcp::Pmcd& d) {
    return {d.requests_served(), d.coalesced(), d.cache_hits(), d.cache_misses(), d.shed()};
  }
  PcpCounts minus(const PcpCounts& o) const {
    return {served - o.served, coalesced - o.coalesced, cache_hits - o.cache_hits,
            cache_misses - o.cache_misses, shed - o.shed};
  }
};

// ---------------------------------------------------------------------------
// Run state shared by the workloads.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool perturb = false;  ///< self-test: shift every reference, expect failures
  std::uint32_t max_iterations = 0;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
  std::uint32_t nproc = 1;    ///< host cores
  std::uint32_t threads = 1;  ///< host threads the workload drives (set per workload)
};

struct Run {
  Options opt;
  Ledger ledger;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  ///< first few mismatch descriptions

  // Per-iteration timings.
  std::vector<double> setup_s, run_s, run_s_traced;
  // Latency percentiles and fetch rates of every probe round; the reported
  // value is their median, so a burst of host interference in one round is
  // filtered out.
  std::vector<double> sample_p50, sample_p99, fetch_p50, fetch_p99, fetch_rate;
  /// app_profile's own Sampler/Profiler ticks (per-layer: its tail moves
  /// several-fold with host load, see NOTES.md).
  std::vector<double> profile_p50, profile_p99;

  // Traced iterations: roots and extras.
  std::vector<std::uint64_t> setup_roots;
  std::vector<std::vector<std::uint64_t>> bench_roots;  ///< per traced iteration
  std::vector<trace::Span> program_spans;
  bool have_counts = false;
  SimCounts counts;
  PcpCounts pcp;  ///< the daemon's counts over the last iteration's probe
  std::uint64_t reps_replayed = 0, reps_extrapolated = 0;
  std::uint64_t spe_samples = 0, spe_drops = 0;
  double ladder_cache_ns = 0, ladder_l3_ns = 0, ladder_engine_ns = 0;
  std::uint64_t ladder_sink = 0;
  bool traced_iteration = false;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }

  double ref(double v) const { return opt.perturb ? v + 64 : v; }

  long last_run_faults = 0;  ///< minor page faults inside the last timed run
  void record_run(double seconds, long faults) {
    (traced_iteration ? run_s_traced : run_s).push_back(seconds);
    last_run_faults = faults;
  }

  void record_samples(const std::vector<double>& lat_us) {
    sample_p50.push_back(percentile(lat_us, 0.50));
    sample_p99.push_back(percentile(lat_us, 0.99));
  }
  void record_fetches(const std::vector<double>& lat_us, double per_s) {
    fetch_p50.push_back(percentile(lat_us, 0.50));
    fetch_p99.push_back(percentile(lat_us, 0.99));
    fetch_rate.push_back(per_s);
  }

  /// Counts must repeat exactly across iterations (the simulator is
  /// deterministic); the first iteration's are reported.
  void record_counts(const SimCounts& c) {
    if (!have_counts) {
      counts = c;
      have_counts = true;
      return;
    }
    check(c == counts, "simulated counts differ between iterations");
  }

  /// Consume the program's own spans (trace::dump_all's source) so its rings
  /// never fill; kept only in traced iterations.
  void drain_program_spans() {
    std::vector<trace::Span> spans = trace::drain();
    if (traced_iteration) {
      program_spans.insert(program_spans.end(), spans.begin(), spans.end());
    }
  }
};

// ---------------------------------------------------------------------------
// Closed-loop PMCD tenants.  Each tenant is a thread registered with
// register_client().  With zero think time it alternates a one-metric fetch
// of one of kHotKeys keys every tenant shares (the coalescing path) with a
// 16-metric fetch of all channels (the PcpComponent shape); the seed picks
// each tenant's key sequence.  The simulator is quiet while tenants run, so
// every value must equal the counter state read when they were set up.

struct TenantRound {
  std::vector<double> lat_us;
  std::uint64_t failed = 0;
  double wall_s = 0;

  void account(Run& run) const {
    run.attempted += lat_us.size();
    run.failed += failed;
    if (failed && run.failures.size() < 8) {
      run.failures.push_back("tenant fetches returned errors or wrong values");
    }
  }
};

class Tenants {
 public:
  Tenants(Stack& st, std::uint32_t count, std::uint64_t seed) : st_(st) {
    for (std::uint32_t t = 0; t < count; ++t) {
      ids_.push_back(st.daemon->register_client());
      rngs_.emplace_back(seed * 0x9e3779b97f4a7c15ull + t + 1);
    }
    pmids_ = st.lookup_pmids(ids_.front());
    expect_ = st.expected_fetch();
  }

  /// Every tenant issues `fetches` fetches on its own thread; `alongside`
  /// runs on the calling thread meanwhile.  `tenants_done` is set once every
  /// tenant has finished.
  TenantRound round(Run& run, std::uint32_t fetches, const std::function<void()>& alongside,
                    std::atomic<bool>& tenants_done) {
    const std::uint32_t cpu = st_.measure_cpu();
    const std::uint64_t perturb = run.opt.perturb ? 64 : 0;
    std::vector<TenantRound> out(ids_.size());
    std::atomic<std::size_t> running{ids_.size()};
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < ids_.size(); ++t) {
      threads.emplace_back([&, t] {
        TenantRound& o = out[t];
        o.lat_us.reserve(fetches);
        for (std::uint32_t f = 0; f < fetches; ++f) {
          const bool one = f % 2 == 0;
          const std::size_t key = one ? rngs_[t].next_u64() % kHotKeys : 0;
          const std::vector<pcp::PmId> req =
              one ? std::vector<pcp::PmId>{pmids_[key]} : pmids_;
          const std::uint64_t a = now_ns();
          bool ok = false;
          try {
            Ledger::Scope s(run.ledger, Layer::Pcp);
            const pcp::FetchReply r = st_.daemon->fetch(req, cpu, ids_[t]);
            ok = r.ok && r.values.size() == req.size();
            for (std::size_t k = 0; ok && k < req.size(); ++k) {
              ok = r.values[k] == expect_[one ? key : k] + perturb;
            }
          } catch (const std::exception&) {
            ok = false;
          }
          o.lat_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
          if (!ok) ++o.failed;
        }
        if (running.fetch_sub(1) == 1) tenants_done.store(true);
      });
    }
    alongside();
    for (std::thread& th : threads) th.join();
    TenantRound all;
    all.wall_s = now_s() - t0;
    for (const TenantRound& o : out) {
      all.lat_us.insert(all.lat_us.end(), o.lat_us.begin(), o.lat_us.end());
      all.failed += o.failed;
    }
    return all;
  }

 private:
  Stack& st_;
  std::vector<pcp::ClientId> ids_;
  std::vector<sim::SplitMix64> rngs_;
  std::vector<pcp::PmId> pmids_;
  std::vector<std::uint64_t> expect_;
};

/// The PCP probe, run after the fixed work and outside run_s.  In each of
/// kProbeRounds rounds, nproc - 1 tenants run kProbeFetches fetches each while
/// the calling thread samples the 16 MBA events through a Sampler.  Every
/// round is one slice of the sample_* and fetch_* metrics, and the daemon's
/// counts over the probe are the pcp.* per-layer counts.  Sampling while the
/// daemon serves other tenants is steadier on a small shared host than
/// sampling an idle daemon, whose workers must be woken for every request and
/// whose cost moved several-fold with host load (NOTES.md).
void probe(Run& run, Stack& st) {
  // Each sample's PCP round trip advances virtual time, and the noise model
  // would turn that into background traffic under the tenants' checks.
  st.machine->set_noise_enabled(false);
  const std::uint32_t tenants = std::max(1u, run.opt.nproc - 1);
  Tenants load(st, tenants, run.opt.seed ^ 0x70726f6265ull);
  auto es = st.lib.create_eventset();
  for (std::uint32_t ch = 0; ch < 8; ++ch) {
    es->add_event(mba_event(ch, false, st.measure_cpu()));
    es->add_event(mba_event(ch, true, st.measure_cpu()));
  }
  Sampler sampler(st.machine->clock());
  sampler.add_eventset(*es);
  sampler.start_all();
  const PcpCounts p0 = PcpCounts::of(*st.daemon);
  std::uint64_t samples = 0;
  for (std::uint32_t r = 0; r < kProbeRounds; ++r) {
    std::vector<double> lat;
    std::uint64_t sample_failed = 0;
    std::atomic<bool> done{false};
    const TenantRound fetched = load.round(run, kProbeFetches, [&] {
      // Sample for as long as the tenants run (at least kMinProbeSamples).
      while (lat.size() < kMinProbeSamples || !done.load()) {
        const std::uint64_t a = now_ns();
        try {
          Ledger::Scope s(run.ledger, Layer::Core);
          sampler.sample();
        } catch (const std::exception&) {
          ++sample_failed;
        }
        lat.push_back(static_cast<double>(now_ns() - a) * 1e-3);
      }
    }, done);
    fetched.account(run);
    run.attempted += lat.size();
    run.failed += sample_failed;
    samples += lat.size();
    run.record_fetches(fetched.lat_us, static_cast<double>(fetched.lat_us.size()) / fetched.wall_s);
    run.record_samples(lat);
    run.drain_program_spans();
  }
  sampler.stop_all();
  run.pcp = PcpCounts::of(*st.daemon).minus(p0);
  run.check(sampler.rows().size() == samples, "probe sampler rows");
}

// ---------------------------------------------------------------------------
// Layer ladder: one fixed access stream (the lone-core GEMM inner loops of
// 16 rows at N=256) replayed through CacheLevel::access alone, then through
// L3Fabric::load_line, then through the full AccessEngine::execute.  Each
// rung is timed three times on fresh state; the median is reported.

void layer_ladder(Run& run, sim::Machine& m) {
  constexpr std::uint64_t n = 256, rows = 16, line = 64;
  const kernels::GemmBuffers buf = kernels::GemmBuffers::allocate(m.address_space(), n);
  std::vector<std::uint64_t> lines;
  for (std::uint64_t i = 0; i < rows; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      std::uint64_t prev_a = ~0ull;
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t a = (buf.a + (i * n + k) * 8) / line;
        if (a != prev_a) lines.push_back(a);
        prev_a = a;
        lines.push_back((buf.b + k * n * 8 + j * 8) / line);
      }
    }
  }
  const sim::MachineConfig& cfg = m.config();
  std::vector<double> cache_ns, l3_ns, engine_ns;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    sim::CacheLevel cache(cfg.l3_slice_bytes, cfg.l3_associativity, cfg.line_bytes, true);
    std::uint64_t t0 = now_ns();
    for (const std::uint64_t l : lines) sink += cache.access(l, false).hit;
    cache_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(lines.size()));

    m.flush_all();
    sim::L3Fabric& l3 = m.l3(1);
    t0 = now_ns();
    for (const std::uint64_t l : lines) {
      sink += static_cast<std::uint64_t>(l3.load_line(0, l));
    }
    l3_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(lines.size()));

    m.flush_all();
    sim::AccessEngine& eng = m.engine(1, 0);
    sim::LoopDesc inner;
    inner.iterations = n;
    inner.flops_per_iter = 2.0;
    inner.streams = {{buf.a, 8, 8, sim::AccessKind::Load},
                     {buf.b, static_cast<std::int64_t>(8 * n), 8, sim::AccessKind::Load}};
    std::uint64_t touches = 0;
    t0 = now_ns();
    for (std::uint64_t i = 0; i < rows; ++i) {
      inner.streams[0].base = buf.a + i * n * 8;
      for (std::uint64_t j = 0; j < n; ++j) {
        inner.streams[1].base = buf.b + j * 8;
        touches += eng.execute(inner).line_touches;
      }
    }
    engine_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(touches));
  }
  run.ladder_cache_ns = median(cache_ns);
  run.ladder_l3_ns = median(l3_ns);
  run.ladder_engine_ns = median(engine_ns);
  run.ladder_sink = sink;  // keeps the timed loops observable
}

// ---------------------------------------------------------------------------
// Workloads.  Each builds its inputs from the seed only; every iteration of
// a run sees the same inputs.

/// Seeded measurement order and socket for a list of GEMM points.
std::vector<std::pair<KernelPoint, std::uint32_t>> gemm_plan(
    const std::vector<KernelPoint>& points, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::pair<KernelPoint, std::uint32_t>> plan;
  for (const KernelPoint& p : points) plan.emplace_back(p, 0);
  for (std::size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[rng.next_u64() % i]);
  }
  for (auto& [p, socket] : plan) socket = static_cast<std::uint32_t>(rng.next_u64() & 1);
  return plan;
}

/// The GEMM workloads' stack.  gemm_serial builds a fresh one per iteration:
/// lateral cast-out recoveries draw on per-core event counters, so the
/// capped GEMV's traffic repeats exactly only on a fresh machine.
/// gemm_parallel (no cast-outs: every core is busy) builds one per run and
/// reuses it: a second sim::Machine built in the same process replays the
/// literal batch up to 2x slower, and its CPU time doubles too (NOTES.md).
struct GemmStack {
  std::unique_ptr<Stack> st;
  std::vector<std::unique_ptr<kernels::KernelRunner>> runners;  ///< per socket
  std::map<std::uint64_t, kernels::GemmBuffers> bufs;
  kernels::GemvBuffers gemv;
};

std::unique_ptr<GemmStack> gemm_setup(Run& run) {
  auto g = std::make_unique<GemmStack>();
  const double s0 = now_s();
  {
    Ledger::Scope setup(run.ledger, Layer::Setup);
    if (setup.id()) run.setup_roots.push_back(setup.id());
    g->st = std::make_unique<Stack>(run.ledger, /*noise=*/false);
    sim::Machine& m = *g->st->machine;
    for (std::uint32_t s = 0; s < m.sockets(); ++s) {
      g->runners.push_back(std::make_unique<kernels::KernelRunner>(
          m, g->st->lib, "pcp", g->st->measure_cpu(s)));
    }
    // Buffers in a fixed order, so the seeded measurement order cannot move
    // any address.
    for (const std::uint64_t n : {64ull, 128ull, 256ull}) {
      g->bufs[n] = kernels::GemmBuffers::allocate(m.address_space(), n);
    }
    g->gemv = kernels::GemvBuffers::allocate(m.address_space(), kGemvM, kGemvN, kGemvN);
    // Warm-up: the first measurement in a process runs about twice as slow
    // (cold code and allocator); it is charged here, not to run_s.
    kernels::RunnerOptions warm;
    warm.reps = kernels::repetitions_for(64);
    const kernels::GemmBuffers& wb = g->bufs.at(64);
    g->runners[0]->measure([&](std::uint32_t c) { kernels::run_gemm(m, 0, c, 64, wb); },
                           warm);
  }
  run.setup_s.push_back(now_s() - s0);
  run.drain_program_spans();
  return g;
}

void gemm_iteration(Run& run, GemmStack& g, bool literal) {
  const auto plan = gemm_plan(literal ? kParallelPoints : kSerialPoints, run.opt.seed);
  Stack* st = g.st.get();
  const auto& runners = g.runners;
  sim::Machine& m = *st->machine;
  const SimCounts c0 = SimCounts::of(m);
  SimCounts loops;
  std::vector<kernels::Measurement> meas;
  const double r0 = now_s();
  const long f0 = minor_faults();
  {
    Ledger::Scope root(run.ledger, Layer::Bench);
    if (root.id()) run.bench_roots.push_back({root.id()});
    for (const auto& [p, socket] : plan) {
      const bool gemv = p.kernel == K::CappedGemv;
      kernels::RunnerOptions opt;
      opt.socket = socket;
      opt.reps = kernels::repetitions_for(gemv ? p.m : p.n);
      opt.batched = p.batched;
      opt.literal_cores = literal;
      opt.host_threads = run.opt.threads;
      std::vector<sim::LoopStats> per_core(m.cores_per_socket());
      const std::uint32_t sock = socket;
      Ledger::Scope k(run.ledger, Layer::Kernels);
      const std::uint64_t kid = k.id();
      meas.push_back(runners[socket]->measure(
          [&](std::uint32_t core) {
            Ledger::Scope s(run.ledger, Layer::Sim, kid);
            per_core[core] += gemv ? kernels::run_capped_gemv(m, sock, core, p.m, p.n, p.n, g.gemv)
                                   : kernels::run_gemm(m, sock, core, p.n, g.bufs.at(p.n));
          },
          opt));
      for (const sim::LoopStats& ls : per_core) loops.add_loop(ls);
    }
  }
  run.record_run(now_s() - r0, minor_faults() - f0);
  run.drain_program_spans();

  SimCounts c = SimCounts::of(m).minus(c0);
  c.bypassed = loops.bypassed;
  c.allocated = loops.allocated;
  run.record_counts(c);
  run.reps_replayed = run.reps_extrapolated = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const KernelPoint& p = plan[i].first;
    const kernels::Measurement& r = meas[i];
    run.reps_replayed += r.reps_replayed;
    run.reps_extrapolated += r.reps_extrapolated;
    std::ostringstream what;
    what << (p.batched ? "batched " : "lone ")
         << (p.kernel == K::CappedGemv ? "capped GEMV M=" + std::to_string(p.m) + " " : "GEMM ")
         << "N=" << p.n << " socket "
         << plan[i].second << ": read " << num(r.read_bytes) << " write "
         << num(r.write_bytes) << " (reference " << num(run.ref(p.read_ref)) << "/"
         << num(run.ref(p.write_ref)) << ")";
    run.check(r.read_bytes == run.ref(p.read_ref) && r.write_bytes == run.ref(p.write_ref),
              what.str());
  }

  probe(run, *st);
}

void app_iteration(Run& run, bool setup_only) {
  struct App {
    std::unique_ptr<Stack> st;
    std::unique_ptr<gpu::GpuDevice> gpu;
    std::unique_ptr<net::Nic> nic;
    std::unique_ptr<mpi::JobComm> comm;
    std::unique_ptr<EventSet> es_mem, es_gpu, es_net;
    std::unique_ptr<Sampler> sampler;
    std::unique_ptr<spe::SpeCollector> spe;
    std::unique_ptr<fft::DistributedFft3d> fft;
    std::unique_ptr<Profiler> prof;
    std::unique_ptr<qmc::QmcApp> qmc;
  } a;
  const double s0 = now_s();
  {
    Ledger::Scope setup(run.ledger, Layer::Setup);
    if (setup.id()) run.setup_roots.push_back(setup.id());
    a.st = std::make_unique<Stack>(run.ledger, /*noise=*/true);
    Stack& st = *a.st;
    sim::Machine& m = *st.machine;
    // Warm-up (charged to set-up) before the applications are built: the
    // runner declares one busy core, and DistributedFft3d's constructor then
    // declares the whole socket busy.  Caches are cold again afterwards.
    {
      kernels::KernelRunner warm_runner(m, st.lib, "pcp", st.measure_cpu());
      const kernels::GemmBuffers wb = kernels::GemmBuffers::allocate(m.address_space(), 64);
      kernels::RunnerOptions warm;
      warm.reps = kernels::repetitions_for(64);
      warm_runner.measure([&](std::uint32_t c) { kernels::run_gemm(m, 0, c, 64, wb); }, warm);
      m.flush_all();
    }
    a.gpu = std::make_unique<gpu::GpuDevice>(gpu::GpuConfig{}, m, 0, 0);
    net::NicConfig nic_cfg;
    nic_cfg.name = "mlx5_0";
    a.nic = std::make_unique<net::Nic>(nic_cfg);
    a.comm = std::make_unique<mpi::JobComm>(m, *a.nic);
    st.lib.register_component(std::make_unique<components::NvmlComponent>(
        std::vector<gpu::GpuDevice*>{a.gpu.get()}));
    st.lib.register_component(std::make_unique<components::InfinibandComponent>(
        std::vector<net::Nic*>{a.nic.get()}));

    // Fig. 11: one event set per component on one Sampler.
    a.es_mem = st.lib.create_eventset();
    for (std::uint32_t ch = 0; ch < 8; ++ch) {
      a.es_mem->add_event(mba_event(ch, false, st.measure_cpu()));
      a.es_mem->add_event(mba_event(ch, true, st.measure_cpu()));
    }
    a.es_gpu = st.lib.create_eventset();
    a.es_gpu->add_event("nvml:::Tesla_V100-SXM2-16GB:device_0:power");
    a.es_net = st.lib.create_eventset();
    a.es_net->add_event("infiniband:::mlx5_0_1_ext:port_recv_data");
    a.sampler = std::make_unique<Sampler>(m.clock());
    a.sampler->add_eventset(*a.es_mem);
    a.sampler->add_eventset(*a.es_gpu);
    a.sampler->add_eventset(*a.es_net);

    fft::Fft3dConfig cfg;
    cfg.n = kFftN;
    cfg.grid = {8, 8};
    cfg.use_gpu = true;
    cfg.ticks_per_phase = kFftTicksPerPhase;
    a.fft = std::make_unique<fft::DistributedFft3d>(m, cfg, a.gpu.get(), a.comm.get());

    // Fig. 12 through the high-level Profiler API.
    a.prof = std::make_unique<Profiler>(st.lib, m.clock());
    std::vector<std::string> events;
    for (std::uint32_t ch = 0; ch < 8; ++ch) {
      events.push_back(mba_event(ch, false, st.measure_cpu()));
      events.push_back(mba_event(ch, true, st.measure_cpu()));
    }
    events.push_back("nvml:::Tesla_V100-SXM2-16GB:device_0:power");
    events.push_back("infiniband:::mlx5_0_1_ext:port_recv_data");
    a.prof->add_events(events);
    a.qmc = std::make_unique<qmc::QmcApp>(m, qmc::QmcConfig{}, a.gpu.get(), a.comm.get());

    // The seed picks the SPE sampler's gap sequence; it only observes.
    spe::SpeConfig spe_cfg;
    spe_cfg.period = kSpePeriod;
    spe_cfg.seed = run.opt.seed;
    a.spe = std::make_unique<spe::SpeCollector>(m, spe_cfg);
  }
  run.setup_s.push_back(now_s() - s0);
  run.drain_program_spans();
  if (setup_only) return;

  Stack& st = *a.st;
  sim::Machine& m = *st.machine;
  const SimCounts c0 = SimCounts::of(m);
  std::vector<spe::Sample> samples;
  std::vector<double> lat;
  lat.reserve(2048);
  std::uint64_t sample_errors = 0;
  auto timed_sample = [&](const std::function<void()>& sample) {
    const std::uint64_t t0 = now_ns();
    try {
      Ledger::Scope c(run.ledger, Layer::Core);
      sample();
    } catch (const std::exception&) {
      ++sample_errors;
    }
    lat.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  };
  auto fft_tick = [&] {
    timed_sample([&] { a.sampler->sample(); });
    Ledger::Scope s(run.ledger, Layer::Spe);
    a.spe->drain_into(samples);
  };
  analysis::SegmentationScore fft_score, qmc_score;
  analysis::FootprintReport fp;
  bool fft_attributed = false, qmc_attributed = false;
  SimCounts loops;
  const double r0 = now_s();
  const long f0 = minor_faults();
  {
    Ledger::Scope root(run.ledger, Layer::Bench);
    if (root.id()) run.bench_roots.push_back({root.id()});
    a.sampler->start_all();
    fft_tick();
    {
      Ledger::Scope f(run.ledger, Layer::Fft);
      a.fft->run_forward(fft_tick);
    }
    a.sampler->stop_all();
    {
      Ledger::Scope an(run.ledger, Layer::Analysis);
      const analysis::Timeline tl = analysis::timeline_from_sampler(*a.sampler);
      const analysis::Segmentation seg = analysis::analyze(tl);
      const std::vector<analysis::PhaseAttribution> attr = analysis::attribute(tl, seg);
      std::vector<analysis::TruthSpan> truth;
      for (const fft::PhaseStats& ph : a.fft->phases()) {
        truth.push_back({analysis::fft_phase_class(ph.name), ph.t0_sec, ph.t1_sec});
      }
      fft_score = analysis::score_segmentation(tl, seg, truth, tl.median_interval_sec());
      analysis::FootprintConfig fc;
      fc.period = kSpePeriod;
      fc.line_bytes = m.config().line_bytes;
      fp = analysis::footprint(samples, analysis::phase_windows(seg), fc);
      fft_attributed = !attr.empty();
    }

    a.prof->start();
    timed_sample([&] { a.prof->sample(); });
    {
      Ledger::Scope q(run.ledger, Layer::Qmc);
      a.qmc->run([&] { timed_sample([&] { a.prof->sample(); }); });
    }
    a.prof->stop();
    {
      Ledger::Scope an(run.ledger, Layer::Analysis);
      const analysis::Timeline tl = analysis::timeline_from_sampler(a.prof->sampler());
      analysis::AnalysisConfig acfg;
      acfg.rules = analysis::qmc_rules();
      const analysis::Segmentation seg = analysis::analyze(tl, acfg);
      const std::vector<analysis::PhaseAttribution> attr = analysis::attribute(tl, seg);
      std::vector<analysis::TruthSpan> truth;
      for (const qmc::QmcPhase& ph : a.qmc->phases()) {
        truth.push_back({ph.name, ph.t0_sec, ph.t1_sec});
      }
      qmc_score = analysis::score_segmentation(tl, seg, truth, tl.median_interval_sec());
      qmc_attributed = !attr.empty();
    }
  }
  run.record_run(now_s() - r0, minor_faults() - f0);
  run.profile_p50.push_back(percentile(lat, 0.50));
  run.profile_p99.push_back(percentile(lat, 0.99));
  run.drain_program_spans();

  for (const fft::PhaseStats& ph : a.fft->phases()) loops.add_loop(ph.loop);
  SimCounts c = SimCounts::of(m).minus(c0);
  c.bypassed = loops.bypassed;
  c.allocated = loops.allocated;
  run.record_counts(c);
  const spe::SpeCollector::Totals spe_totals = a.spe->totals();
  run.spe_samples = spe_totals.samples;
  run.spe_drops = spe_totals.drops;

  // Correctness: every sample succeeded, per-phase bytes and both
  // segmentation scores equal the recorded references, and the footprint
  // accounted for every drained sample.
  run.attempted += lat.size();
  run.failed += sample_errors;
  if (sample_errors && run.failures.size() < 8) run.failures.push_back("sampler errors");
  run.check(fft_attributed && qmc_attributed, "phase attribution");
  const auto& phases = a.fft->phases();
  run.check(phases.size() == kFftPhaseRefs.size(), "FFT phase count");
  for (std::size_t i = 0; i < phases.size() && i < kFftPhaseRefs.size(); ++i) {
    const PhaseRef& r = kFftPhaseRefs[i];
    std::ostringstream what;
    what << "phase " << phases[i].name << ": read " << phases[i].loop.mem_read_bytes
         << " write " << phases[i].loop.mem_write_bytes;
    run.check(phases[i].name == r.name &&
                  static_cast<double>(phases[i].loop.mem_read_bytes) == run.ref(r.read) &&
                  static_cast<double>(phases[i].loop.mem_write_bytes) == run.ref(r.write),
              what.str());
  }
  auto check_score = [&](const char* app, const analysis::SegmentationScore& sc,
                         const ScoreRef& ref) {
    std::ostringstream what;
    what << app << " segmentation: " << sc.matched_boundaries << "/" << sc.truth_boundaries
         << " boundaries, label accuracy " << num(sc.label_accuracy);
    run.check(static_cast<double>(sc.matched_boundaries) == run.ref(ref.matched) &&
                  sc.truth_boundaries == ref.truth &&
                  std::fabs(sc.label_accuracy - ref.label_accuracy) < 1e-12,
              what.str());
  };
  check_score("FFT", fft_score, kFftScoreRef);
  check_score("QMC", qmc_score, kQmcScoreRef);
  run.check(fp.total_samples == samples.size() && spe_totals.drops == 0,
            "SPE footprint covers every sample");

  probe(run, st);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string provenance_json(const Run& run) {
  std::ostringstream os;
  os << "{\"workload\": \"" << run.opt.workload << "\", \"seed\": " << run.opt.seed
     << ", \"seconds\": " << num(run.opt.seconds) << ", \"trace\": " << (run.opt.trace ? 1 : 0)
     << ", \"commit\": \"" << run.opt.commit << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"PAPISIM_SELFMON\": " << PAPISIM_SELFMON_ENABLED
     << ", \"PAPISIM_SPE\": " << PAPISIM_SPE_ENABLED
     << ", \"PAPISIM_TRACE\": " << PAPISIM_TRACE_ENABLED
     << ", \"nproc\": " << run.opt.nproc
     << ", \"threads\": " << run.opt.threads
     << ", \"iterations\": " << run.run_s.size() + run.run_s_traced.size()
     << ", \"setups\": " << run.setup_s.size()
     << ", \"model\": \"unvalidated against hardware\"}";
  return os.str();
}

std::vector<Metric> end_to_end(const Run& run) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", "s", median(run.setup_s)},
      {"run_s", "s", median(run.run_s)},
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"sample_p50_us", "us", median(run.sample_p50)},
      {"fetch_p50_us", "us", median(run.fetch_p50)},
  };
}

std::vector<Metric> per_layer(Run& run, std::string& spans_json) {
  const std::vector<SpanRec> spans = run.ledger.collect();
  std::vector<std::uint64_t> all_roots;
  std::vector<double> sum_self;
  for (const auto& roots : run.bench_roots) {
    all_roots.insert(all_roots.end(), roots.begin(), roots.end());
    const LayerTotals t = Ledger::totals(spans, roots);
    double s = 0;
    for (const double x : t.self_s) s += x;
    sum_self.push_back(s);
  }
  const double iters = std::max<std::size_t>(1, run.bench_roots.size());
  const LayerTotals t = Ledger::totals(spans, all_roots);
  const LayerTotals ts = Ledger::totals(spans, run.setup_roots);
  auto self = [&](Layer l) { return t.self_s[static_cast<std::size_t>(l)] / iters; };
  auto dur = [&](Layer l) { return t.dur_s[static_cast<std::size_t>(l)]; };
  // Per-call means take every span of the layer, the probe's included.
  std::vector<std::uint64_t> every_root;
  for (const SpanRec& s : spans) {
    if (s.parent == 0) every_root.push_back(s.id);
  }
  const LayerTotals ta = Ledger::totals(spans, every_root);
  auto mean_us = [&](Layer l, bool self_time) {
    const auto i = static_cast<std::size_t>(l);
    const double c = static_cast<double>(ta.count[i]);
    return c == 0 ? 0.0 : (self_time ? ta.self_s[i] : ta.dur_s[i]) / c * 1e6;
  };
  auto setup_mean = [&](Layer l) {
    const auto i = static_cast<std::size_t>(l);
    return ts.count[i] == 0 ? 0.0 : ts.dur_s[i] / static_cast<double>(ts.count[i]);
  };

  // Pool busy time: callback time over threads x measurement wall.
  const double pool_busy =
      dur(Layer::Kernels) > 0 ? dur(Layer::Sim) / (run.opt.threads * dur(Layer::Kernels)) : 0;
  const double imbalance = t.imbalance_weight > 0 ? t.imbalance_weighted / t.imbalance_weight : 0;

  // PMCD stages from the spans the program records itself.
  analysis::SpanDump dump;
  dump.reason = "perfbench";
  dump.spans = run.program_spans;
  const analysis::CriticalPath cp = analysis::critical_path(dump);
  auto stage_us = [&](trace::Stage st) {
    for (const analysis::StageBreakdown& b : cp.rpc_stages) {
      if (b.stage == st && b.count) {
        return static_cast<double>(b.self_ns) / static_cast<double>(b.count) * 1e-3;
      }
    }
    return 0.0;
  };

  // Reconciliation: each traced iteration's self times against the run_s
  // stopwatch of the same iteration.  The tracing overhead compares traced
  // with untraced iterations, so on a noisy host it carries their spread too.
  const double untraced = median(run.run_s);
  const double traced = median(run.run_s_traced);
  std::vector<double> reconcile_err;
  for (std::size_t k = 0; k < sum_self.size() && k < run.run_s_traced.size(); ++k) {
    reconcile_err.push_back(std::fabs(sum_self[k] - run.run_s_traced[k]) / run.run_s_traced[k] * 100);
  }
  const double reconcile = median(reconcile_err);
  const double sim_time = self(Layer::Sim) + self(Layer::Fft) + self(Layer::Qmc);
  const SimCounts& c = run.counts;
  const PcpCounts& p = run.pcp;

  std::vector<Metric> ms = {
      {"sim.replay_s", "s", self(Layer::Sim)},
      {"sim.touches_per_s", "1/s", sim_time > 0 ? static_cast<double>(c.touches) / sim_time : 0},
      {"sim.cache_ns_per_access", "ns", run.ladder_cache_ns},
      {"sim.l3fabric_ns_per_line", "ns", run.ladder_l3_ns},
      {"sim.engine_ns_per_touch", "ns", run.ladder_engine_ns},
      {"sim.pool_busy_ratio", "ratio", pool_busy},
      {"sim.core_imbalance", "ratio", imbalance},
      {"sim.touches", "count", static_cast<double>(c.touches)},
      {"sim.l3_hit_ratio", "ratio",
       c.touches ? static_cast<double>(c.l3_hits) / static_cast<double>(c.touches) : 0},
      {"sim.victim_hits", "count", static_cast<double>(c.victim_hits)},
      {"sim.mem_read_bytes", "B", static_cast<double>(c.mem_read)},
      {"sim.mem_write_bytes", "B", static_cast<double>(c.mem_write)},
      {"sim.bypassed_store_lines", "count", static_cast<double>(c.bypassed)},
      {"sim.allocated_store_lines", "count", static_cast<double>(c.allocated)},
      {"kernels.measure_s", "s", dur(Layer::Kernels) / iters},
      {"kernels.runner_overhead_s", "s", self(Layer::Kernels)},
      {"kernels.reps_replayed", "count", static_cast<double>(run.reps_replayed)},
      {"kernels.reps_extrapolated", "count", static_cast<double>(run.reps_extrapolated)},
      {"pcp.fetch_self_us", "us", mean_us(Layer::Pcp, true)},
      {"pcp.fetch_per_s", "1/s", median(run.fetch_rate)},
      {"pcp.fetch_p99_us", "us", median(run.fetch_p99)},
      {"pcp.coalesced", "count", static_cast<double>(p.coalesced)},
      {"pcp.coalesce_ratio", "ratio",
       p.served ? static_cast<double>(p.coalesced) / static_cast<double>(p.served) : 0},
      {"pcp.cache_hit_ratio", "ratio",
       p.cache_hits + p.cache_misses
           ? static_cast<double>(p.cache_hits) / static_cast<double>(p.cache_hits + p.cache_misses)
           : 0},
      {"pcp.shed", "count", static_cast<double>(p.shed)},
      {"pcp.requests_served", "count", static_cast<double>(p.served)},
      {"pcp.stage_admission_us", "us", stage_us(trace::Stage::Admission)},
      {"pcp.stage_queue_wait_us", "us", stage_us(trace::Stage::QueueWait)},
      {"pcp.stage_service_us", "us", stage_us(trace::Stage::Service)},
      {"pcp.stage_counter_read_us", "us", stage_us(trace::Stage::CounterRead)},
      {"pcp.rpc_reconcile_err_pct", "%", cp.rpc_reconcile_error() * 100},
      {"core.sample_us", "us", mean_us(Layer::Core, false)},
      {"core.sample_p99_us", "us", median(run.sample_p99)},
      {"core.profile_sample_p50_us", "us", median(run.profile_p50)},
      {"core.profile_sample_p99_us", "us", median(run.profile_p99)},
      {"spe.samples", "count", static_cast<double>(run.spe_samples)},
      {"spe.drops", "count", static_cast<double>(run.spe_drops)},
      {"spe.drain_s", "s", self(Layer::Spe)},
      {"analysis.s", "s", self(Layer::Analysis)},
      {"fft.run_s", "s", self(Layer::Fft)},
      {"qmc.run_s", "s", self(Layer::Qmc)},
      {"setup.machine_s", "s", setup_mean(Layer::SetupMachine)},
      {"setup.pmcd_s", "s", setup_mean(Layer::SetupPmcd)},
      {"ledger.bench_self_s", "s", self(Layer::Bench)},
      {"ledger.sum_self_s", "s", median(sum_self)},
      {"ledger.traced_run_s", "s", traced},
      {"ledger.untraced_run_s", "s", untraced},
      {"ledger.reconcile_err_pct", "%", reconcile},
      {"ledger.reconcile_tol_pct", "%", kReconcileTolPct},
      {"ledger.trace_overhead_pct", "%", untraced > 0 ? (traced - untraced) / untraced * 100 : 0},
  };

  // The recorded spans of the first traced iteration, for offline reading.
  std::ostringstream os;
  os << "[";
  bool first = true;
  if (!run.bench_roots.empty()) {
    const std::uint64_t lo = run.bench_roots.front().front();
    const std::uint64_t hi = run.bench_roots.size() > 1 ? run.bench_roots[1].front()
                                                        : ~0ull;
    for (const SpanRec& s : spans) {
      if (s.id < lo || s.id >= hi) continue;
      os << (first ? "" : ",\n") << "[" << s.id << "," << s.parent << ",\""
         << kLayerNames[static_cast<std::size_t>(s.layer)] << "\"," << s.thread << ","
         << s.t0 << "," << s.t1 << "]";
      first = false;
    }
  }
  os << "]";
  spans_json = os.str();
  return ms;
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload gemm_serial|gemm_parallel|app_profile "
               "--seed N --seconds S --trace 0|1 [--max-iterations K] "
               "[--perturb-reference] [--commit C] [--out-dir D]\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  Run run;
  Options& o = run.opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--max-iterations") {
      o.max_iterations = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (a == "--perturb-reference") {
      o.perturb = true;
    } else if (a == "--commit") {
      o.commit = value();
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  const std::uint32_t nproc = std::max(1u, std::thread::hardware_concurrency());
  o.nproc = nproc;
  std::function<void(bool setup_only)> iteration;
  std::unique_ptr<GemmStack> gemm;
  auto gemm_workload = [&](bool literal) {
    return [&, literal](bool setup_only) {
      if (setup_only) {
        gemm_setup(run);
        return;
      }
      if (!literal) {
        gemm_iteration(run, *gemm_setup(run), literal);
        return;
      }
      if (!gemm) gemm = gemm_setup(run);
      gemm_iteration(run, *gemm, literal);
    };
  };
  if (o.workload == "gemm_serial") {
    iteration = gemm_workload(false);
  } else if (o.workload == "gemm_parallel") {
    o.threads = nproc;
    iteration = gemm_workload(true);
  } else if (o.workload == "app_profile") {
    iteration = [&](bool setup_only) { app_iteration(run, setup_only); };
  } else {
    return usage("unknown workload");
  }

  // Iterate until the time is spent.  In a traced run, iterations alternate
  // untraced / traced so the same process measures both and the tracing
  // overhead is their difference.
  const double start = now_s();
  double longest = 0;
  for (std::uint32_t i = 0;; ++i) {
    const double elapsed = now_s() - start;
    if (o.max_iterations && i >= o.max_iterations) break;
    if (!o.max_iterations && i >= kMinIterations && elapsed + longest > o.seconds) break;
    run.traced_iteration = o.trace && i % 2 == 1;
    run.ledger.set_enabled(run.traced_iteration);
    const double t0 = now_s();
    const std::clock_t c0 = std::clock();
    const std::size_t setups = run.setup_s.size();
    iteration(false);
    run.ledger.set_enabled(false);
    longest = std::max(longest, now_s() - t0);
    const auto& runs = run.traced_iteration ? run.run_s_traced : run.run_s;
    std::printf("iteration %u%s: setup %.4f s, run %.4f s (%ld minor faults), process cpu %.4f s\n",
                i, run.traced_iteration ? " (traced)" : "",
                run.setup_s.size() > setups ? run.setup_s.back() : 0.0, runs.back(),
                run.last_run_faults, static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC);
  }

  run.traced_iteration = false;
  gemm.reset();
  if (o.trace) {
    // The ladder mutates cache and engine state, so it gets its own machine.
    sim::Machine ladder_machine(sim::MachineConfig::summit());
    layer_ladder(run, ladder_machine);
  }
  // setup_s is a median over at least kMinSetups set-ups: workloads with
  // long iterations add set-up-only rounds, traced in a traced run.
  run.ledger.set_enabled(o.trace);
  while (!o.max_iterations && run.setup_s.size() < kMinSetups) iteration(true);
  run.ledger.set_enabled(false);

  const std::string prov = provenance_json(run);
  std::cout << "provenance " << prov << "\n";
  for (const std::string& f : run.failures) std::cout << "mismatch: " << f << "\n";
  std::vector<Metric> metrics;
  if (o.trace) {
    std::string spans_json;
    metrics = per_layer(run, spans_json);
    const std::string path = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                             "-ledger.json";
    std::ofstream out(path);
    if (out) {
      out << "{\"provenance\": " << prov << ",\n\"metrics\": " << metrics_json(metrics)
          << ",\n\"spans_fields\": [\"id\", \"parent\", \"layer\", \"thread\", \"t0_ns\", "
             "\"t1_ns\"],\n\"spans\": "
          << spans_json << "}\n";
      std::cout << "ledger -> " << path << "\n";
    }
  } else {
    metrics = end_to_end(run);
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
