// Profiling the profiler: the selfmon component carries the harness's own
// runtime costs (PMCD round-trip latency, replay-pool dispatch, L3 stripe
// contention) through the same multi-component Sampler as the pcp memory
// traffic it is measuring -- the paper's "cost of indirect measurement"
// concern, observed with the paper's own mechanism.
//
// Build & run:  ./build/examples/selfmon_profile
// Then load selfmon_trace.json at chrome://tracing (or ui.perfetto.dev):
// selfmon histogram columns render as .p50/.p95/.p99 counter tracks.
#include <cstdio>
#include <fstream>
#include <memory>

#include "components/pcp_component.hpp"
#include "components/selfmon_component.hpp"
#include "core/regions.hpp"
#include "core/trace_export.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/runner.hpp"
#include "pcp/client.hpp"
#include "pcp/pmcd.hpp"
#include "selfmon/metrics.hpp"

using namespace papisim;

int main() {
  sim::Machine machine(sim::MachineConfig::summit());
  machine.set_noise_enabled(false);
  pcp::Pmcd daemon(machine);
  pcp::PcpClient client(daemon, machine, machine.user_credentials());

  Library lib;
  lib.register_component(std::make_unique<components::PcpComponent>(client));
  lib.register_component(std::make_unique<components::SelfmonComponent>());

  if (!selfmon::kEnabled) {
    std::printf("selfmon was compiled out (-DPAPISIM_SELFMON=OFF); "
                "rebuild with it ON to run this example.\n");
    return 0;
  }

  // One Sampler, two domains: what the machine did (pcp) and what the
  // harness spent doing it (selfmon).
  auto pcp_set = lib.create_eventset();
  pcp_set->add_event(
      "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87");
  pcp_set->add_event(
      "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value:cpu87");
  auto self_set = lib.create_eventset();
  self_set->add_event("selfmon:::pcp.fetch_rtt_ns");
  self_set->add_event("selfmon:::runner.reps");
  self_set->add_event("selfmon:::l3.stripe_acquisitions");

  Sampler sampler(machine.clock());
  sampler.add_eventset(*pcp_set);
  sampler.add_eventset(*self_set);
  sampler.start_all();

  // The measured workload: GEMM repetitions through the KernelRunner, which
  // itself is selfmon-instrumented (runner.reps / runner.rep_ns).
  kernels::KernelRunner runner(machine, lib, "pcp", 87);
  const std::uint64_t n = 256;
  const kernels::GemmBuffers buf =
      kernels::GemmBuffers::allocate(machine.address_space(), n);
  sampler.sample();
  for (int step = 0; step < 4; ++step) {
    kernels::RunnerOptions opt;
    opt.reps = 3;
    (void)runner.measure(
        [&](std::uint32_t core) { kernels::run_gemm(machine, 0, core, n, buf); },
        opt);
    sampler.sample();
  }
  sampler.stop_all();

  // RegionProfiler mixing both domains, the acceptance scenario.
  RegionProfiler prof(lib, machine.clock());
  prof.add_events({
      "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87",
      "selfmon:::pcp.requests_served",
      "selfmon:::l3.stripe_contention",
  });
  prof.start();
  {
    auto gemm = prof.region("gemm");
    kernels::run_gemm(machine, 0, 0, n, buf);
    machine.flush_socket(0);
  }
  prof.stop();

  std::printf("%-10s %14s %18s %18s\n", "region", "ch0_read_B",
              "pmcd_reqs_served", "l3_contention");
  for (const RegionStats& r : prof.report()) {
    std::printf("%-10s %14.0f %18.0f %18.0f\n", r.path.c_str(), r.inclusive[0],
                r.inclusive[1], r.inclusive[2]);
  }

  // The harness's own cost profile, straight from the registry.
  const selfmon::Snapshot snap = selfmon::snapshot();
  const selfmon::HistSnapshot& rtt = snap.hist(selfmon::HistId::PcpFetchRttNs);
  std::printf("\nPMCD fetches: %llu served, RTT p50=%.0f ns p95=%.0f ns "
              "p99=%.0f ns (host wall-clock)\n",
              static_cast<unsigned long long>(
                  snap.counter(selfmon::CounterId::PcpRequestsServed)),
              rtt.percentile(0.50), rtt.percentile(0.95), rtt.percentile(0.99));
  std::printf("kernel reps: %llu total, %llu fully replayed, %llu "
              "extrapolated from recorded traffic (Eq. 5 amortization)\n",
              static_cast<unsigned long long>(
                  snap.counter(selfmon::CounterId::RunnerReps)),
              static_cast<unsigned long long>(
                  snap.counter(selfmon::CounterId::RunnerRepsReplayed)),
              static_cast<unsigned long long>(
                  snap.counter(selfmon::CounterId::RunnerRepsExtrapolated)));
  // Exact counts: a loop replay (or one scalar access) takes its core's
  // stripe once, and every acquisition checks whether it had to wait.
  std::printf("L3 stripe locks: %llu acquired, %llu contended\n",
              static_cast<unsigned long long>(
                  snap.counter(selfmon::CounterId::L3StripeAcquisitions)),
              static_cast<unsigned long long>(
                  snap.counter(selfmon::CounterId::L3StripeContention)));

  std::ofstream trace("selfmon_trace.json");
  write_chrome_trace(trace, sampler, {}, "selfmon-profile");
  std::printf("\nwrote selfmon_trace.json -- selfmon:::pcp.fetch_rtt_ns "
              "renders as .p50/.p95/.p99 counter tracks.\n");
  return 0;
}
