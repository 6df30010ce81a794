// Synthetic QMCPACK-like workload (paper Fig. 12 substitute).
//
// QMCPACK's NiO example runs three stages -- VMC without drift, VMC with
// drift, then DMC -- whose hardware signatures differ enough that the paper
// uses them to demonstrate phase identification via multi-component
// monitoring.  We reproduce those signatures with a synthetic walker-based
// engine (documented substitution, DESIGN.md §1):
//
//  * VMC no-drift: steady host memory traffic (walker moves over the
//    wavefunction tables), light GPU activity, no network.
//  * VMC drift:    heavier memory traffic (gradient evaluations) and GPU
//    bursts per step.
//  * DMC:          GPU-heavy steps plus periodic walker-population
//    redistribution over MPI (network spikes) and branching writes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpu/gpu_device.hpp"
#include "mpi/job_comm.hpp"
#include "sim/machine.hpp"

namespace papisim::qmc {

struct QmcConfig {
  std::uint32_t socket = 0;
  std::uint32_t core = 0;
  std::uint64_t walkers = 128;
  std::uint64_t electrons = 48;        ///< NiO-like problem scale
  std::uint64_t spline_table_bytes = 64ull << 20;  ///< B-spline coefficient table
  std::uint32_t vmc_nodrift_steps = 12;
  std::uint32_t vmc_drift_steps = 12;
  std::uint32_t dmc_steps = 20;
  std::uint32_t dmc_branch_interval = 4;  ///< steps between walker exchanges
  std::uint32_t ranks = 16;
};

struct QmcPhase {
  std::string name;
  double t0_sec = 0.0;
  double t1_sec = 0.0;
};

/// The mini-app.  run() drives the three stages against the machine, GPU,
/// and network models; `tick` fires once per Monte-Carlo step so a Sampler
/// can build the Fig. 12 timeline.
class QmcApp {
 public:
  QmcApp(sim::Machine& machine, QmcConfig cfg, gpu::GpuDevice* gpu = nullptr,
         mpi::JobComm* comm = nullptr);

  void run(const std::function<void()>& tick = {});

  const std::vector<QmcPhase>& phases() const { return phases_; }

 private:
  void vmc_step(bool drift);
  void dmc_step(std::uint32_t step);
  QmcPhase& begin_phase(const std::string& name);
  sim::AccessEngine& engine() { return machine_.engine(cfg_.socket, cfg_.core); }

  sim::Machine& machine_;
  QmcConfig cfg_;
  gpu::GpuDevice* gpu_;
  mpi::JobComm* comm_;
  std::uint64_t spline_addr_ = 0;
  std::uint64_t walker_addr_ = 0;
  std::uint64_t walker_cursor_ = 0;
  std::vector<QmcPhase> phases_;
};

}  // namespace papisim::qmc
