#include "qmc/qmc_app.hpp"

namespace papisim::qmc {

QmcApp::QmcApp(sim::Machine& machine, QmcConfig cfg, gpu::GpuDevice* gpu,
               mpi::JobComm* comm)
    : machine_(machine), cfg_(cfg), gpu_(gpu), comm_(comm) {
  spline_addr_ = machine_.address_space().allocate(cfg_.spline_table_bytes);
  // Per-walker state: positions, inverse Slater matrices, buffers.
  const std::uint64_t walker_bytes =
      cfg_.walkers * cfg_.electrons * cfg_.electrons * 8 * 2;
  walker_addr_ = machine_.address_space().allocate(walker_bytes);
}

QmcPhase& QmcApp::begin_phase(const std::string& name) {
  QmcPhase ph;
  ph.name = name;
  ph.t0_sec = machine_.clock().now_sec();
  phases_.push_back(ph);
  return phases_.back();
}

void QmcApp::vmc_step(bool drift) {
  // Wavefunction evaluation: gather strided B-spline coefficients for each
  // electron move (random-ish positions -> strided table reads).
  const std::uint64_t moves = cfg_.walkers * cfg_.electrons;
  const std::int64_t spline_stride =
      static_cast<std::int64_t>((cfg_.spline_table_bytes / moves) & ~63ull);
  const std::uint64_t upd_mult = drift ? 4 : 2;
  sim::LoopDesc spline;
  spline.iterations = moves;
  spline.flops_per_iter = drift ? 700.0 : 350.0;  // drift adds gradients
  // Walk the table with a large prime-ish stride to touch distinct lines.
  spline.streams = {
      {spline_addr_ + (walker_cursor_ % 4096) * 64, spline_stride, 8,
       sim::AccessKind::Load},
  };
  engine().execute(spline);

  // Slater-matrix row updates: sequential read+write over walker state.
  sim::LoopDesc update;
  update.iterations = moves * upd_mult;
  update.flops_per_iter = 2.0 * cfg_.electrons;
  update.streams = {
      {walker_addr_, 8, 8, sim::AccessKind::Load},
      {walker_addr_ + cfg_.walkers * cfg_.electrons * 8, 8, 8, sim::AccessKind::Store},
  };
  engine().execute(update);

  if (drift && gpu_ != nullptr) {
    // Drift VMC offloads the gradient batch to the GPU.
    gpu_->memcpy_h2d(cfg_.walkers * cfg_.electrons * 24);
    gpu_->run_kernel(1.0e9);
    gpu_->memcpy_d2h(cfg_.walkers * cfg_.electrons * 24);
  }
  ++walker_cursor_;
}

void QmcApp::dmc_step(std::uint32_t step) {
  // DMC: GPU-heavy projection step plus branching.
  vmc_step(/*drift=*/true);
  if (gpu_ != nullptr) gpu_->run_kernel(3.0e9);

  // Branching: copy surviving walker states (sequential, store-dense).
  sim::LoopDesc branch;
  branch.iterations = cfg_.walkers * cfg_.electrons;
  branch.streams = {
      {walker_addr_, 16, 16, sim::AccessKind::Load},
      {walker_addr_ + cfg_.walkers * cfg_.electrons * 16, 16, 16, sim::AccessKind::Store},
  };
  engine().execute(branch);

  if (comm_ != nullptr && step % cfg_.dmc_branch_interval == 0) {
    // Walker-population redistribution across ranks: the Fig. 12 network
    // spikes.
    comm_->alltoall(cfg_.ranks, cfg_.walkers * cfg_.electrons * 48);
  }
}

void QmcApp::run(const std::function<void()>& tick) {
  phases_.clear();
  phases_.reserve(3);  // keep begin_phase() references stable

  QmcPhase* ph = &begin_phase("VMC_no_drift");
  for (std::uint32_t s = 0; s < cfg_.vmc_nodrift_steps; ++s) {
    vmc_step(/*drift=*/false);
    if (tick) tick();
  }
  ph->t1_sec = machine_.clock().now_sec();

  ph = &begin_phase("VMC_drift");
  for (std::uint32_t s = 0; s < cfg_.vmc_drift_steps; ++s) {
    vmc_step(/*drift=*/true);
    if (tick) tick();
  }
  ph->t1_sec = machine_.clock().now_sec();

  ph = &begin_phase("DMC");
  for (std::uint32_t s = 0; s < cfg_.dmc_steps; ++s) {
    dmc_step(s);
    if (tick) tick();
  }
  ph->t1_sec = machine_.clock().now_sec();
}

}  // namespace papisim::qmc
