#include "fft/fft3d.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace papisim::fft {

void fft3d_local(std::vector<cplx>& data, std::size_t n, bool inverse) {
  if (data.size() != n * n * n) {
    throw std::invalid_argument("fft3d_local: data must be n^3");
  }
  // Three stages of (batched 1D FFT along the contiguous axis, then the
  // S1CF permutation): [x][y][z] -> [z][x][y] -> [y][z][x] -> [x][y][z].
  std::vector<cplx> scratch(data.size());
  RankDims d{n, n, n};
  for (int stage = 0; stage < 3; ++stage) {
    fft1d_batch(data, n, n * n, inverse);
    s1cf_combined_numeric(data, scratch, d);
    data.swap(scratch);
  }
}

std::vector<cplx> dft3_naive(const std::vector<cplx>& data, std::size_t n,
                             bool inverse) {
  if (data.size() != n * n * n) {
    throw std::invalid_argument("dft3_naive: data must be n^3");
  }
  const double sign = inverse ? 2.0 : -2.0;
  const double norm = inverse ? 1.0 / static_cast<double>(n * n * n) : 1.0;
  std::vector<cplx> out(data.size(), cplx{});
  auto tw = [&](std::size_t a, std::size_t b) {
    const double ang = sign * std::numbers::pi * static_cast<double>(a) *
                       static_cast<double>(b) / static_cast<double>(n);
    return cplx(std::cos(ang), std::sin(ang));
  };
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t w = 0; w < n; ++w) {
        cplx sum{};
        for (std::size_t x = 0; x < n; ++x)
          for (std::size_t y = 0; y < n; ++y)
            for (std::size_t z = 0; z < n; ++z) {
              sum += data[(x * n + y) * n + z] * tw(u, x) * tw(v, y) * tw(w, z);
            }
        out[(u * n + v) * n + w] = sum * norm;
      }
  return out;
}

// --------------------------------------------------------------- simulated

DistributedFft3d::DistributedFft3d(sim::Machine& machine, Fft3dConfig cfg,
                                   gpu::GpuDevice* gpu, mpi::JobComm* comm)
    : machine_(machine),
      cfg_(cfg),
      dims_(RankDims::of(cfg.n, cfg.grid)),
      s2dims_(S2Dims::of(dims_, cfg.grid)),
      buf_(ResortBuffers::allocate(machine.address_space(), dims_.bytes())),
      gpu_(gpu),
      comm_(comm) {
  if (cfg_.use_gpu && gpu_ == nullptr) {
    throw std::invalid_argument("DistributedFft3d: GPU offload requested without a device");
  }
  if (cfg_.ticks_per_phase == 0) cfg_.ticks_per_phase = 1;
  // The rank is OpenMP-parallel across the socket in the real mini-app, so
  // every core is busy and each gets its contended 5 MB L3 share (the
  // assumption behind paper Eq. 7).  The replay walks the statically
  // partitioned loops on one engine; totals are equivalent because the
  // per-rank block far exceeds any single share.  With no victim store,
  // each re-sort batch is replayed set-sharded on the host's cores
  // (AccessEngine::execute_all).
  machine_.set_active_cores(cfg_.socket, machine_.cores_per_socket());
}

PhaseStats& DistributedFft3d::begin_phase(const std::string& name) {
  PhaseStats ph;
  ph.name = name;
  ph.t0_sec = machine_.clock().now_sec();
  phases_.push_back(std::move(ph));
  return phases_.back();
}

void DistributedFft3d::end_phase(PhaseStats& ph) {
  ph.t1_sec = machine_.clock().now_sec();
}

void DistributedFft3d::phase_resort(const std::string& name,
                                    const std::function<void()>& tick, bool second,
                                    bool planewise) {
  PhaseStats& ph = begin_phase(name);
  // Chunk the nest over planes so the sampler sees the phase evolve.
  const std::uint64_t planes = second ? s2dims_.planes : dims_.planes;
  replay_resort(machine_.engine(cfg_.socket, cfg_.core), planes,
                std::min<std::uint64_t>(cfg_.ticks_per_phase, planes),
                [&](std::uint64_t lo, std::uint64_t hi, std::vector<sim::LoopDesc>& loops) {
                  if (second) {
                    s2_resort_loops(s2dims_, buf_, cfg_.prefetch, planewise, lo, hi, loops);
                  } else {
                    s1_resort_loops(dims_, buf_, cfg_.prefetch, planewise, lo, hi, loops);
                  }
                },
                tick, batch_, ph.loop);
  end_phase(ph);
}

void DistributedFft3d::phase_fft(const std::string& name,
                                 const std::function<void()>& tick) {
  PhaseStats& ph = begin_phase(name);
  const std::uint64_t bytes = dims_.bytes();
  const double flops = 5.0 * static_cast<double>(dims_.elems()) *
                       std::log2(static_cast<double>(cfg_.n));
  const std::uint32_t chunks = cfg_.ticks_per_phase;
  if (cfg_.use_gpu) {
    // cuFFT offload: copy the pencils to the device, transform, copy back.
    // The H2D copy reads host memory; the D2H copy writes it -- the Fig. 11
    // read-spike / power-spike / write-spike progression.
    for (std::uint32_t c = 0; c < chunks; ++c) {
      gpu_->memcpy_h2d(bytes / chunks);
      if (tick) tick();
    }
    for (std::uint32_t c = 0; c < chunks; ++c) {
      gpu_->run_kernel(flops / chunks);
      if (tick) tick();
    }
    for (std::uint32_t c = 0; c < chunks; ++c) {
      gpu_->memcpy_d2h(bytes / chunks);
      if (tick) tick();
    }
  } else {
    // Host FFT: one streaming pass over the pencils (read + write), one
    // loop per chunk.
    const std::uint64_t elems = dims_.elems();
    sim::AccessEngine& eng = machine_.engine(cfg_.socket, cfg_.core);
    sim::LoopDesc pass;
    pass.flops_per_iter = 5.0 * std::log2(static_cast<double>(cfg_.n));
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const std::uint64_t lo = elems * c / chunks, hi = elems * (c + 1) / chunks;
      pass.iterations = hi - lo;
      pass.streams = {
          {buf_.out + lo * 16, 16, 16, sim::AccessKind::Load},
          {buf_.in + lo * 16, 16, 16, sim::AccessKind::Store},
      };
      ph.loop += eng.execute(pass);
      if (tick) tick();
    }
  }
  end_phase(ph);
}

void DistributedFft3d::phase_alltoall(const std::string& name,
                                      std::uint32_t participants,
                                      const std::function<void()>& tick) {
  PhaseStats& ph = begin_phase(name);
  if (comm_ != nullptr && participants > 1) {
    const std::uint64_t bytes = dims_.bytes();
    const std::uint32_t chunks = cfg_.ticks_per_phase;
    for (std::uint32_t c = 0; c < chunks; ++c) {
      comm_->alltoall(participants, bytes / chunks);
      if (tick) tick();
    }
    ph.net_bytes = bytes / participants * (participants - 1);
  } else if (tick) {
    tick();
  }
  end_phase(ph);
}

void DistributedFft3d::run_forward(const std::function<void()>& tick) {
  phases_.clear();
  // The paper's pipeline (Fig. 11): four re-sorting phases interleaved with
  // three 1D-FFT batches and two All2All exchanges.  The 1st and 3rd
  // re-sorts are strided (two reads per write); the 2nd and 4th have
  // matching innermost dimensions (one read per write).
  phase_resort("resort1_S1CF", tick, /*second=*/false, /*planewise=*/false);
  phase_fft("fft_z", tick);
  phase_alltoall("all2all_1", cfg_.grid.cols, tick);
  phase_resort("resort2_S2CF", tick, /*second=*/true, /*planewise=*/false);
  phase_fft("fft_y", tick);
  phase_alltoall("all2all_2", cfg_.grid.rows, tick);
  phase_resort("resort3_S1PF", tick, /*second=*/false, /*planewise=*/true);
  phase_fft("fft_x", tick);
  phase_resort("resort4_S2PF", tick, /*second=*/true, /*planewise=*/true);
}

}  // namespace papisim::fft
