// 3D-FFT: numeric local transform (for correctness) and the simulated
// distributed, optionally GPU-accelerated mini-app (paper Section IV).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fft/fft1d.hpp"
#include "fft/resort.hpp"
#include "gpu/gpu_device.hpp"
#include "mpi/job_comm.hpp"

namespace papisim::fft {

/// In-place 3D DFT of an n x n x n row-major array, built from batched 1D
/// FFTs and the S1CF re-sorting permutation (three stages return the data to
/// its original [x][y][z] layout).  Validated against the naive triple-sum
/// DFT in tests.
void fft3d_local(std::vector<cplx>& data, std::size_t n, bool inverse = false);

/// Naive O(N^6) 3D DFT reference (paper Eq. 6).
std::vector<cplx> dft3_naive(const std::vector<cplx>& data, std::size_t n,
                             bool inverse = false);

/// Configuration of the simulated distributed 3D-FFT rank.
struct Fft3dConfig {
  std::uint64_t n = 256;
  mpi::Grid grid{2, 4};
  std::uint32_t socket = 0;
  std::uint32_t core = 0;
  bool use_gpu = false;      ///< offload the 1D-FFT batches (cuFFT-style)
  bool prefetch = false;     ///< compile the re-sorts with -fprefetch-loop-arrays
  std::uint32_t ticks_per_phase = 6;  ///< sampler granularity
};

/// One pipeline phase of the representative rank, with its traffic and the
/// virtual-time interval it occupied.
struct PhaseStats {
  std::string name;
  sim::LoopStats loop;  ///< zero for pure communication phases
  double t0_sec = 0.0;
  double t1_sec = 0.0;
  std::uint64_t net_bytes = 0;
};

/// The distributed 3D-FFT mini-app, simulated for ONE representative rank
/// (pencil decomposition over an r x c grid; all ranks are symmetric).  The
/// pipeline is the paper's: re-sort, 1D-FFT batch (CPU or GPU with H2D/D2H
/// copies), All2All, re-sort, ... -- the sequence whose multi-component
/// profile is Fig. 11.
class DistributedFft3d {
 public:
  DistributedFft3d(sim::Machine& machine, Fft3dConfig cfg,
                   gpu::GpuDevice* gpu = nullptr, mpi::JobComm* comm = nullptr);

  /// Run one forward transform; `tick` (if given) is invoked several times
  /// per phase so a Sampler can record the timeline.
  void run_forward(const std::function<void()>& tick = {});

  const std::vector<PhaseStats>& phases() const { return phases_; }
  const Fft3dConfig& config() const { return cfg_; }
  RankDims dims() const { return dims_; }

 private:
  /// A re-sort phase: the first (S1CF/S1PF) or the `second` (S2CF/S2PF),
  /// colwise or `planewise`, as one execute_all() batch of whole planes per
  /// tick.
  void phase_resort(const std::string& name, const std::function<void()>& tick,
                    bool second, bool planewise);
  void phase_fft(const std::string& name, const std::function<void()>& tick);
  void phase_alltoall(const std::string& name, std::uint32_t participants,
                      const std::function<void()>& tick);

  PhaseStats& begin_phase(const std::string& name);
  void end_phase(PhaseStats& ph);

  sim::Machine& machine_;
  Fft3dConfig cfg_;
  RankDims dims_;
  S2Dims s2dims_;
  ResortBuffers buf_;
  gpu::GpuDevice* gpu_;
  mpi::JobComm* comm_;
  std::vector<sim::LoopDesc> batch_;  ///< a re-sort tick's loops, reused
  std::vector<PhaseStats> phases_;
};

}  // namespace papisim::fft
