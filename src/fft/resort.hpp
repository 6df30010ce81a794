// The data re-sorting routines of the distributed 3D-FFT (paper Section IV):
// store_1st_colwise_forward (S1CF, Listings 5/7/8), store_2nd_colwise_forward
// (S2CF, Listing 9) and their planewise variants.  Each routine exists in two
// forms: a numeric implementation (validated as a bijective permutation) and
// a simulator replay that reproduces its memory-traffic signature.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mpi/grid.hpp"
#include "sim/machine.hpp"

namespace papisim::fft {

/// Per-rank block dimensions of the 3D array decomposed over an r x c grid:
/// PLANES x ROWS x COLS = (N/r) x (N/c) x N double-complex elements.
struct RankDims {
  std::uint64_t planes = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;

  std::uint64_t elems() const { return planes * rows * cols; }
  std::uint64_t bytes() const { return elems() * 16; }  // double complex

  static RankDims of(std::uint64_t n, const mpi::Grid& grid);
};

// ---------------------------------------------------------------- numeric

/// S1CF loop nest 1 (Listing 5): tmp[plane][row][col] = in[linear].
/// With row-major tmp this is the identity copy; kept explicit because its
/// *traffic* behaviour (streaming stores that bypass the cache) is the
/// paper's Fig. 6 subject.
void s1cf_nest1_numeric(std::span<const std::complex<double>> in,
                        std::span<std::complex<double>> tmp, const RankDims& d);

/// S1CF loop nest 2 (Listing 7): out[col*P*R + plane*R + row] = tmp[p][r][c].
void s1cf_nest2_numeric(std::span<const std::complex<double>> tmp,
                        std::span<std::complex<double>> out, const RankDims& d);

/// S1CF combined (Listing 8): the two nests fused into one permutation.
void s1cf_combined_numeric(std::span<const std::complex<double>> in,
                           std::span<std::complex<double>> out, const RankDims& d);

/// S1PF: planewise variant (plane becomes the fastest output dimension).
void s1pf_combined_numeric(std::span<const std::complex<double>> in,
                           std::span<std::complex<double>> out, const RankDims& d);

/// S2CF (Listing 9): in is ordered [Y][PLANES][X][ROWS], traversed
/// plane-x-y-row; the innermost dimension matches, amortizing the stride.
struct S2Dims {
  std::uint64_t planes = 0;
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::uint64_t rows = 0;

  std::uint64_t elems() const { return planes * x * y * rows; }

  /// Post-all-to-all layout for an r x c grid block (x = c partners).
  static S2Dims of(const RankDims& d, const mpi::Grid& grid);
};

void s2cf_numeric(std::span<const std::complex<double>> in,
                  std::span<std::complex<double>> out, const S2Dims& d);

/// S2PF: planewise variant of S2CF.
void s2pf_numeric(std::span<const std::complex<double>> in,
                  std::span<std::complex<double>> out, const S2Dims& d);

// -------------------------------------------------------------- simulated

struct ResortBuffers {
  std::uint64_t in = 0, tmp = 0, out = 0;
  static ResortBuffers allocate(sim::AddressSpace& as, std::uint64_t bytes);
};

/// The inner loops of the first re-sort, for planes [lo, hi) in program
/// order (for plane / row { inner loop over col }): sequential loads from
/// in, strided stores to out -- S1CF (Listing 8), or S1PF when `planewise`
/// (plane the fastest output dimension).  `loops` is resized to the loop
/// count; its elements' storage is reused.
void s1_resort_loops(const RankDims& d, const ResortBuffers& buf, bool prefetch,
                     bool planewise, std::uint64_t lo, std::uint64_t hi,
                     std::vector<sim::LoopDesc>& loops);

/// The inner loops of the second re-sort, for planes [lo, hi) in program
/// order (for plane / x / y { inner loop over row }): both sides sequential
/// in the innermost dimension -- S2CF (Listing 9), or S2PF when `planewise`
/// (output ordered [X][Y][PLANES][ROWS]).  `loops` as above.
void s2_resort_loops(const S2Dims& d, const ResortBuffers& buf, bool prefetch,
                     bool planewise, std::uint64_t lo, std::uint64_t hi,
                     std::vector<sim::LoopDesc>& loops);

/// Fills `loops` with the loops of planes [lo, hi) of one re-sort:
/// s1_resort_loops or s2_resort_loops bound to its dims.
using ResortBuild = std::function<void(std::uint64_t lo, std::uint64_t hi,
                                       std::vector<sim::LoopDesc>& loops)>;

/// Replay a re-sort of `planes` planes on `eng` in `chunks` (1 to `planes`)
/// execute_all() batches of whole planes, in order, adding into `total`;
/// `tick`, if set, runs after each batch.  `loops` holds the batch.
void replay_resort(sim::AccessEngine& eng, std::uint64_t planes, std::uint64_t chunks,
                   const ResortBuild& build, const std::function<void()>& tick,
                   std::vector<sim::LoopDesc>& loops, sim::LoopStats& total);

/// Replay of Listing 5: sequential copy in -> tmp.  Without prefetch the
/// stores bypass the cache (1 read, 1 write per element); with
/// -fprefetch-loop-arrays (dcbtst) tmp is read too (2 reads, 1 write).
sim::LoopStats s1cf_nest1_replay(sim::Machine& m, std::uint32_t socket,
                                 std::uint32_t core, const RankDims& d,
                                 const ResortBuffers& buf, bool prefetch);

/// Replay of Listing 7: strided loads from tmp, sequential stores to out.
/// The strided stream defeats the store bypass (1 write + up to 5 reads per
/// element beyond the Eq. 7 bound).
sim::LoopStats s1cf_nest2_replay(sim::Machine& m, std::uint32_t socket,
                                 std::uint32_t core, const RankDims& d,
                                 const ResortBuffers& buf, bool prefetch);

/// Replay of Listing 8: sequential loads from in, strided stores to out
/// (2 reads, 1 write per element).
sim::LoopStats s1cf_combined_replay(sim::Machine& m, std::uint32_t socket,
                                    std::uint32_t core, const RankDims& d,
                                    const ResortBuffers& buf, bool prefetch);

/// Replay of Listing 9: both sides sequential in the innermost dimension
/// (1 read, 1 write per element).
sim::LoopStats s2cf_replay(sim::Machine& m, std::uint32_t socket,
                           std::uint32_t core, const S2Dims& d,
                           const ResortBuffers& buf, bool prefetch);

/// Planewise variant of the first re-sort: sequential loads from in,
/// strided stores with plane the fastest output dimension.  Same traffic
/// signature as S1CF (the paper: "the structure and performance of S1PF
/// ... are similar to those of S1CF").
sim::LoopStats s1pf_combined_replay(sim::Machine& m, std::uint32_t socket,
                                    std::uint32_t core, const RankDims& d,
                                    const ResortBuffers& buf, bool prefetch);

/// Planewise variant of the second re-sort: innermost dimensions match on
/// both sides (1 read, 1 write per element, like S2CF).
sim::LoopStats s2pf_replay(sim::Machine& m, std::uint32_t socket,
                           std::uint32_t core, const S2Dims& d,
                           const ResortBuffers& buf, bool prefetch);

}  // namespace papisim::fft
