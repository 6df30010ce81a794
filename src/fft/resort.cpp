#include "fft/resort.hpp"

#include <algorithm>
#include <stdexcept>

namespace papisim::fft {

RankDims RankDims::of(std::uint64_t n, const mpi::Grid& grid) {
  if (n % grid.rows != 0 || n % grid.cols != 0) {
    throw std::invalid_argument("RankDims: N must be divisible by both grid dims");
  }
  return {n / grid.rows, n / grid.cols, n};
}

S2Dims S2Dims::of(const RankDims& d, const mpi::Grid& grid) {
  // After the first all-to-all among the c row partners, each rank's block
  // is re-sorted from [Y][PLANES][X][ROWS] to [PLANES][X][Y][ROWS] order,
  // with X = c partners and Y*ROWS = the former COLS pencil split.
  if (d.cols % grid.cols != 0) {
    throw std::invalid_argument("S2Dims: cols must be divisible by grid cols");
  }
  S2Dims s;
  s.planes = d.planes;
  s.x = grid.cols;
  s.y = d.rows;
  s.rows = d.cols / grid.cols;
  return s;
}

// ------------------------------------------------------------------ numeric

void s1cf_nest1_numeric(std::span<const std::complex<double>> in,
                        std::span<std::complex<double>> tmp, const RankDims& d) {
  if (in.size() < d.elems() || tmp.size() < d.elems()) {
    throw std::invalid_argument("s1cf_nest1_numeric: buffer too small");
  }
  for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
    for (std::uint64_t row = 0; row < d.rows; ++row) {
      for (std::uint64_t col = 0; col < d.cols; ++col) {
        tmp[(plane * d.rows + row) * d.cols + col] =
            in[plane * d.rows * d.cols + row * d.cols + col];
      }
    }
  }
}

void s1cf_nest2_numeric(std::span<const std::complex<double>> tmp,
                        std::span<std::complex<double>> out, const RankDims& d) {
  if (tmp.size() < d.elems() || out.size() < d.elems()) {
    throw std::invalid_argument("s1cf_nest2_numeric: buffer too small");
  }
  for (std::uint64_t col = 0; col < d.cols; ++col) {
    for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
      for (std::uint64_t row = 0; row < d.rows; ++row) {
        out[col * d.planes * d.rows + plane * d.rows + row] =
            tmp[(plane * d.rows + row) * d.cols + col];
      }
    }
  }
}

void s1cf_combined_numeric(std::span<const std::complex<double>> in,
                           std::span<std::complex<double>> out, const RankDims& d) {
  if (in.size() < d.elems() || out.size() < d.elems()) {
    throw std::invalid_argument("s1cf_combined_numeric: buffer too small");
  }
  for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
    for (std::uint64_t row = 0; row < d.rows; ++row) {
      for (std::uint64_t col = 0; col < d.cols; ++col) {
        out[col * d.planes * d.rows + plane * d.rows + row] =
            in[plane * d.rows * d.cols + row * d.cols + col];
      }
    }
  }
}

void s1pf_combined_numeric(std::span<const std::complex<double>> in,
                           std::span<std::complex<double>> out, const RankDims& d) {
  if (in.size() < d.elems() || out.size() < d.elems()) {
    throw std::invalid_argument("s1pf_combined_numeric: buffer too small");
  }
  // Planewise: plane becomes the fastest-varying output dimension.
  for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
    for (std::uint64_t row = 0; row < d.rows; ++row) {
      for (std::uint64_t col = 0; col < d.cols; ++col) {
        out[(col * d.rows + row) * d.planes + plane] =
            in[plane * d.rows * d.cols + row * d.cols + col];
      }
    }
  }
}

void s2cf_numeric(std::span<const std::complex<double>> in,
                  std::span<std::complex<double>> out, const S2Dims& d) {
  if (in.size() < d.elems() || out.size() < d.elems()) {
    throw std::invalid_argument("s2cf_numeric: buffer too small");
  }
  // in ordered [Y][PLANES][X][ROWS], traversed PLANES, X, Y, ROWS.
  for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
    for (std::uint64_t xx = 0; xx < d.x; ++xx) {
      for (std::uint64_t yy = 0; yy < d.y; ++yy) {
        for (std::uint64_t row = 0; row < d.rows; ++row) {
          out[((plane * d.x + xx) * d.y + yy) * d.rows + row] =
              in[((yy * d.planes + plane) * d.x + xx) * d.rows + row];
        }
      }
    }
  }
}

void s2pf_numeric(std::span<const std::complex<double>> in,
                  std::span<std::complex<double>> out, const S2Dims& d) {
  if (in.size() < d.elems() || out.size() < d.elems()) {
    throw std::invalid_argument("s2pf_numeric: buffer too small");
  }
  // Planewise variant: output ordered [X][Y][PLANES][ROWS].
  for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
    for (std::uint64_t xx = 0; xx < d.x; ++xx) {
      for (std::uint64_t yy = 0; yy < d.y; ++yy) {
        for (std::uint64_t row = 0; row < d.rows; ++row) {
          out[((xx * d.y + yy) * d.planes + plane) * d.rows + row] =
              in[((yy * d.planes + plane) * d.x + xx) * d.rows + row];
        }
      }
    }
  }
}

// ---------------------------------------------------------------- simulated

ResortBuffers ResortBuffers::allocate(sim::AddressSpace& as, std::uint64_t bytes) {
  ResortBuffers buf;
  buf.in = as.allocate(bytes);
  buf.tmp = as.allocate(bytes);
  buf.out = as.allocate(bytes);
  return buf;
}

sim::LoopStats s1cf_nest1_replay(sim::Machine& m, std::uint32_t socket,
                                 std::uint32_t core, const RankDims& d,
                                 const ResortBuffers& buf, bool prefetch) {
  // Listing 5: both sides are one long sequential stream; replay the whole
  // nest as a single flattened inner loop (index algebra is the identity).
  sim::LoopDesc loop;
  loop.iterations = d.elems();
  loop.sw_prefetch = prefetch;
  loop.streams = {
      {buf.in, 16, 16, sim::AccessKind::Load},
      {buf.tmp, 16, 16, sim::AccessKind::Store},
  };
  return m.engine(socket, core).execute(loop);
}

sim::LoopStats s1cf_nest2_replay(sim::Machine& m, std::uint32_t socket,
                                 std::uint32_t core, const RankDims& d,
                                 const ResortBuffers& buf, bool prefetch) {
  // Listing 7: for col / plane { inner loop over row }:
  //   load  tmp[(plane*rows + row)*cols + col]   (stride cols*16, strided)
  //   store out[col*planes*rows + plane*rows + row]  (stride 16, sequential)
  sim::AccessEngine& eng = m.engine(socket, core);
  sim::LoopStats total;
  sim::LoopDesc inner;
  inner.iterations = d.rows;
  inner.sw_prefetch = prefetch;
  inner.streams = {
      {0, static_cast<std::int64_t>(d.cols * 16), 16, sim::AccessKind::Load},
      {0, 16, 16, sim::AccessKind::Store},
  };
  for (std::uint64_t col = 0; col < d.cols; ++col) {
    for (std::uint64_t plane = 0; plane < d.planes; ++plane) {
      inner.streams[0].base = buf.tmp + (plane * d.rows * d.cols + col) * 16;
      inner.streams[1].base =
          buf.out + (col * d.planes * d.rows + plane * d.rows) * 16;
      total += eng.execute(inner);
    }
  }
  return total;
}

void s1_resort_loops(const RankDims& d, const ResortBuffers& buf, bool prefetch,
                     bool planewise, std::uint64_t lo, std::uint64_t hi,
                     std::vector<sim::LoopDesc>& loops) {
  loops.resize((hi - lo) * d.rows);
  // Colwise (S1CF) and planewise (S1PF) differ only in which output
  // dimension is fastest; the store stride magnitude is the same.
  const auto out_stride = static_cast<std::int64_t>(d.planes * d.rows * 16);
  sim::LoopDesc* loop = loops.data();
  for (std::uint64_t plane = lo; plane < hi; ++plane) {
    for (std::uint64_t row = 0; row < d.rows; ++row, ++loop) {
      loop->iterations = d.cols;
      loop->flops_per_iter = 0.0;
      loop->sw_prefetch = prefetch;
      loop->streams = {
          {buf.in + (plane * d.rows + row) * d.cols * 16, 16, 16, sim::AccessKind::Load},
          {buf.out + (planewise ? row * d.planes + plane : plane * d.rows + row) * 16,
           out_stride, 16, sim::AccessKind::Store},
      };
    }
  }
}

void s2_resort_loops(const S2Dims& d, const ResortBuffers& buf, bool prefetch,
                     bool planewise, std::uint64_t lo, std::uint64_t hi,
                     std::vector<sim::LoopDesc>& loops) {
  loops.resize((hi - lo) * d.x * d.y);
  sim::LoopDesc* loop = loops.data();
  for (std::uint64_t plane = lo; plane < hi; ++plane) {
    for (std::uint64_t xx = 0; xx < d.x; ++xx) {
      for (std::uint64_t yy = 0; yy < d.y; ++yy, ++loop) {
        // Input ordered [Y][PLANES][X][ROWS]; colwise (S2CF) vs planewise
        // (S2PF) output ordering, both keeping the innermost dimension
        // contiguous, so the stride is amortized.
        const std::uint64_t out =
            planewise ? ((xx * d.y + yy) * d.planes + plane) * d.rows
                      : ((plane * d.x + xx) * d.y + yy) * d.rows;
        loop->iterations = d.rows;
        loop->flops_per_iter = 0.0;
        loop->sw_prefetch = prefetch;
        loop->streams = {
            {buf.in + ((yy * d.planes + plane) * d.x + xx) * d.rows * 16, 16, 16,
             sim::AccessKind::Load},
            {buf.out + out * 16, 16, 16, sim::AccessKind::Store},
        };
      }
    }
  }
}

void replay_resort(sim::AccessEngine& eng, std::uint64_t planes, std::uint64_t chunks,
                   const ResortBuild& build, const std::function<void()>& tick,
                   std::vector<sim::LoopDesc>& loops, sim::LoopStats& total) {
  for (std::uint64_t c = 0, lo = 0; c < chunks; ++c) {
    const std::uint64_t hi = planes * (c + 1) / chunks;
    build(lo, hi, loops);
    eng.execute_all(loops, total);
    lo = hi;
    if (tick) tick();
  }
}

namespace {

/// A replay with no tick to follow: batches of whole planes, as many per
/// batch as fit in about kBatchLoops loops.
constexpr std::uint64_t kBatchLoops = 4096;

sim::LoopStats replay_tickless(sim::AccessEngine& eng, std::uint64_t planes,
                               std::uint64_t loops_per_plane, const ResortBuild& build) {
  const std::uint64_t per_batch = std::max<std::uint64_t>(1, kBatchLoops / loops_per_plane);
  std::vector<sim::LoopDesc> loops;
  sim::LoopStats total;
  replay_resort(eng, planes, (planes + per_batch - 1) / per_batch, build, {}, loops, total);
  return total;
}

}  // namespace

sim::LoopStats s1cf_combined_replay(sim::Machine& m, std::uint32_t socket,
                                    std::uint32_t core, const RankDims& d,
                                    const ResortBuffers& buf, bool prefetch) {
  return replay_tickless(m.engine(socket, core), d.planes, d.rows,
                         [&](std::uint64_t lo, std::uint64_t hi, auto& loops) {
                           s1_resort_loops(d, buf, prefetch, /*planewise=*/false, lo, hi, loops);
                         });
}

sim::LoopStats s1pf_combined_replay(sim::Machine& m, std::uint32_t socket,
                                    std::uint32_t core, const RankDims& d,
                                    const ResortBuffers& buf, bool prefetch) {
  return replay_tickless(m.engine(socket, core), d.planes, d.rows,
                         [&](std::uint64_t lo, std::uint64_t hi, auto& loops) {
                           s1_resort_loops(d, buf, prefetch, /*planewise=*/true, lo, hi, loops);
                         });
}

sim::LoopStats s2cf_replay(sim::Machine& m, std::uint32_t socket,
                           std::uint32_t core, const S2Dims& d,
                           const ResortBuffers& buf, bool prefetch) {
  return replay_tickless(m.engine(socket, core), d.planes, d.x * d.y,
                         [&](std::uint64_t lo, std::uint64_t hi, auto& loops) {
                           s2_resort_loops(d, buf, prefetch, /*planewise=*/false, lo, hi, loops);
                         });
}

sim::LoopStats s2pf_replay(sim::Machine& m, std::uint32_t socket,
                           std::uint32_t core, const S2Dims& d,
                           const ResortBuffers& buf, bool prefetch) {
  return replay_tickless(m.engine(socket, core), d.planes, d.x * d.y,
                         [&](std::uint64_t lo, std::uint64_t hi, auto& loops) {
                           s2_resort_loops(d, buf, prefetch, /*planewise=*/true, lo, hi, loops);
                         });
}

}  // namespace papisim::fft
