// Tests for the 3D-FFT re-sorting routines: numeric permutation properties
// and the simulated traffic signatures of paper Figs. 6-9.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "fft/fft3d.hpp"
#include "fft/resort.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/expected.hpp"

namespace papisim::fft {
namespace {

using std::complex;

std::vector<complex<double>> iota_signal(std::uint64_t n) {
  std::vector<complex<double>> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = {static_cast<double>(i), -0.5};
  return v;
}

bool is_permutation_of_iota(const std::vector<complex<double>>& v) {
  std::vector<double> re(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) re[i] = v[i].real();
  std::sort(re.begin(), re.end());
  for (std::size_t i = 0; i < re.size(); ++i) {
    if (re[i] != static_cast<double>(i)) return false;
  }
  return true;
}

TEST(RankDims, DerivedFromGridDecomposition) {
  const mpi::Grid grid{2, 4};
  const RankDims d = RankDims::of(1024, grid);
  EXPECT_EQ(d.planes, 512u);  // N / r
  EXPECT_EQ(d.rows, 256u);    // N / c
  EXPECT_EQ(d.cols, 1024u);   // N
  EXPECT_EQ(d.elems(), 1024ull * 1024 * 128);
  EXPECT_EQ(d.bytes(), d.elems() * 16);
  EXPECT_THROW(RankDims::of(1000, mpi::Grid{3, 4}), std::invalid_argument);
}

TEST(S2Dims, FactorsTheColsPencil) {
  const mpi::Grid grid{2, 4};
  const S2Dims s = S2Dims::of(RankDims::of(64, grid), grid);
  EXPECT_EQ(s.planes, 32u);
  EXPECT_EQ(s.x, 4u);
  EXPECT_EQ(s.y, 16u);
  EXPECT_EQ(s.rows, 16u);
  EXPECT_EQ(s.elems(), RankDims::of(64, grid).elems());
}

TEST(ResortNumeric, Nest1IsTheIdentityCopy) {
  const RankDims d{3, 4, 5};
  const auto in = iota_signal(d.elems());
  std::vector<complex<double>> tmp(d.elems());
  s1cf_nest1_numeric(in, tmp, d);
  EXPECT_EQ(in, tmp);
}

TEST(ResortNumeric, TwoNestsEqualCombined) {
  const RankDims d{4, 6, 8};
  const auto in = iota_signal(d.elems());
  std::vector<complex<double>> tmp(d.elems()), out2(d.elems()), out1(d.elems());
  s1cf_nest1_numeric(in, tmp, d);
  s1cf_nest2_numeric(tmp, out2, d);
  s1cf_combined_numeric(in, out1, d);
  EXPECT_EQ(out1, out2);
}

TEST(ResortNumeric, S1cfIsABijection) {
  const RankDims d{4, 3, 6};
  const auto in = iota_signal(d.elems());
  std::vector<complex<double>> out(d.elems());
  s1cf_combined_numeric(in, out, d);
  EXPECT_TRUE(is_permutation_of_iota(out));
  // Spot-check the index transform: in[plane][row][col] ->
  // out[col*planes*rows + plane*rows + row].
  const std::uint64_t plane = 2, row = 1, col = 5;
  EXPECT_EQ(out[col * d.planes * d.rows + plane * d.rows + row],
            in[plane * d.rows * d.cols + row * d.cols + col]);
}

TEST(ResortNumeric, S1pfIsABijectionWithPlaneFastest) {
  const RankDims d{3, 5, 4};
  const auto in = iota_signal(d.elems());
  std::vector<complex<double>> out(d.elems());
  s1pf_combined_numeric(in, out, d);
  EXPECT_TRUE(is_permutation_of_iota(out));
  const std::uint64_t plane = 1, row = 4, col = 2;
  EXPECT_EQ(out[(col * d.rows + row) * d.planes + plane],
            in[plane * d.rows * d.cols + row * d.cols + col]);
}

TEST(ResortNumeric, S2cfIsABijection) {
  const S2Dims d{3, 4, 5, 6};
  const auto in = iota_signal(d.elems());
  std::vector<complex<double>> out(d.elems());
  s2cf_numeric(in, out, d);
  EXPECT_TRUE(is_permutation_of_iota(out));
  // Innermost dimension (rows) is contiguous on both sides.
  EXPECT_EQ(out[1] - out[0], complex<double>(1.0, 0.0));
}

TEST(ResortNumeric, S2pfIsABijection) {
  const S2Dims d{2, 3, 4, 5};
  const auto in = iota_signal(d.elems());
  std::vector<complex<double>> out(d.elems());
  s2pf_numeric(in, out, d);
  EXPECT_TRUE(is_permutation_of_iota(out));
}

TEST(ResortNumeric, BufferSizesValidated) {
  const RankDims d{4, 4, 4};
  std::vector<complex<double>> small(10), ok(d.elems());
  EXPECT_THROW(s1cf_combined_numeric(small, ok, d), std::invalid_argument);
  EXPECT_THROW(s1cf_nest2_numeric(ok, small, d), std::invalid_argument);
}

// ------------------------------------------------------- traffic signatures

struct ReplayFixture : ::testing::Test {
  void SetUp() override {
    machine = std::make_unique<sim::Machine>(sim::MachineConfig::summit());
    machine->set_noise_enabled(false);
    machine->set_active_cores(0, 1);
  }
  std::uint64_t reads() const {
    return machine->memctrl(0).total_bytes(sim::MemDir::Read);
  }
  std::uint64_t writes() const {
    return machine->memctrl(0).total_bytes(sim::MemDir::Write);
  }
  std::unique_ptr<sim::Machine> machine;
  mpi::Grid grid{2, 4};
};

TEST_F(ReplayFixture, Nest1WithoutPrefetchOneReadOneWrite) {
  // Fig. 6a: sequential copy; stores bypass the cache.
  const RankDims d = RankDims::of(256, grid);
  const ResortBuffers buf = ResortBuffers::allocate(machine->address_space(), d.bytes());
  s1cf_nest1_replay(*machine, 0, 0, d, buf, /*prefetch=*/false);
  machine->flush_socket(0);
  EXPECT_EQ(reads(), d.bytes());
  EXPECT_EQ(writes(), d.bytes());
}

TEST_F(ReplayFixture, Nest1WithPrefetchTwoReadsOneWrite) {
  // Fig. 6b: dcbtst forces tmp to be read into the cache.
  const RankDims d = RankDims::of(256, grid);
  const ResortBuffers buf = ResortBuffers::allocate(machine->address_space(), d.bytes());
  s1cf_nest1_replay(*machine, 0, 0, d, buf, /*prefetch=*/true);
  machine->flush_socket(0);
  EXPECT_EQ(reads(), 2 * d.bytes());
  EXPECT_EQ(writes(), d.bytes());
}

TEST_F(ReplayFixture, Nest2SmallProblemTwoReadsOneWrite) {
  // Fig. 7a below the Eq. 7 bound (N ~ 724): tmp's lines are still cached
  // across the column passes, so ~1 read for tmp + 1 read-per-write for out.
  machine->set_active_cores(0, machine->cores_per_socket());
  const RankDims d = RankDims::of(256, grid);
  const ResortBuffers buf = ResortBuffers::allocate(machine->address_space(), d.bytes());
  s1cf_nest2_replay(*machine, 0, 0, d, buf, false);
  machine->flush_socket(0);
  const double bytes = static_cast<double>(d.bytes());
  EXPECT_NEAR(static_cast<double>(reads()), 2.0 * bytes, 0.15 * bytes);
  EXPECT_NEAR(static_cast<double>(writes()), bytes, 0.05 * bytes);
}

TEST_F(ReplayFixture, Nest2LargeProblemUpToFiveReadsPerWrite) {
  // Fig. 7a beyond the Eq. 7 bound: a full line per element of tmp plus the
  // read-per-write for out -> up to 5 reads per write.
  machine->set_active_cores(0, machine->cores_per_socket());
  const std::uint64_t n = 1024;  // > 724
  ASSERT_GT(n, kernels::s1cf_ln2_cache_bound(5ull << 20, grid.size()));
  const RankDims d = RankDims::of(n, grid);
  const ResortBuffers buf = ResortBuffers::allocate(machine->address_space(), d.bytes());
  s1cf_nest2_replay(*machine, 0, 0, d, buf, false);
  machine->flush_socket(0);
  const double bytes = static_cast<double>(d.bytes());
  const double r = static_cast<double>(reads()) / bytes;
  EXPECT_GT(r, 4.0);
  EXPECT_LE(r, 5.1);
  EXPECT_NEAR(static_cast<double>(writes()), bytes, 0.05 * bytes);
}

TEST_F(ReplayFixture, CombinedNestTwoReadsOneWrite) {
  // Fig. 8: in read once; strided stores to out write-allocate.
  machine->set_active_cores(0, machine->cores_per_socket());
  const RankDims d = RankDims::of(256, grid);
  const ResortBuffers buf = ResortBuffers::allocate(machine->address_space(), d.bytes());
  s1cf_combined_replay(*machine, 0, 0, d, buf, false);
  machine->flush_socket(0);
  const double bytes = static_cast<double>(d.bytes());
  EXPECT_NEAR(static_cast<double>(reads()), 2.0 * bytes, 0.1 * bytes);
  EXPECT_NEAR(static_cast<double>(writes()), bytes, 0.1 * bytes);
}

TEST_F(ReplayFixture, S2cfOneReadOneWrite) {
  // Fig. 9a: matching innermost dimensions; stores bypass.
  const S2Dims d = S2Dims::of(RankDims::of(256, grid), grid);
  const ResortBuffers buf =
      ResortBuffers::allocate(machine->address_space(), d.elems() * 16);
  s2cf_replay(*machine, 0, 0, d, buf, false);
  machine->flush_socket(0);
  const double bytes = static_cast<double>(d.elems() * 16);
  EXPECT_NEAR(static_cast<double>(reads()), bytes, 0.02 * bytes);
  EXPECT_NEAR(static_cast<double>(writes()), bytes, 0.02 * bytes);
}

TEST_F(ReplayFixture, S1pfPlanewiseMatchesS1cfTrafficSignature) {
  // Paper: "the structure and performance of S1PF ... are similar to those
  // of S1CF" -- two reads, one write per element.
  machine->set_active_cores(0, machine->cores_per_socket());
  const RankDims d = RankDims::of(256, grid);
  const ResortBuffers buf = ResortBuffers::allocate(machine->address_space(), d.bytes());
  s1pf_combined_replay(*machine, 0, 0, d, buf, false);
  machine->flush_socket(0);
  const double bytes = static_cast<double>(d.bytes());
  EXPECT_NEAR(static_cast<double>(reads()), 2.0 * bytes, 0.1 * bytes);
  EXPECT_NEAR(static_cast<double>(writes()), bytes, 0.1 * bytes);
}

TEST_F(ReplayFixture, S2pfPlanewiseMatchesS2cfTrafficSignature) {
  const S2Dims d = S2Dims::of(RankDims::of(256, grid), grid);
  const ResortBuffers buf =
      ResortBuffers::allocate(machine->address_space(), d.elems() * 16);
  s2pf_replay(*machine, 0, 0, d, buf, false);
  machine->flush_socket(0);
  const double bytes = static_cast<double>(d.elems() * 16);
  EXPECT_NEAR(static_cast<double>(reads()), bytes, 0.02 * bytes);
  EXPECT_NEAR(static_cast<double>(writes()), bytes, 0.02 * bytes);
}

TEST_F(ReplayFixture, PrefetchImprovesNest2Bandwidth) {
  // Fig. 7b: -fprefetch-loop-arrays improves the strided nest's performance.
  machine->set_active_cores(0, machine->cores_per_socket());
  const RankDims d = RankDims::of(512, grid);
  auto run = [&](bool pf) {
    sim::Machine m(sim::MachineConfig::summit());
    m.set_noise_enabled(false);
    m.set_active_cores(0, m.cores_per_socket());
    const ResortBuffers buf = ResortBuffers::allocate(m.address_space(), d.bytes());
    const sim::LoopStats st = s1cf_nest2_replay(m, 0, 0, d, buf, pf);
    return st.time_ns;
  };
  EXPECT_LT(run(true), run(false));
}


// ------------------------------------------------------ set-sharded replay

/// A noise-off Summit machine with socket 0 fully active (no victim store).
std::unique_ptr<sim::Machine> full_socket() {
  auto m = std::make_unique<sim::Machine>(sim::MachineConfig::summit());
  m->set_noise_enabled(false);
  m->set_active_cores(0, m->cores_per_socket());
  return m;
}

TEST(ShardedResort, ReplaysEqualTheirLoopsExecutedOneByOne) {
  // Each replay submits its loops in multi-plane execute_all() batches; a
  // twin machine runs the same loops, from the same builders, through
  // execute().
  const RankDims d = RankDims::of(128, mpi::Grid{2, 4});
  const S2Dims s2 = S2Dims::of(d, mpi::Grid{2, 4});
  for (int which = 0; which < 4; ++which) {
    SCOPED_TRACE(which);
    const bool second = which >= 2, planewise = which % 2 == 1;
    auto batched = full_socket(), serial = full_socket();
    const ResortBuffers buf = ResortBuffers::allocate(batched->address_space(), d.bytes());
    ResortBuffers::allocate(serial->address_space(), d.bytes());
    const sim::LoopStats got =
        second ? (planewise ? s2pf_replay : s2cf_replay)(*batched, 0, 0, s2, buf, false)
               : (planewise ? s1pf_combined_replay : s1cf_combined_replay)(*batched, 0, 0, d,
                                                                          buf, false);
    std::vector<sim::LoopDesc> loops;
    if (second) {
      s2_resort_loops(s2, buf, false, planewise, 0, s2.planes, loops);
    } else {
      s1_resort_loops(d, buf, false, planewise, 0, d.planes, loops);
    }
    sim::LoopStats want;
    for (const sim::LoopDesc& loop : loops) want += serial->engine(0, 0).execute(loop);
    EXPECT_EQ(got.line_touches, want.line_touches);
    EXPECT_EQ(got.mem_read_bytes, want.mem_read_bytes);
    EXPECT_EQ(got.mem_write_bytes, want.mem_write_bytes);
    EXPECT_EQ(got.l3_hits, want.l3_hits);
    EXPECT_EQ(got.bypassed_store_lines, want.bypassed_store_lines);
    EXPECT_EQ(got.time_ns, want.time_ns);
    EXPECT_EQ(batched->clock().now_ns(), serial->clock().now_ns());
    EXPECT_EQ(batched->memctrl(0).snapshot(), serial->memctrl(0).snapshot());
    EXPECT_EQ(batched->engine(0, 0).counters().sharded_loops,
              sim::AccessEngine::shard_threads() > 1 ? loops.size() : 0u);
  }
}

TEST(ShardedResort, FullSocketFftShardsEveryResortLoopLoneGemvNone) {
  auto m = full_socket();
  Fft3dConfig cfg;
  cfg.n = 128;
  cfg.grid = {2, 4};
  cfg.ticks_per_phase = 2;  // every tick's batch passes the shard threshold
  DistributedFft3d app(*m, cfg);
  app.run_forward();
  const RankDims d = app.dims();
  const S2Dims s2 = S2Dims::of(d, cfg.grid);
  const std::uint64_t resort_loops = 2 * d.planes * d.rows + 2 * s2.planes * s2.x * s2.y;
  EXPECT_EQ(m->engine(0, 0).counters().sharded_loops,
            sim::AccessEngine::shard_threads() > 1 ? resort_loops : 0u);

  // A lone core's capped GEMV spills into its victim store: nothing shards.
  sim::Machine lone(sim::MachineConfig::summit());
  lone.set_noise_enabled(false);
  lone.set_active_cores(0, 1);
  constexpr std::uint64_t kRows = 1024, kN = 1280;
  const kernels::GemvBuffers gb =
      kernels::GemvBuffers::allocate(lone.address_space(), kRows, kN, kN);
  kernels::run_capped_gemv(lone, 0, 0, kRows, kN, kN, gb);
  EXPECT_GT(lone.engine(0, 0).counters().line_touches, 0u);
  EXPECT_EQ(lone.engine(0, 0).counters().sharded_loops, 0u);
}

}  // namespace
}  // namespace papisim::fft
