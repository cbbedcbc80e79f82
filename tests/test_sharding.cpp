// Sharded solve past N = 1000: a sparse block-diagonal LP whose augmented
// system exceeds a single crossbar maps onto the tiled NoC array, and the
// structurally-zero shards are verifiably never programmed (BackendStats
// zero_tiles). The solve itself still reaches the simplex optimum.
#include <gtest/gtest.h>

#include <cstddef>

#include "common/rng.hpp"
#include "core/xbar_pdip.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::core {
namespace {

XbarPdipOptions sharded_ideal_hardware() {
  XbarPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::none();
  options.hardware.crossbar.conductance_levels = 1 << 20;
  options.hardware.crossbar.io_bits = 0;
  options.hardware.force_noc = true;
  options.hardware.tile_dim = 128;
  return options;
}

TEST(Sharding, SparseThousandDimSolveSkipsZeroShards) {
  // 8 independent 48x16 blocks: m = 384, n = 128, density exactly 1/8.
  // The Eq. 12 KKT system has dimension 2(n+m) = 1024; after negative
  // elimination the programmed array is slightly larger still.
  Rng rng(21);
  const auto problem = lp::block_diagonal(8, 48, 16, rng);
  ASSERT_EQ(problem.num_constraints(), 384u);
  ASSERT_EQ(problem.num_variables(), 128u);
  EXPECT_LT(problem.a.density(), 0.2);

  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  const auto outcome = solve_xbar_pdip(problem, sharded_ideal_hardware());
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(outcome.result.objective, reference.objective),
            1e-4);

  // The array sharded: dimension past 1024 over 128-wide tiles.
  EXPECT_GE(outcome.stats.system_dim, 1024u);
  const std::size_t grid = (outcome.stats.system_dim + 127) / 128;
  ASSERT_GE(grid, 9u);
  EXPECT_EQ(outcome.stats.backend.num_tiles, grid * grid);

  // Block-diagonal sparsity leaves most off-diagonal shards structurally
  // zero; they must never have been programmed. The A and A^T blocks of the
  // KKT matrix are block-diagonal, so well over a third of the grid is
  // empty.
  EXPECT_GT(outcome.stats.backend.zero_tiles, grid * grid / 3);
  EXPECT_LT(outcome.stats.backend.zero_tiles, grid * grid);
  // Programming traffic covered at most the non-zero shards.
  const double tile_cells = 128.0 * 128.0;
  const std::size_t programmed_tiles =
      outcome.stats.backend.num_tiles - outcome.stats.backend.zero_tiles;
  EXPECT_LE(outcome.stats.programming.xbar.cells_written,
            static_cast<std::size_t>(tile_cells) * programmed_tiles);
}

TEST(Sharding, ZeroTileGaugeTracksStructureNotTheNocPath) {
  // Control: a dense random LP. Its augmented matrix still has the fixed
  // Eq. 12 zero blocks (the gauge reflects array structure), but most
  // shards carry data and are programmed.
  Rng rng(5);
  lp::GeneratorOptions generator;
  generator.constraints = 24;
  const auto problem = lp::random_feasible(generator, rng);

  XbarPdipOptions options = sharded_ideal_hardware();
  options.hardware.tile_dim = 32;
  const auto tiled = solve_xbar_pdip(problem, options);
  ASSERT_EQ(tiled.result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(tiled.stats.backend.num_tiles, 1u);
  EXPECT_LT(tiled.stats.backend.zero_tiles, tiled.stats.backend.num_tiles);

  // Off the NoC path a single monolithic array reports no shards at all.
  options.hardware.force_noc = false;
  options.hardware.tile_dim = 128;
  const auto single = solve_xbar_pdip(problem, options);
  ASSERT_EQ(single.result.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(single.stats.backend.num_tiles, 1u);
  EXPECT_EQ(single.stats.backend.zero_tiles, 0u);
}

}  // namespace
}  // namespace memlp::core
