// Tests for the tiled (NoC-coordinated) crossbar matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "noc/tiled.hpp"

namespace memlp::noc {
namespace {

TiledConfig ideal_tiled(std::size_t tile_dim,
                        TopologyKind kind = TopologyKind::kHierarchical) {
  TiledConfig config;
  config.tile_dim = tile_dim;
  config.topology = kind;
  config.xbar.variation = mem::VariationModel::none();
  config.xbar.conductance_levels = 1 << 20;
  config.xbar.io_bits = 0;
  return config;
}

Matrix random_nonneg(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(0.0, 2.0);
  return m;
}

TEST(Tiled, PartitionsIntoExpectedTileCount) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(1));
  tiled.program(Matrix(10, 7, 1.0));
  // rows: ceil(10/4)=3 blocks, cols: ceil(7/4)=2 blocks.
  EXPECT_EQ(tiled.num_tiles(), 6u);
  EXPECT_EQ(tiled.rows(), 10u);
  EXPECT_EQ(tiled.cols(), 7u);
}

TEST(Tiled, AssembledEffectiveMatchesIdeal) {
  Rng rng(2);
  const Matrix a = random_nonneg(9, 11, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(3));
  tiled.program(a);
  const Matrix effective = tiled.assemble_effective();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(effective(i, j), a(i, j), 1e-5 * (1 + a(i, j)));
}

TEST(Tiled, MultiplyMatchesDenseMvm) {
  Rng rng(4);
  const Matrix a = random_nonneg(13, 9, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(5), Rng(5));
  tiled.program(a);
  Vec x(9);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vec y = tiled.multiply(x);
  const Vec expected = gemv(tiled.assemble_effective(), x);
  ASSERT_EQ(y.size(), 13u);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], expected[i], 1e-10);
}

TEST(Tiled, MultiplyTransposedMatchesDense) {
  Rng rng(6);
  const Matrix a = random_nonneg(8, 14, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(6), Rng(7));
  tiled.program(a);
  Vec x(8);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vec y = tiled.multiply_transposed(x);
  const Vec expected = gemv_transposed(tiled.assemble_effective(), x);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], expected[i], 1e-10);
}

TEST(Tiled, CompositeSolveMatchesDenseSolve) {
  Rng rng(8);
  Matrix a = random_nonneg(10, 10, rng);
  for (std::size_t i = 0; i < 10; ++i) a(i, i) += 10.0;
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(9));
  tiled.program(a);
  Vec b(10);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = tiled.solve(b);
  ASSERT_TRUE(x.has_value());
  const Vec expected = lu_solve(tiled.assemble_effective(), b);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR((*x)[i], expected[i], 1e-9);
  EXPECT_EQ(tiled.noc_stats().global_settles, 1u);
}

TEST(Tiled, UpdateBlockDispatchesAcrossTileBoundaries) {
  Rng rng(10);
  const Matrix a = random_nonneg(8, 8, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(11));
  tiled.program(a);
  // A block straddling all four tiles.
  Matrix block(4, 4, 1.7);
  tiled.update_block(2, 2, block);
  const Matrix effective = tiled.assemble_effective();
  for (std::size_t i = 2; i < 6; ++i)
    for (std::size_t j = 2; j < 6; ++j)
      EXPECT_NEAR(effective(i, j), 1.7, 1e-4);
  // Untouched corner survives.
  EXPECT_NEAR(effective(0, 0), a(0, 0), 1e-4 * (1 + a(0, 0)));
}

TEST(Tiled, BlockJacobiSolvesDominantSystem) {
  Rng rng(12);
  const std::size_t n = 12;
  Matrix a = random_nonneg(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0 * static_cast<double>(n);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(13));
  tiled.program(a);
  Vec b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto result = tiled.solve_block_jacobi(b);
  EXPECT_TRUE(result.converged);
  const Vec expected = lu_solve(tiled.assemble_effective(), b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(result.x[i], expected[i], 1e-6);
}

// Regression: the convergence residual is a controller-side decision and is
// computed against the effective matrix directly. Routing it through
// multiply() (as the old code did) pushes it across the ADC: with a coarse
// I/O boundary the quantization error of the readout dominates the true
// residual, the check can never observe convergence, and every sweep is
// charged a full extra MVM's worth of tile settles and NoC traffic.
TEST(Tiled, BlockJacobiConvergesDespiteCoarseIoBits) {
  Rng rng(16);
  const std::size_t n = 12;
  Matrix a = random_nonneg(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0 * static_cast<double>(n);
  TiledConfig config = ideal_tiled(4);
  config.xbar.io_bits = 4;  // 16 codes: a deliberately brutal ADC
  TiledCrossbarMatrix tiled(config, Rng(17));
  tiled.program(a);
  Vec b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  BlockSolveOptions options;
  options.tolerance = 5e-2;
  const auto result = tiled.solve_block_jacobi(b, options);
  ASSERT_TRUE(result.converged);
  const double threshold = options.tolerance * std::max(1.0, norm_inf(b));
  EXPECT_LE(result.residual_inf, threshold);

  // Exactly nb² settles per sweep (nb·(nb−1) off-diagonal MVMs + nb diagonal
  // solves) — the residual check adds none.
  const std::size_t nb = 3;  // ceil(12 / 4)
  EXPECT_EQ(tiled.noc_stats().tile_settles, result.sweeps * nb * nb);

  // The old multiply()-based readout of the same converged iterate is
  // quantization-dominated and sits above the threshold it must beat.
  const Vec quantized_readout = sub(tiled.multiply(result.x), b);
  EXPECT_GT(norm_inf(quantized_readout), threshold);
}

TEST(Tiled, BlockJacobiRequiresSquareGrid) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(14));
  tiled.program(Matrix(8, 8, 1.0));
  EXPECT_NO_THROW((void)tiled.solve_block_jacobi(Vec(8, 1.0)));
  TiledCrossbarMatrix rect(ideal_tiled(5), Rng(15));
  rect.program(Matrix(8, 6, 1.0));
  EXPECT_THROW((void)rect.solve_block_jacobi(Vec(8, 1.0)),
               ContractViolation);
}

TEST(Tiled, TransfersAreCharged) {
  Rng rng(16);
  const Matrix a = random_nonneg(8, 8, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(17));
  tiled.program(a);
  tiled.reset_stats();
  (void)tiled.multiply(Vec(8, 1.0));
  const auto& stats = tiled.noc_stats();
  EXPECT_GT(stats.transfers, 0u);
  EXPECT_GT(stats.value_hops, 0u);
  EXPECT_EQ(stats.tile_settles, 4u);  // 2x2 grid of tiles
}

TEST(Tiled, MeshAndHierarchyAgreeFunctionally) {
  Rng rng(18);
  const Matrix a = random_nonneg(12, 12, rng);
  Vec x(12);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  TiledCrossbarMatrix hier(ideal_tiled(4, TopologyKind::kHierarchical),
                           Rng(19));
  TiledCrossbarMatrix mesh(ideal_tiled(4, TopologyKind::kMesh), Rng(19));
  hier.program(a);
  mesh.program(a);
  const Vec yh = hier.multiply(x);
  const Vec ym = mesh.multiply(x);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(yh[i], ym[i], 1e-9);
}

TEST(Tiled, RejectsNegativeAndZeroTileDim) {
  EXPECT_THROW(TiledCrossbarMatrix(TiledConfig{0, TopologyKind::kMesh, {}},
                                   Rng(20)),
               ConfigError);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(21));
  EXPECT_THROW(tiled.program(Matrix{{-1.0}}), ContractViolation);
}

TEST(Tiled, CrossbarStatsAggregateOverTiles) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(22));
  tiled.program(Matrix(8, 8, 1.0));
  const auto stats = tiled.crossbar_stats();
  EXPECT_EQ(stats.full_programs, 4u);
  EXPECT_EQ(stats.cells_written, 64u);
}

TEST(Tiled, UpdateCellsMatchesUpdateBlockWrites) {
  // The batched scattered-cell path must produce the same effective matrix
  // as per-cell update_block dispatches (same per-tile write order).
  Rng rng(30);
  const std::size_t n = 10;
  const Matrix a = random_nonneg(n, n, rng);
  TiledCrossbarMatrix batched(ideal_tiled(4), Rng(31));
  TiledCrossbarMatrix blocks(ideal_tiled(4), Rng(31));
  batched.program(a, 4.0);
  blocks.program(a, 4.0);

  std::vector<xbar::CellUpdate> updates;
  for (std::size_t j = 0; j < n; ++j)
    updates.push_back({j, j, rng.uniform(0.1, 2.0)});
  batched.update_cells(updates);
  Matrix single(1, 1);
  for (const xbar::CellUpdate& u : updates) {
    single(0, 0) = u.value;
    blocks.update_block(u.row, u.col, single);
  }
  EXPECT_EQ(batched.assemble_effective(), blocks.assemble_effective());
}

TEST(Tiled, SettleCacheSurvivesNoOpWritesAndFollowsRealOnes) {
  TiledConfig config = ideal_tiled(4);
  config.xbar.conductance_levels = 256;  // coarse: easy no-op writes
  Rng rng(32);
  const std::size_t n = 8;
  const Matrix a = random_nonneg(n, n, rng);
  TiledCrossbarMatrix tiled(config, Rng(33));
  tiled.program(a, 4.0);
  Vec b(n, 1.0);
  ASSERT_TRUE(tiled.solve(b).has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 1u);

  // Same-level rewrite: no tile reports a change, the factor survives.
  const xbar::CellUpdate noop{3, 3, a(3, 3) * (1.0 + 1e-9)};
  tiled.update_cells({&noop, 1});
  ASSERT_TRUE(tiled.solve(b).has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 1u);
  EXPECT_GE(tiled.settle_cache_stats().prepare_hits, 1u);

  // Real write: the next settle re-factors (exact mode).
  const xbar::CellUpdate real{3, 3, a(3, 3) + 1.0};
  tiled.update_cells({&real, 1});
  const auto x = tiled.solve(b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 2u);
  const Vec expected = LuFactorization(tiled.assemble_effective()).solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR((*x)[i], expected[i], 1e-12);
}

TEST(Tiled, StructuredSettleMatchesDenseLuAcrossIterations) {
  // A block-sparse composite: the off-diagonal tiles are zero shards, so
  // the composite's zero pattern drives the structured settle. Diagonal
  // rewrites replay the plan and each settle matches a dense LU.
  TiledConfig config = ideal_tiled(4);
  config.xbar.variation = mem::VariationModel::uniform(0.1);
  Rng rng(34);
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i / 4 == j / 4 && (i == j || rng.uniform() < 0.5))
        a(i, j) = rng.uniform(0.2, 2.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 2.0;
  TiledCrossbarMatrix tiled(config, Rng(35));
  tiled.program(a, 8.0);
  EXPECT_EQ(tiled.num_zero_tiles(), 6u);

  for (std::size_t iteration = 0; iteration < 5; ++iteration) {
    std::vector<xbar::CellUpdate> updates;
    for (std::size_t j = 0; j < n; j += 2)
      updates.push_back({j, j, rng.uniform(2.0, 4.0)});
    tiled.update_cells(updates);
    Vec b(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const auto x = tiled.solve(b);
    ASSERT_TRUE(x.has_value());
    const Vec dense = LuFactorization(tiled.assemble_effective()).solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR((*x)[i], dense[i], 1e-9 * (1.0 + std::abs(dense[i])))
          << "row " << i << " it " << iteration;
  }
  EXPECT_EQ(tiled.settle_cache_stats().plan_builds, 1u);
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 5u);
}

TEST(Tiled, FailedGlobalSettleAccounting) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(36));
  tiled.program(Matrix(8, 8, 1.0));  // rank-1 composite: singular
  const Vec b(8, 1.0);
  const auto before = tiled.noc_stats();
  EXPECT_FALSE(tiled.solve(b).has_value());
  const auto after = tiled.noc_stats();
  EXPECT_EQ(after.failed_global_settles, 1u);
  // No settle happened: no global settle counted, no boundary transfers.
  EXPECT_EQ(after.global_settles, before.global_settles);
  EXPECT_EQ(after.transfers, before.transfers);
}

}  // namespace
}  // namespace memlp::noc
