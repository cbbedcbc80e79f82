// Tests for the structured settle cache: precise invalidation semantics,
// plan reuse and rebuilds, and parity with a dense LU on the effective
// arrays the solvers actually settle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/par.hpp"
#include "common/rng.hpp"
#include "core/kkt.hpp"
#include "core/ls_pdip.hpp"
#include "core/negfree.hpp"
#include "crossbar/crossbar.hpp"
#include "linalg/factor_cache.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "lp/generator.hpp"
#include "noc/tiled.hpp"

namespace memlp {
namespace {

Matrix random_well_conditioned(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    m(i, i) += static_cast<double>(n) + 1.0;
  return m;
}

/// Diagonally dominant with ~`density` off-diagonal fill: a pattern the
/// plan can eliminate in levels.
Matrix random_sparse(std::size_t n, double density, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && rng.uniform() < density) m(i, j) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    m(i, i) = static_cast<double>(n) * rng.uniform(1.0, 2.0);
  return m;
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.normal();
  return b;
}

double solve_error(const Matrix& a, std::span<const double> b,
                   std::span<const double> x) {
  const Vec residual = sub(gemv(a, Vec(x.begin(), x.end())),
                           Vec(b.begin(), b.end()));
  return norm_inf(residual) / std::max(1.0, norm_inf(b));
}

/// Normwise relative residual ‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞).
double relative_residual(const Matrix& a, std::span<const double> b,
                         std::span<const double> x) {
  const Vec residual = sub(gemv(a, Vec(x.begin(), x.end())),
                           Vec(b.begin(), b.end()));
  return norm_inf(residual) /
         (a.inf_norm() * norm_inf(Vec(x.begin(), x.end())) +
          norm_inf(Vec(b.begin(), b.end())));
}

TEST(FactorCache, NonIncrementalMatchesDirectLuBitwise) {
  // A dense pattern plans no levels: the cache is the dense LU, bit for bit.
  Rng rng(1);
  const std::size_t n = 17;
  const Matrix a = random_well_conditioned(n, rng);
  const Vec b = random_vec(n, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.plan_levels(), 0u);
  const Vec x = cache.solve(b);
  const Vec expected = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], expected[i]);
}

TEST(FactorCache, PrepareWithNothingDirtyIsAHit) {
  Rng rng(2);
  const Matrix a = random_well_conditioned(9, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().full_factorizations, 1u);
  ASSERT_TRUE(cache.prepare(a));
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().full_factorizations, 1u);
  EXPECT_EQ(cache.stats().prepare_hits, 2u);
}

TEST(FactorCache, NoteRowForcesRefactorInExactMode) {
  Rng rng(3);
  Matrix a = random_well_conditioned(9, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  a(4, 4) += 1.0;
  cache.note_row(4);
  const Vec b = random_vec(9, rng);
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().full_factorizations, 2u);
  const Vec x = cache.solve(b);
  const Vec expected = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(x[i], expected[i]);
}

TEST(FactorCache, SparsePatternPlansEliminationLevels) {
  Rng rng(11);
  const std::size_t n = 60;
  const Matrix a = random_sparse(n, 0.05, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_GE(cache.plan_levels(), 1u);
  EXPECT_LT(cache.dense_dim(), n / 2);
  const Vec b = random_vec(n, rng);
  const Vec x = cache.solve(b);
  const Vec dense = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], dense[i], 1e-12 * norm_inf(dense));
}

TEST(FactorCache, DiagonalMatrixEliminatesWithoutADenseBlock) {
  // The ls M2 array: one level takes every pivot, and the solve divides.
  const Matrix a = Matrix::diagonal(Vec{2.0, 4.0, 0.5, 8.0});
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.plan_levels(), 1u);
  EXPECT_EQ(cache.dense_dim(), 0u);
  const Vec x = cache.solve(Vec{1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(x, (Vec{0.5, 0.25, 2.0, 0.125}));
}

TEST(FactorCache, IncrementalRowUpdateMatchesDirectSolve) {
  // Value-only changes on noted rows replay the plan (no rebuild).
  Rng rng(4);
  const std::size_t n = 40;
  Matrix a = random_sparse(n, 0.08, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  for (std::size_t r : {3u, 7u, 11u}) {
    a(r, r) *= 1.5;
    cache.note_row(r);
  }
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().full_factorizations, 2u);
  EXPECT_EQ(cache.stats().plan_builds, 1u);
  const Vec b = random_vec(n, rng);
  EXPECT_LT(solve_error(a, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, RepeatedUpdatesOnSameRowsReuseThePlan) {
  // The PDIP loop rewrites the SAME diagonal cells every iteration; the
  // plan is built once and every prepare replays it.
  Rng rng(5);
  const std::size_t n = 48;
  Matrix a = random_sparse(n, 0.06, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  for (std::size_t iteration = 0; iteration < 8; ++iteration) {
    for (std::size_t r : {2u, 9u, 20u}) {
      a(r, r) += 0.1 * static_cast<double>(iteration + 1);
      cache.note_row(r);
    }
    ASSERT_TRUE(cache.prepare(a));
    const Vec b = random_vec(n, rng);
    EXPECT_LT(solve_error(a, b, cache.solve(b)), 1e-11)
        << "iteration " << iteration;
  }
  EXPECT_EQ(cache.stats().full_factorizations, 9u);
  EXPECT_EQ(cache.stats().plan_builds, 1u);
  EXPECT_EQ(cache.stats().plan_rebuilds, 0u);
  EXPECT_FALSE(cache.stats().thrashing());
}

TEST(FactorCache, PatternChangeOnANotedRowRebuildsThePlan) {
  Rng rng(12);
  const std::size_t n = 40;
  Matrix a = random_sparse(n, 0.05, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  std::size_t zero_col = 0;
  while (a(5, zero_col) != 0.0) ++zero_col;
  a(5, zero_col) = 0.75;  // a structural zero becomes a nonzero
  cache.note_row(5);
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().plan_builds, 2u);
  EXPECT_EQ(cache.stats().plan_rebuilds, 1u);
  const Vec b = random_vec(n, rng);
  EXPECT_LT(solve_error(a, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, PivotFailingTheThresholdRebuildsThePlan) {
  // Shrinking every diagonal pivot far below its column's other entries
  // breaks the threshold test on replay: the plan is rebuilt, not used.
  Rng rng(13);
  const std::size_t n = 40;
  Matrix a = random_sparse(n, 0.05, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  ASSERT_GE(cache.plan_levels(), 1u);
  for (std::size_t r = 0; r < n; ++r) {
    a(r, r) *= 1e-6;
    cache.note_row(r);
  }
  const bool ok = cache.prepare(a);
  EXPECT_EQ(cache.stats().plan_rebuilds, 1u);
  if (ok) {
    const Vec b = random_vec(n, rng);
    const Vec x = cache.solve(b);
    EXPECT_LT(relative_residual(a, b, x), 1e-13);
  }
}

TEST(FactorCache, NoteAllRechecksThePattern) {
  Rng rng(8);
  const std::size_t n = 30;
  Matrix a = random_sparse(n, 0.06, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  // An unknown change set that keeps the pattern replays the plan...
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.1;
  cache.note_all();
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().full_factorizations, 2u);
  EXPECT_EQ(cache.stats().plan_builds, 1u);
  // ...and one that fills the zeros in (half-select disturb) re-plans.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (a(i, j) == 0.0) a(i, j) = 1e-6;
  cache.note_all();
  ASSERT_TRUE(cache.prepare(a));
  EXPECT_EQ(cache.stats().plan_builds, 2u);
  EXPECT_EQ(cache.plan_levels(), 0u);
  const Vec b = random_vec(n, rng);
  EXPECT_LT(solve_error(a, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, SingularMatrixReportsFailure) {
  Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  FactorizationCache cache;
  EXPECT_FALSE(cache.prepare(singular));
  EXPECT_FALSE(cache.ready());
}

TEST(FactorCache, RecoversAfterSingularPhase) {
  // A singular prepare must not poison the cache once the matrix is fixed.
  Rng rng(9);
  Matrix a = random_sparse(12, 0.1, rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(a));
  Matrix broken = a;
  for (std::size_t j = 0; j < 12; ++j) broken(2, j) = 0.0;
  cache.note_row(2);
  EXPECT_FALSE(cache.prepare(broken));
  EXPECT_FALSE(cache.ready());
  cache.note_row(2);
  ASSERT_TRUE(cache.prepare(a));
  const Vec b = random_vec(12, rng);
  EXPECT_LT(solve_error(a, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, ShapeChangeInvalidates) {
  Rng rng(10);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(random_well_conditioned(5, rng)));
  const Matrix bigger = random_sparse(8, 0.2, rng);
  ASSERT_TRUE(cache.prepare(bigger));
  EXPECT_EQ(cache.stats().full_factorizations, 2u);
  EXPECT_EQ(cache.stats().plan_rebuilds, 0u);
  const Vec b = random_vec(8, rng);
  EXPECT_LT(solve_error(bigger, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, SolveBeforePrepareIsAContractViolation) {
  FactorizationCache cache;
  const Vec b{1.0, 2.0};
  EXPECT_THROW((void)cache.solve(b), ContractViolation);
}

// --- parity on the solvers' effective arrays ---------------------------------

/// A late-iteration interior state: x and z (and y, w) complementary at
/// µ = 1e-3, with x spread over five decades.
core::PdipState spread_state(std::size_t n, std::size_t m, Rng& rng) {
  core::PdipState state = core::PdipState::ones(n, m);
  for (std::size_t j = 0; j < n; ++j) {
    state.x[j] = std::pow(10.0, rng.uniform(-3.0, 2.0));
    state.z[j] = 1e-3 / state.x[j];
  }
  for (std::size_t i = 0; i < m; ++i) {
    state.y[i] = std::pow(10.0, rng.uniform(-3.0, 2.0));
    state.w[i] = 1e-3 / state.y[i];
  }
  return state;
}

xbar::CrossbarConfig varied_config() {
  xbar::CrossbarConfig config;
  config.variation = mem::VariationModel::uniform(0.1);
  config.conductance_levels = 1 << 16;
  return config;
}

/// The negative-free Eq. (14a) array of a dense m-row LP at a spread state,
/// with the solver's write floor (one conductance level) on every cell.
Matrix xbar_kkt_array(std::size_t m, double full_scale, Rng& rng) {
  lp::GeneratorOptions gen;
  gen.constraints = m;
  const auto problem = lp::random_feasible(gen, rng);
  core::PdipState state =
      spread_state(problem.num_variables(), problem.num_constraints(), rng);
  const auto levels =
      static_cast<double>(varied_config().conductance_levels - 1);
  state.clamp_floor(0.75 * full_scale / levels);
  return core::NegativeFreeSystem(core::assemble_kkt(problem, state)).matrix();
}

Matrix programmed_effective(const Matrix& ideal, xbar::CrossbarConfig config,
                            double full_scale) {
  xbar::Crossbar crossbar(config, Rng(42));
  crossbar.program(ideal, full_scale);
  return crossbar.effective();
}

struct Parity {
  double difference = 0.0;  ///< ‖x_s − x_d‖∞ / ‖x_d‖∞.
  double residual_structured = 0.0;
  double residual_dense = 0.0;
  std::size_t levels = 0;
};

Parity settle_parity(const Matrix& effective, Rng& rng) {
  const Vec b = random_vec(effective.rows(), rng);
  FactorizationCache cache;
  EXPECT_TRUE(cache.prepare(effective));
  const Vec structured = cache.solve(b);
  const LuFactorization lu(effective);
  EXPECT_FALSE(lu.singular());
  const Vec dense = lu.solve(b);
  Parity parity;
  parity.difference = norm_inf(sub(structured, dense)) / norm_inf(dense);
  parity.residual_structured = relative_residual(effective, b, structured);
  parity.residual_dense = relative_residual(effective, b, dense);
  parity.levels = cache.plan_levels();
  return parity;
}

void expect_parity(const Parity& parity) {
  EXPECT_GE(parity.levels, 1u);
  EXPECT_LE(parity.difference, 1e-9);
  EXPECT_LE(parity.residual_structured, 10.0 * parity.residual_dense);
}

TEST(StructuredSettle, XbarKktAtASpreadLateIterationState) {
  Rng rng(101);
  const double full_scale = 4.0 * 100.0;
  const Matrix ideal = xbar_kkt_array(128, full_scale, rng);
  const Matrix effective =
      programmed_effective(ideal, varied_config(), full_scale);
  // Zero cells are never written: the effective array keeps the pattern.
  for (std::size_t p = 0; p < ideal.data().size(); ++p) {
    if (ideal.data()[p] == 0.0) {
      ASSERT_EQ(effective.data()[p], 0.0);
    }
  }
  expect_parity(settle_parity(effective, rng));
}

TEST(StructuredSettle, LsGainRangedM1) {
  Rng rng(102);
  lp::GeneratorOptions gen;
  gen.constraints = 96;
  const auto problem = lp::random_feasible(gen, rng);
  const auto state =
      spread_state(problem.num_variables(), problem.num_constraints(), rng);
  const Matrix ideal =
      core::NegativeFreeSystem(
          core::build_schur_m1(problem, state, core::LsPdipOptions{}.ratio_cap))
          .matrix();
  xbar::CrossbarConfig config = varied_config();
  config.conductance_levels = 256;
  config.per_cell_gain_ranging = true;
  expect_parity(settle_parity(
      programmed_effective(ideal, config, 4.0 * ideal.max_abs()), rng));
}

TEST(StructuredSettle, TiledCompositeOf128WideArrays) {
  Rng rng(103);
  const auto problem = lp::block_diagonal(8, 32, 12, rng);
  const auto state =
      spread_state(problem.num_variables(), problem.num_constraints(), rng);
  const Matrix ideal =
      core::NegativeFreeSystem(core::assemble_kkt(problem, state)).matrix();
  noc::TiledConfig config;
  config.tile_dim = 128;
  config.xbar = varied_config();
  noc::TiledCrossbarMatrix tiled(config, Rng(42));
  tiled.program(ideal, 4.0 * ideal.max_abs());
  EXPECT_GT(tiled.num_zero_tiles(), 0u);
  expect_parity(settle_parity(tiled.assemble_effective(), rng));
}

TEST(StructuredSettle, IrDropArrayPlansNoLevelsAndMatchesLuBitwise) {
  // IR drop degrades every cell by its position, zeros included: the
  // pattern is dense and the settle is the dense LU, bit for bit.
  Rng rng(104);
  const double full_scale = 400.0;
  const Matrix ideal = xbar_kkt_array(32, full_scale, rng);
  xbar::CrossbarConfig config = varied_config();
  config.line_resistance_ohm = 1.0;
  const Matrix effective = programmed_effective(ideal, config, full_scale);
  const Vec b = random_vec(effective.rows(), rng);
  FactorizationCache cache;
  ASSERT_TRUE(cache.prepare(effective));
  EXPECT_EQ(cache.plan_levels(), 0u);
  const Vec structured = cache.solve(b);
  const Vec dense = LuFactorization(effective).solve(b);
  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_EQ(structured[i], dense[i]) << "row " << i;
}

// Run once per thread count by ctest (MEMLP_THREADS = 1, 2, 4): the default
// thread count's factor and solve must match a serial run bit for bit. The
// serial run sits inside a parallel region, where nested regions run inline.
TEST(StructuredSettle, BitIdenticalAcrossThreadCounts) {
  Rng rng(105);
  const double full_scale = 400.0;
  const Matrix effective = programmed_effective(
      xbar_kkt_array(128, full_scale, rng), varied_config(), full_scale);
  const Vec b = random_vec(effective.rows(), rng);
  const auto settle = [&] {
    FactorizationCache cache;
    EXPECT_TRUE(cache.prepare(effective));
    EXPECT_GE(cache.plan_levels(), 1u);
    return cache.solve(b);
  };
  const Vec pooled = settle();
  Vec serial;
  par::parallel_for(
      2,
      [&](std::size_t task) {
        if (task == 0) serial = settle();
      },
      2);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < pooled.size(); ++i)
    EXPECT_EQ(pooled[i], serial[i]) << "row " << i;
}

}  // namespace
}  // namespace memlp
