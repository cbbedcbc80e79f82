#include "core/ls_pdip.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "core/engine.hpp"
#include "core/negfree.hpp"
#include "core/newton_ls.hpp"
#include "core/scaling.hpp"
#include "linalg/ops.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace memlp::core {
namespace {

/// Mean |a_ij| over ALL cells (structural zeros included), computed from the
/// CSR values — matches the old dense definition exactly.
double mean_abs(const lp::ConstraintMatrix& a) {
  double sum = 0.0;
  for (double v : a.csr().values()) sum += std::abs(v);
  const std::size_t count = a.rows() * a.cols();
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

Matrix build_balanced_m1(const lp::LinearProgram& problem,
                         double balancing_scale, BalancingFill fill,
                         Rng& rng) {
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  // M1 is dense by construction (the balancing fill populates the corners),
  // so this path reads A through the dense escape hatch.
  const Matrix& a = problem.a.dense();
  Matrix m1(m + n, n + m);
  // Row block 1: [A | RU], row block 2: [RL | Aᵀ].
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) m1(i, j) = a(i, j);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) m1(m + j, n + i) = a(i, j);

  const double epsilon =
      balancing_scale * std::max(mean_abs(problem.a), 1e-12);
  const bool fill_ru = fill == BalancingFill::kBoth || m >= n;
  const bool fill_rl = fill == BalancingFill::kBoth || n >= m;
  if (fill_ru)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t k = 0; k < m; ++k)
        m1(i, n + k) = epsilon * rng.uniform(0.5, 1.5);
  if (fill_rl)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        m1(m + j, k) = epsilon * rng.uniform(0.5, 1.5);
  return m1;
}

Matrix build_schur_m1(const lp::LinearProgram& problem,
                      const PdipState& state, double ratio_cap,
                      double corner_fill_scale, Rng* rng) {
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  const Matrix& a = problem.a.dense();
  Matrix m1(m + n, n + m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) m1(i, j) = a(i, j);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) m1(m + j, n + i) = a(i, j);
  if (corner_fill_scale > 0.0 && rng != nullptr) {
    // The paper's "very small values" in the rest of RU/RL: a one-off random
    // fill of the off-diagonal corner entries that keeps M1 non-singular
    // when A has linearly dependent rows. Programmed once — never updated.
    const double epsilon =
        corner_fill_scale * std::max(mean_abs(problem.a), 1e-12);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t k = 0; k < m; ++k)
        if (i != k) m1(i, n + k) = epsilon * rng->uniform(0.5, 1.5);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        if (j != k) m1(m + j, k) = epsilon * rng->uniform(0.5, 1.5);
  }
  for (std::size_t i = 0; i < m; ++i)
    m1(i, n + i) = -std::min(state.w[i] / state.y[i], ratio_cap);
  for (std::size_t j = 0; j < n; ++j)
    m1(m + j, j) = std::min(state.z[j] / state.x[j], ratio_cap);
  return m1;
}

XbarSolveOutcome solve_ls_pdip(const lp::LinearProgram& original,
                               const LsPdipOptions& options) {
  // Normalize the data to the analog range first (see core/scaling.hpp);
  // the algorithm below runs entirely on the scaled problem.
  const ProblemScaling scaling(original);
  const lp::LinearProgram& problem = scaling.scaled();
  MEMLP_EXPECT(options.alpha >= 1.0);
  MEMLP_EXPECT(options.theta > 0.0 && options.theta < 1.0);
  MEMLP_EXPECT(options.ratio_cap > 1.0);
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  obs::TraceSink* sink = options.pdip.trace != nullptr
                             ? options.pdip.trace
                             : obs::default_trace_sink();
  obs::ProfileSpan profile_root("ls");

  Rng rng(options.seed);
  const bool schur = options.m1_mode == M1Mode::kSchurDiagonal;
  // Building M1's target matrix is part of programming its array, and is
  // profiled as such.
  obs::ProfileSpan assemble_span("programming");
  NegativeFreeSystem negfree1(
      schur ? build_schur_m1(problem, PdipState::ones(n, m),
                             options.ratio_cap, options.corner_fill_scale,
                             &rng)
            : build_balanced_m1(problem, options.balancing_scale,
                                options.balancing_fill, rng));
  assemble_span.close();

  // M1's corner diagonals span many decades, so its array uses per-cell
  // gain-ranged writes (see CrossbarConfig::per_cell_gain_ranging).
  BackendOptions m1_hardware = options.hardware;
  if (schur) m1_hardware.crossbar.per_cell_gain_ranging = true;
  auto backend1 = make_backend(m1_hardware, negfree1.dim(), rng.split());
  // M2 is (n+m) diagonal; it uses the paper's plain globally-mapped array.
  auto backend2 = make_backend(options.hardware, n + m, rng.split());
  xbar::AmplifierBank amps;

  // The iteration loop itself lives in core/engine.hpp; this entry point
  // configures the least-squares policy (constant θ of §3.4, no Mehrotra
  // corrector) and the retry/acceptance driver.
  EngineConfig config;
  config.solver_name = "ls";
  config.supports_mehrotra = false;
  config.constant_theta = options.theta;
  config.state_floor = options.state_floor;
  config.attempt_mode = true;
  config.acceptance_merit = options.acceptance_merit;
  config.stall_window = options.stall_window;

  AnalogSolveSpec spec;
  spec.solver_name = "ls";
  spec.max_retries = options.max_retries;
  spec.acceptance_merit = options.acceptance_merit;
  spec.alpha = options.alpha;
  spec.variation_magnitude = options.hardware.crossbar.variation.magnitude();

  LsNewton newton(problem, options, negfree1, *backend1, *backend2, amps);
  return solve_analog_pdip(problem, scaling, options.pdip, config, spec,
                           newton, sink);
}

}  // namespace memlp::core
