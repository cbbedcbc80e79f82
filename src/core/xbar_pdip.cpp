#include "core/xbar_pdip.hpp"

#include <optional>

#include "common/contracts.hpp"
#include "core/engine.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "core/newton_xbar.hpp"
#include "core/scaling.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace memlp::core {
namespace {

/// Reusable solve machinery shared by solve_xbar_pdip (one-shot) and
/// XbarPdipSession (persistent array).
struct SolveContext {
  std::optional<NegativeFreeSystem> negfree;
  std::unique_ptr<AnalogBackend> backend;
  xbar::AmplifierBank amps;
  lp::ConstraintMatrix a_scaled;  ///< the constraint matrix the array holds.
  bool array_programmed = false;
};

XbarSolveOutcome solve_with_context(const lp::LinearProgram& original,
                                    const XbarPdipOptions& options,
                                    SolveContext& context) {
  // Normalize the data to the analog range first (see core/scaling.hpp);
  // the algorithm below runs entirely on the scaled problem.
  const ProblemScaling scaling(original);
  const lp::LinearProgram& problem = scaling.scaled();
  MEMLP_EXPECT(options.alpha >= 1.0);
  const KktLayout layout{problem.num_variables(), problem.num_constraints()};
  obs::TraceSink* sink = options.pdip.trace != nullptr
                             ? options.pdip.trace
                             : obs::default_trace_sink();
  obs::ProfileSpan profile_root("xbar");

  // Context reuse: the array's structural blocks depend only on (scaled) A.
  const bool same_a = context.negfree.has_value() &&
                      context.a_scaled.rows() == problem.a.rows() &&
                      context.a_scaled.cols() == problem.a.cols() &&
                      context.a_scaled == problem.a;
  if (!same_a) {
    // The augmented system's sign pattern is fixed by A, Aᵀ, and −I; the
    // all-ones state gives the structural matrix. Building the array's
    // target matrix is part of programming it, and is profiled as such.
    obs::ProfileSpan assemble_span("programming");
    context.negfree.emplace(
        assemble_kkt(problem, PdipState::ones(layout.n, layout.m)));
    assemble_span.close();
    Rng rng(options.seed);
    context.backend =
        make_backend(options.hardware, context.negfree->dim(), rng.split());
    context.a_scaled = problem.a;
    context.array_programmed = false;
    context.amps.reset_stats();
  }
  context.backend->reset_stats();
  context.amps.reset_stats();

  // The iteration loop itself lives in core/engine.hpp; this entry point
  // configures the crossbar policy (corrector-refine Mehrotra, damped affine
  // step, frozen/stall heuristics) and the retry/acceptance driver.
  EngineConfig config;
  config.solver_name = "xbar";
  config.mehrotra = MehrotraMode::kCorrectorRefine;
  config.affine_exact = false;
  config.mu_mean_floor = 1e-300;
  config.step_dead_floor = 100.0 * options.state_floor;
  config.state_floor = options.state_floor;
  config.frozen_limit = 5;
  config.attempt_mode = true;
  config.acceptance_merit = options.acceptance_merit;
  config.stall_window = options.stall_window;

  AnalogSolveSpec spec;
  spec.solver_name = "xbar";
  spec.max_retries = options.max_retries;
  spec.acceptance_merit = options.acceptance_merit;
  spec.alpha = options.alpha;
  spec.variation_magnitude = options.hardware.crossbar.variation.magnitude();
  spec.array_programmed = &context.array_programmed;

  XbarNewton newton(problem, options, layout, *context.negfree,
                    *context.backend, context.amps);
  return solve_analog_pdip(problem, scaling, options.pdip, config, spec,
                           newton, sink);
}

}  // namespace

XbarSolveOutcome solve_xbar_pdip(const lp::LinearProgram& original,
                                 const XbarPdipOptions& options) {
  SolveContext context;
  return solve_with_context(original, options, context);
}

struct XbarPdipSession::Impl {
  XbarPdipOptions options;
  SolveContext context;
};

XbarPdipSession::XbarPdipSession(XbarPdipOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
}

XbarPdipSession::~XbarPdipSession() = default;
XbarPdipSession::XbarPdipSession(XbarPdipSession&&) noexcept = default;
XbarPdipSession& XbarPdipSession::operator=(XbarPdipSession&&) noexcept =
    default;

XbarSolveOutcome XbarPdipSession::solve(const lp::LinearProgram& problem) {
  return solve_with_context(problem, impl_->options, impl_->context);
}

}  // namespace memlp::core
