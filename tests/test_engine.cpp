// Golden-trace parity suite for the shared PDIP iteration engine.
//
// Each fixture under tests/data/engine/ is the JSONL `iteration` event
// stream a solver emitted BEFORE the loop was extracted into
// core::PdipEngine (PR 5); the wrappers must keep reproducing every record
// bit-for-bit — same field set, same values, same order. Event::to_json()
// carries no seq/ts, so the serialized lines are stable across runs and
// machines for a pinned seed.
//
// Regenerate (ONLY when a deliberate behavior change invalidates them):
//   MEMLP_REGEN_GOLDEN=1 ./test_engine --gtest_filter='EngineGolden.*'
// then inspect the tests/data/engine/ diff like any other golden change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ls_pdip.hpp"
#include "core/pdip.hpp"
#include "core/xbar_pdip.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "lp/generator.hpp"
#include "lp/problem.hpp"
#include "memristor/variation.hpp"
#include "obs/trace.hpp"

namespace memlp {
namespace {

lp::LinearProgram golden_problem(std::size_t constraints, std::uint64_t seed,
                                 bool feasible = true) {
  lp::GeneratorOptions gen;
  gen.constraints = constraints;
  Rng rng(seed);
  return feasible ? lp::random_feasible(gen, rng)
                  : lp::random_infeasible(gen, rng);
}

std::vector<std::string> iteration_lines(const obs::MemoryTraceSink& sink) {
  std::vector<std::string> lines;
  for (const auto& event : sink.events_of("iteration"))
    lines.push_back(event.to_json());
  return lines;
}

// Compares against (or, under MEMLP_REGEN_GOLDEN, rewrites) the fixture.
void check_golden(const std::string& name,
                  const std::vector<std::string>& lines) {
  ASSERT_FALSE(lines.empty()) << name << ": solver emitted no iterations";
  const std::string path =
      std::string(MEMLP_ENGINE_FIXTURES) + "/" + name + ".jsonl";
  if (std::getenv("MEMLP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const auto& line : lines) out << line << "\n";
    GTEST_SKIP() << "regenerated " << path << " (" << lines.size()
                 << " records)";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (run with MEMLP_REGEN_GOLDEN=1 to create)";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  ASSERT_EQ(lines.size(), expected.size()) << name << ": record count drifted";
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], expected[i]) << name << " record " << i;
}

core::BackendOptions golden_hardware() {
  core::BackendOptions hardware;
  hardware.crossbar.variation = mem::VariationModel::uniform(0.05);
  return hardware;
}

// --- software pdip ----------------------------------------------------------

TEST(EngineGolden, PdipPlain) {
  const auto problem = golden_problem(10, 91);
  obs::MemoryTraceSink sink;
  core::PdipOptions options;
  options.trace = &sink;
  const auto result = core::solve_pdip(problem, options);
  EXPECT_EQ(result.status, lp::SolveStatus::kOptimal);
  check_golden("pdip_plain", iteration_lines(sink));
}

TEST(EngineGolden, PdipPredictorCorrector) {
  const auto problem = golden_problem(10, 91);
  obs::MemoryTraceSink sink;
  core::PdipOptions options;
  options.predictor_corrector = true;
  options.trace = &sink;
  const auto result = core::solve_pdip(problem, options);
  EXPECT_EQ(result.status, lp::SolveStatus::kOptimal);
  check_golden("pdip_pc", iteration_lines(sink));
}

TEST(EngineGolden, PdipNormalEquations) {
  const auto problem = golden_problem(12, 95);
  obs::MemoryTraceSink sink;
  core::PdipOptions options;
  options.newton = core::NewtonFactorization::kNormalEquations;
  options.predictor_corrector = true;
  options.trace = &sink;
  const auto result = core::solve_pdip(problem, options);
  EXPECT_EQ(result.status, lp::SolveStatus::kOptimal);
  check_golden("pdip_normal_pc", iteration_lines(sink));
}

// Pins the divergence path: the final record (emitted before the break)
// must survive the refactor too.
TEST(EngineGolden, PdipInfeasible) {
  const auto problem = golden_problem(12, 97, /*feasible=*/false);
  obs::MemoryTraceSink sink;
  core::PdipOptions options;
  options.trace = &sink;
  const auto result = core::solve_pdip(problem, options);
  EXPECT_EQ(result.status, lp::SolveStatus::kInfeasible);
  check_golden("pdip_infeasible", iteration_lines(sink));
}

// --- crossbar pdip ----------------------------------------------------------

TEST(EngineGolden, XbarPlain) {
  const auto problem = golden_problem(8, 92);
  obs::MemoryTraceSink sink;
  core::XbarPdipOptions options;
  options.hardware = golden_hardware();
  options.seed = 4242;
  options.pdip.trace = &sink;
  const auto outcome = core::solve_xbar_pdip(problem, options);
  EXPECT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  check_golden("xbar_plain", iteration_lines(sink));
}

TEST(EngineGolden, XbarPredictorCorrector) {
  const auto problem = golden_problem(8, 92);
  obs::MemoryTraceSink sink;
  core::XbarPdipOptions options;
  options.hardware = golden_hardware();
  options.seed = 4242;
  options.pdip.predictor_corrector = true;
  options.pdip.trace = &sink;
  const auto outcome = core::solve_xbar_pdip(problem, options);
  EXPECT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  check_golden("xbar_pc", iteration_lines(sink));
}

// --- large-scale (two-system) pdip ------------------------------------------

TEST(EngineGolden, LsSchurStable) {
  const auto problem = golden_problem(8, 93);
  obs::MemoryTraceSink sink;
  core::LsPdipOptions options;
  options.hardware = golden_hardware();
  options.seed = 4242;
  options.pdip.trace = &sink;
  const auto outcome = core::solve_ls_pdip(problem, options);
  EXPECT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  check_golden("ls_schur_stable", iteration_lines(sink));
}

TEST(EngineGolden, LsM2Recovery) {
  const auto problem = golden_problem(8, 93);
  obs::MemoryTraceSink sink;
  core::LsPdipOptions options;
  options.hardware = golden_hardware();
  options.seed = 4242;
  options.recovery = core::RecoveryMode::kM2Diagonal;
  options.pdip.trace = &sink;
  const auto outcome = core::solve_ls_pdip(problem, options);
  EXPECT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  check_golden("ls_m2_recovery", iteration_lines(sink));
}

// --- structured-settle parity -----------------------------------------------

// The analog fixtures above were re-recorded when the settle moved from a
// dense LU of the whole effective array to the structured factorization
// (linalg/factor_cache.hpp). Every record moved by at most 3.5e-9 relative;
// these pin the dense-settle outcomes the old fixtures ended in: the same
// status and iteration count, and the objective to 1e-9 relative.
struct DenseSettleOutcome {
  std::size_t iterations;
  double objective;
};

void expect_dense_settle_parity(const core::XbarSolveOutcome& outcome,
                                const DenseSettleOutcome& dense) {
  EXPECT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(outcome.stats.iterations, dense.iterations);
  EXPECT_NEAR(outcome.result.objective, dense.objective,
              1e-9 * std::abs(dense.objective));
}

TEST(EngineGolden, StructuredSettleMatchesDenseSettleOutcomes) {
  const auto xbar_problem = golden_problem(8, 92);
  core::XbarPdipOptions xbar_options;
  xbar_options.hardware = golden_hardware();
  xbar_options.seed = 4242;
  expect_dense_settle_parity(core::solve_xbar_pdip(xbar_problem, xbar_options),
                             {61, 1.4422322793347733});
  xbar_options.pdip.predictor_corrector = true;
  expect_dense_settle_parity(core::solve_xbar_pdip(xbar_problem, xbar_options),
                             {85, 1.4437719621791552});

  const auto ls_problem = golden_problem(8, 93);
  core::LsPdipOptions ls_options;
  ls_options.hardware = golden_hardware();
  ls_options.seed = 4242;
  expect_dense_settle_parity(core::solve_ls_pdip(ls_problem, ls_options),
                             {51, 1.6959142223678909});
  ls_options.recovery = core::RecoveryMode::kM2Diagonal;
  expect_dense_settle_parity(core::solve_ls_pdip(ls_problem, ls_options),
                             {39, 1.6862169716756161});
}

// --- solver registry ---------------------------------------------------------

void expect_same_solve(const lp::SolveResult& a, const lp::SolveResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.objective, b.objective);  // bitwise: same code path, same RNG.
  EXPECT_EQ(a.x, b.x);
}

TEST(SolverRegistry, BuiltInsRegisteredAndSorted) {
  auto& registry = engine::SolverRegistry::global();
  for (const char* name : {"simplex", "pdip", "xbar", "ls"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_TRUE(registry.find(name).has_value()) << name;
  }
  const auto names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_FALSE(registry.contains("no-such-solver"));
  EXPECT_FALSE(registry.find("no-such-solver").has_value());
}

TEST(SolverRegistry, UnknownSolverIsAContractViolation) {
  const auto problem = golden_problem(6, 17);
  engine::SolveRequest request;
  request.solver = "no-such-solver";
  EXPECT_THROW(engine::solve(problem, request), ContractViolation);
}

TEST(SolverRegistry, EverySolverMatchesItsDirectEntryPoint) {
  const auto problem = golden_problem(8, 29);
  engine::SolveRequest request;
  request.hardware = golden_hardware();
  request.seed = 4242;

  request.solver = "simplex";
  expect_same_solve(engine::solve(problem, request).result,
                    solvers::solve_simplex(problem, {}));

  request.solver = "pdip";
  expect_same_solve(engine::solve(problem, request).result,
                    core::solve_pdip(problem, {}));

  core::XbarPdipOptions xbar;
  xbar.hardware = golden_hardware();
  xbar.seed = 4242;
  request.solver = "xbar";
  const auto xbar_report = engine::solve(problem, request);
  expect_same_solve(xbar_report.result,
                    core::solve_xbar_pdip(problem, xbar).result);
  EXPECT_TRUE(xbar_report.has_hardware_stats);
  EXPECT_GT(xbar_report.stats.system_dim, 0u);

  core::LsPdipOptions ls;
  ls.hardware = golden_hardware();
  ls.seed = 4242;
  request.solver = "ls";
  const auto ls_report = engine::solve(problem, request);
  expect_same_solve(ls_report.result, core::solve_ls_pdip(problem, ls).result);
  EXPECT_TRUE(ls_report.has_hardware_stats);
}

TEST(SolverRegistry, PerSolverOverridesAreUsedVerbatim) {
  engine::SolveRequest request;
  request.seed = 7;  // shared fields must lose to the explicit override.
  core::XbarPdipOptions xbar;
  xbar.seed = 99;
  xbar.max_retries = 5;
  request.xbar = xbar;
  EXPECT_EQ(request.xbar_options().seed, 99u);
  EXPECT_EQ(request.xbar_options().max_retries, 5u);
  // Without an override the shared fields flow through.
  request.xbar.reset();
  EXPECT_EQ(request.xbar_options().seed, 7u);
  EXPECT_EQ(request.ls_options().seed, 7u);
}

TEST(SolverRegistry, CustomSolverCanBeRegistered) {
  auto& registry = engine::SolverRegistry::global();
  registry.register_solver(
      "test-stub", [](const lp::LinearProgram&, const engine::SolveRequest&) {
        engine::SolveReport report;
        report.solver = "test-stub";
        report.result.status = lp::SolveStatus::kOptimal;
        report.result.objective = 123.0;
        return report;
      });
  engine::SolveRequest request;
  request.solver = "test-stub";
  const auto report = engine::solve(golden_problem(6, 17), request);
  EXPECT_EQ(report.result.objective, 123.0);
  EXPECT_TRUE(registry.contains("test-stub"));
}

// --- heterogeneous batch -----------------------------------------------------

std::vector<engine::BatchItem> mixed_batch(
    const std::vector<lp::LinearProgram>& problems) {
  std::vector<engine::BatchItem> items(problems.size());
  const char* const kinds[] = {"simplex", "pdip", "xbar", "ls"};
  for (std::size_t i = 0; i < problems.size(); ++i) {
    items[i].problem = &problems[i];
    items[i].request.solver = kinds[i % 4];
    items[i].request.hardware = golden_hardware();
    items[i].request.seed = 4242 + i;
  }
  return items;
}

TEST(EngineBatch, HeterogeneousKindsMatchSequentialSolves) {
  std::vector<lp::LinearProgram> problems;
  for (std::size_t i = 0; i < 8; ++i)
    problems.push_back(golden_problem(6, 500 + i));
  const auto items = mixed_batch(problems);
  const auto reports = engine::solve_batch(items, /*threads=*/4);
  ASSERT_EQ(reports.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Report i must be exactly what item i's solver produces on its own:
    // outcome order is the item order, independent of scheduling.
    EXPECT_EQ(reports[i].solver, items[i].request.solver) << i;
    const auto direct = engine::solve(problems[i], items[i].request);
    expect_same_solve(reports[i].result, direct.result);
  }
}

TEST(EngineBatch, ThreadCountDoesNotChangeReports) {
  std::vector<lp::LinearProgram> problems;
  for (std::size_t i = 0; i < 8; ++i)
    problems.push_back(golden_problem(6, 700 + i));
  const auto items = mixed_batch(problems);
  const auto serial = engine::solve_batch(items, /*threads=*/1);
  const auto parallel = engine::solve_batch(items, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_solve(serial[i].result, parallel[i].result);
    EXPECT_EQ(serial[i].stats.iterations, parallel[i].stats.iterations) << i;
  }
}

TEST(EngineBatch, NullProblemAndUnknownSolverAreRejectedUpFront) {
  const auto problem = golden_problem(6, 17);
  engine::BatchItem bad_problem;  // null problem pointer.
  EXPECT_THROW(
      engine::solve_batch(std::span<const engine::BatchItem>(&bad_problem, 1)),
      ContractViolation);
  engine::BatchItem bad_solver;
  bad_solver.problem = &problem;
  bad_solver.request.solver = "no-such-solver";
  EXPECT_THROW(
      engine::solve_batch(std::span<const engine::BatchItem>(&bad_solver, 1)),
      ContractViolation);
}

}  // namespace
}  // namespace memlp
