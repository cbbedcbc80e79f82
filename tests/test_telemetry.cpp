// Run-wide telemetry suite: trace-context propagation (obs/context.hpp),
// the flight recorder (obs/flight_recorder.hpp), the health monitor
// (obs/health.hpp), and the Prometheus exposition (obs/exposition.hpp,
// obs/telemetry.hpp).
//
// The load-bearing invariants:
//   * sinks stamp trace_id/solve_id ONLY when a context is active — with no
//     context an event serializes exactly as before PR 9, which is what
//     keeps test_engine's golden traces bit-exact;
//   * a mixed engine::solve_batch is filterable by trace_id into per-solve
//     event streams that are bit-identical at threads=1 and threads=4;
//   * a solver that ends in failure dumps the flight recorder without any
//     tracing having been armed in advance.
//
// The dump tests consume flight_dump_on_failure()'s once-per-process latch;
// under ctest each TEST runs in its own process (gtest_discover_tests), so
// they don't contend.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/par.hpp"
#include "common/rng.hpp"
#include "engine/batch.hpp"
#include "crossbar/crossbar.hpp"
#include "engine/registry.hpp"
#include "lp/generator.hpp"
#include "lp/problem.hpp"
#include "memristor/variation.hpp"
#include "obs/context.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace memlp {
namespace {

lp::LinearProgram test_problem(std::size_t constraints, std::uint64_t seed) {
  lp::GeneratorOptions gen;
  gen.constraints = constraints;
  Rng rng(seed);
  return lp::random_feasible(gen, rng);
}

// --- context propagation -----------------------------------------------------

TEST(SolveContext, MintedIdsAreUniqueAndNeverZero) {
  const std::uint64_t first = obs::mint_trace_ids();
  const std::uint64_t second = obs::mint_trace_ids();
  EXPECT_NE(first, 0u);
  EXPECT_GT(second, first);
  // A block reservation keeps later mints out of the block.
  const std::uint64_t base = obs::mint_trace_ids(5);
  EXPECT_GE(obs::mint_trace_ids(), base + 5);
}

TEST(SolveContext, ScopedInstallRestoresOuterContext) {
  EXPECT_EQ(obs::current_solve_context(), nullptr);
  {
    obs::SolveContext outer;
    outer.trace_id = obs::mint_trace_ids();
    obs::ScopedSolveContext outer_scope(std::move(outer));
    const std::uint64_t outer_id = outer_scope.context().trace_id;
    ASSERT_NE(obs::current_solve_context(), nullptr);
    EXPECT_EQ(obs::current_solve_context()->trace_id, outer_id);
    {
      obs::SolveContext inner;
      inner.trace_id = obs::mint_trace_ids();
      inner.tenant = "inner";
      const obs::ScopedSolveContext inner_scope(std::move(inner));
      EXPECT_EQ(obs::current_solve_context()->tenant, "inner");
      EXPECT_NE(obs::current_solve_context()->trace_id, outer_id);
    }
    EXPECT_EQ(obs::current_solve_context()->trace_id, outer_id);
  }
  EXPECT_EQ(obs::current_solve_context(), nullptr);
}

TEST(SolveContext, AnnotateStampsOnlyUnderActiveContext) {
  obs::Event bare("iteration");
  bare.with("iter", 1);
  const std::string before = bare.to_json();
  obs::annotate_context(bare);
  EXPECT_EQ(bare.to_json(), before);  // no context → byte-identical.

  obs::SolveContext context;
  context.trace_id = obs::mint_trace_ids();
  context.solve_id = 3;
  context.tenant = "team-a";
  obs::ScopedSolveContext scope(std::move(context));
  obs::Event stamped("iteration");
  stamped.with("iter", 1);
  obs::annotate_context(stamped);
  ASSERT_NE(stamped.find("trace_id"), nullptr);
  EXPECT_EQ(stamped.number("solve_id"), 3.0);
  ASSERT_NE(stamped.find("tenant"), nullptr);
}

TEST(SolveContext, PooledRegionInheritsLaunchingThreadContext) {
  obs::SolveContext context;
  context.trace_id = obs::mint_trace_ids();
  const obs::ScopedSolveContext scope(std::move(context));
  const std::uint64_t expected = scope.context().trace_id;
  std::vector<std::uint64_t> seen(16, 0);
  par::parallel_for(
      seen.size(),
      [&](std::size_t i) {
        const obs::SolveContext* active = obs::current_solve_context();
        seen[i] = active == nullptr ? 0 : active->trace_id;
      },
      /*threads=*/4);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], expected) << "chunk " << i;
}

TEST(TraceSinks, StampContextOnlyWhenActive) {
  obs::MemoryTraceSink sink;
  obs::Event plain("iteration");
  plain.with("iter", 1);
  sink.emit(plain);  // no context: the stored event must be untouched —
                     // this is the golden-trace regression guard.
  {
    obs::SolveContext context;
    context.trace_id = obs::mint_trace_ids();
    context.solve_id = 7;
    const obs::ScopedSolveContext scope(std::move(context));
    obs::Event traced("iteration");
    traced.with("iter", 2);
    sink.emit(traced);
  }
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("trace_id"), nullptr);
  EXPECT_EQ(events[0].to_json(), plain.to_json());
  ASSERT_NE(events[1].find("trace_id"), nullptr);
  EXPECT_EQ(events[1].number("solve_id"), 7.0);
}

// --- batch trace filtering ---------------------------------------------------

// Rewrites the absolute trace id in a serialized event to its offset inside
// the batch's contiguous block, so runs (which mint different blocks) can be
// compared bit-for-bit.
std::string normalize_trace_id(std::string line, std::uint64_t base) {
  const std::string key = "\"trace_id\":";
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return line;
  std::size_t begin = pos + key.size();
  std::size_t end = begin;
  while (end < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[end])) != 0)
    ++end;
  const std::uint64_t id = std::stoull(line.substr(begin, end - begin));
  return line.substr(0, begin) + std::to_string(id - base) + line.substr(end);
}

// Drops the one wall-clock field events carry: every other field is
// deterministic for a pinned seed, wall_seconds is measured.
std::string strip_wall_seconds(std::string line) {
  const std::string key = ",\"wall_seconds\":";
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return line;
  std::size_t end = pos + key.size();
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(0, pos) + line.substr(end);
}

// The per-solve event streams of one batch run: block offset → serialized
// events in emission order (a solve's events are emitted by one worker, so
// the per-trace_id subsequence is ordered even when the run interleaves).
std::map<std::uint64_t, std::vector<std::string>> solve_streams(
    const obs::MemoryTraceSink& sink) {
  const auto events = sink.events();
  std::uint64_t base = ~std::uint64_t{0};
  for (const auto& event : events)
    if (event.find("trace_id") != nullptr)
      base = std::min(base,
                      static_cast<std::uint64_t>(event.number("trace_id")));
  std::map<std::uint64_t, std::vector<std::string>> streams;
  for (const auto& event : events) {
    if (event.find("trace_id") == nullptr) continue;
    const auto id = static_cast<std::uint64_t>(event.number("trace_id"));
    streams[id - base].push_back(
        strip_wall_seconds(normalize_trace_id(event.to_json(), base)));
  }
  return streams;
}

TEST(EngineBatch, TraceFilterByIdIsThreadCountInvariant) {
  std::vector<lp::LinearProgram> problems;
  for (std::size_t i = 0; i < 8; ++i)
    problems.push_back(test_problem(6, 900 + i));
  core::BackendOptions hardware;
  hardware.crossbar.variation = mem::VariationModel::uniform(0.05);
  const char* const kinds[] = {"simplex", "pdip", "xbar", "ls"};

  const auto run = [&](std::size_t threads, obs::MemoryTraceSink& sink) {
    std::vector<engine::BatchItem> items(problems.size());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      items[i].problem = &problems[i];
      items[i].request.solver = kinds[i % 4];
      items[i].request.hardware = hardware;
      items[i].request.seed = 4242 + i;
      items[i].request.tenant = i % 2 == 0 ? "even" : "odd";
      items[i].request.pdip.trace = &sink;
    }
    return engine::solve_batch(items, threads);
  };

  obs::MemoryTraceSink serial_sink;
  obs::MemoryTraceSink parallel_sink;
  run(/*threads=*/1, serial_sink);
  run(/*threads=*/4, parallel_sink);

  const auto serial = solve_streams(serial_sink);
  const auto parallel = solve_streams(parallel_sink);
  ASSERT_EQ(serial.size(), problems.size());
  ASSERT_EQ(parallel.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const auto s = serial.find(i);
    const auto p = parallel.find(i);
    ASSERT_NE(s, serial.end()) << "solve " << i;
    ASSERT_NE(p, parallel.end()) << "solve " << i;
    ASSERT_EQ(s->second.size(), p->second.size()) << "solve " << i;
    for (std::size_t r = 0; r < s->second.size(); ++r)
      EXPECT_EQ(s->second[r], p->second[r]) << "solve " << i << " record "
                                            << r;
    // The block offset doubles as the solve_id (item index).
    EXPECT_NE(s->second[0].find("\"solve_id\":" + std::to_string(i)),
              std::string::npos)
        << s->second[0];
  }
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingNewestRecords) {
  obs::FlightRecorder recorder(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i)
    recorder.record(obs::FlightEventKind::kMark, "wrap", i);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.capacity_per_thread(), 4u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 4u);  // oldest six overwritten.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, 6.0 + static_cast<double>(i));
    EXPECT_STREQ(records[i].tag, "wrap");
  }
  recorder.reset();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorder, RecordsStampActiveContextAndTruncateTags) {
  obs::FlightRecorder recorder;
  obs::SolveContext context;
  context.trace_id = obs::mint_trace_ids();
  context.solve_id = 5;
  obs::ScopedSolveContext scope(std::move(context));
  recorder.record(obs::FlightEventKind::kIteration,
                  "a-tag-much-longer-than-twenty-two-chars", 1.0, 2.0, 3.0);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, scope.context().trace_id);
  EXPECT_EQ(records[0].solve_id, 5u);
  EXPECT_EQ(std::string(records[0].tag).size(), 22u);  // NUL retained.
}

TEST(FlightRecorder, DumpWritesOneJsonlLinePerRecord) {
  obs::FlightRecorder recorder;
  recorder.record(obs::FlightEventKind::kPhaseEnter, "iterations");
  recorder.record(obs::FlightEventKind::kIteration, "xbar", 1.0, 0.5, 0.1);
  recorder.record(obs::FlightEventKind::kSolveEnd, "xbar", 12.0, 1.0);
  const std::string path =
      ::testing::TempDir() + "telemetry_flight_dump.jsonl";
  ASSERT_TRUE(recorder.dump_to(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& line : lines) EXPECT_EQ(line.front(), '{') << line;
  EXPECT_NE(lines[1].find("\"kind\":\"iteration\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"solve_end\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SolverFailureDumpsWithoutArmedTracing) {
  const std::string path = ::testing::TempDir() + "telemetry_failure.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("MEMLP_FLIGHT_DUMP", path.c_str(), 1), 0);
  // Starve the analog solver of iterations: every attempt hits the
  // iteration limit, the final status is a failure, and the engine dumps
  // the recorder — no --trace, no sink, nothing armed in advance.
  engine::SolveRequest request;
  request.solver = "xbar";
  request.hardware.crossbar.variation = mem::VariationModel::uniform(0.05);
  request.pdip.max_iterations = 2;
  const auto problem = test_problem(8, 1234);
  const auto report = engine::solve(problem, request);
  EXPECT_FALSE(report.result.optimal());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << path;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_FALSE(contents.empty());
  EXPECT_NE(contents.find("solver_failure"), std::string::npos);
  EXPECT_NE(contents.find("\"kind\":\"iteration\""), std::string::npos);
  ::unsetenv("MEMLP_FLIGHT_DUMP");
  std::remove(path.c_str());
}

std::atomic<int> g_contract_hook_hits{0};

TEST(ContractHook, FailureNotifiesInstalledHook) {
  detail::set_contract_failure_hook(+[]() noexcept { ++g_contract_hook_hits; });
  EXPECT_THROW(MEMLP_EXPECT_MSG(false, "forced for telemetry test"),
               ContractViolation);
  EXPECT_EQ(g_contract_hook_hits.load(), 1);
  detail::set_contract_failure_hook(nullptr);
  EXPECT_THROW(MEMLP_EXPECT_MSG(false, "hook removed"), ContractViolation);
  EXPECT_EQ(g_contract_hook_hits.load(), 1);
}

// --- health monitor ----------------------------------------------------------

TEST(HealthMonitor, ReportFansOutToRollupMetricsAndSink) {
  obs::HealthMonitor monitor;
  obs::MemoryTraceSink sink;
  const std::uint64_t before =
      obs::MetricsRegistry::global().counter("health.xbar.stall").value();
  monitor.report(obs::Anomaly::kStall, "xbar", &sink, 3.0, 17.0);
  monitor.report(obs::Anomaly::kStall, "xbar");
  monitor.report(obs::Anomaly::kDivergence, "pdip");
  EXPECT_EQ(monitor.total(), 3u);
  const auto rollup = monitor.rollup();
  EXPECT_EQ(rollup.at("xbar").at("stall"), 2u);
  EXPECT_EQ(rollup.at("pdip").at("divergence"), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("health.xbar.stall").value(),
      before + 2);
  const auto events = sink.events_of("anomaly");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].number("value"), 3.0);
  EXPECT_EQ(events[0].number("iteration"), 17.0);
  monitor.reset();
  EXPECT_EQ(monitor.total(), 0u);
}

// settle_cache_thrash: the structured settle plans once per program() and
// replays the plan; plans rebuilt on most settles are waste.
TEST(HealthMonitor, SettleCacheThrashFiresWhenThePatternChangesEverySettle) {
  xbar::CrossbarConfig config;  // ideal cells: a written 0 stays exactly 0
  config.variation = mem::VariationModel::none();
  const std::size_t n = 16;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    a(i, (i + 3) % n) = 0.5;
  }
  xbar::Crossbar crossbar(config, Rng(3));
  crossbar.program(a, 4.0);
  const Vec b(n, 1.0);
  for (std::size_t settle = 0; settle < 20; ++settle) {
    // Alternately fill and clear one off-pattern cell: its row's zero
    // pattern differs at every settle.
    crossbar.update_cell(0, 8, settle % 2 == 0 ? 0.25 : 0.0);
    ASSERT_TRUE(crossbar.solve(b).has_value());
  }
  const FactorCacheStats& stats = crossbar.settle_cache_stats();
  // The first settle plans the freshly programmed array; each later one
  // rebuilds.
  EXPECT_EQ(stats.plan_builds, 20u);
  EXPECT_EQ(stats.plan_rebuilds, 19u);
  EXPECT_TRUE(stats.thrashing());
}

TEST(HealthMonitor, SettleCacheThrashStaysQuietOnANormalXbarSolve) {
  auto& monitor = obs::HealthMonitor::global();
  const auto count = [&] {
    const auto rollup = monitor.rollup();
    const auto solver = rollup.find("xbar");
    if (solver == rollup.end()) return std::uint64_t{0};
    const auto kind = solver->second.find("settle_cache_thrash");
    return kind == solver->second.end() ? std::uint64_t{0} : kind->second;
  };
  const std::uint64_t before = count();
  engine::SolveRequest request;
  request.solver = "xbar";
  request.seed = 42;
  request.hardware.crossbar.variation = mem::VariationModel::uniform(0.1);
  const auto report = engine::solve(test_problem(48, 17), request);
  EXPECT_TRUE(report.result.optimal());
  const FactorCacheStats& stats = report.stats.backend.settle_cache;
  EXPECT_GT(stats.full_factorizations, 10u);
  EXPECT_FALSE(stats.thrashing());
  EXPECT_EQ(count(), before);
}

TEST(HealthMonitor, AnomalyNamesAreStable) {
  EXPECT_STREQ(obs::anomaly_name(obs::Anomaly::kStall), "stall");
  EXPECT_STREQ(obs::anomaly_name(obs::Anomaly::kDivergence), "divergence");
  EXPECT_STREQ(obs::anomaly_name(obs::Anomaly::kWildJump), "wild_jump");
  EXPECT_STREQ(obs::anomaly_name(obs::Anomaly::kMuOscillation),
               "mu_oscillation");
  EXPECT_STREQ(obs::anomaly_name(obs::Anomaly::kSettleCacheThrash),
               "settle_cache_thrash");
  EXPECT_STREQ(obs::anomaly_name(obs::Anomaly::kRetryStorm), "retry_storm");
}

// --- exposition --------------------------------------------------------------

TEST(Exposition, MetricNamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(obs::prometheus_metric_name("xbar.solve_seconds"),
            "memlp_xbar_solve_seconds");
  EXPECT_EQ(obs::prometheus_metric_name("a-b c/d"), "memlp_a_b_c_d");
}

TEST(Exposition, RendersCountersGaugesAndSummaries) {
  obs::MetricsRegistry registry;
  registry.counter("demo.requests").add(3);
  registry.gauge("demo.load").set(1.5);
  for (int i = 1; i <= 100; ++i)
    registry.histogram("demo.seconds").observe(static_cast<double>(i));
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("# TYPE memlp_demo_requests counter\n"
                      "memlp_demo_requests 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE memlp_demo_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE memlp_demo_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("memlp_demo_seconds{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("memlp_demo_seconds{quantile=\"0.95\"} "),
            std::string::npos);
  EXPECT_NE(text.find("memlp_demo_seconds{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("memlp_demo_seconds_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("memlp_demo_seconds_max 100\n"), std::string::npos);
}

TEST(Telemetry, WritesSnapshotWithUptimeGauge) {
  obs::MetricsRegistry::global().counter("telemetry.test_marker").add();
  auto& telemetry = obs::Telemetry::global();
  const std::string path = ::testing::TempDir() + "telemetry_snapshot.prom";
  ASSERT_TRUE(telemetry.write_metrics(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("memlp_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(contents.find("memlp_telemetry_test_marker 1"),
            std::string::npos);
  std::remove(path.c_str());

  // The configured-destination path routes through the same writer.
  const std::string previous = telemetry.metrics_out();
  telemetry.set_metrics_out(path);
  EXPECT_EQ(telemetry.write_metrics_if_configured(), path);
  telemetry.set_metrics_out("");
  EXPECT_EQ(telemetry.write_metrics_if_configured(), "");
  telemetry.set_metrics_out(previous);
  std::remove(path.c_str());
}

TEST(EngineBatch, RecordsWaitAndExecHistograms) {
  std::vector<lp::LinearProgram> problems;
  for (std::size_t i = 0; i < 4; ++i)
    problems.push_back(test_problem(6, 300 + i));
  std::vector<engine::BatchItem> items(problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    items[i].problem = &problems[i];
    items[i].request.solver = "simplex";
  }
  const auto& registry = obs::MetricsRegistry::global();
  const auto before = registry.histogram_values();
  const auto count_of = [](const std::map<std::string, obs::HistogramStats>&
                               values,
                           const char* name) -> std::uint64_t {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second.count;
  };
  engine::solve_batch(items, /*threads=*/2);
  const auto after = registry.histogram_values();
  EXPECT_EQ(count_of(after, "simplex.batch_wait_seconds"),
            count_of(before, "simplex.batch_wait_seconds") + items.size());
  EXPECT_EQ(count_of(after, "simplex.batch_exec_seconds"),
            count_of(before, "simplex.batch_exec_seconds") + items.size());
}

}  // namespace
}  // namespace memlp
