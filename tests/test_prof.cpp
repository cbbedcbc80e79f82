// Tests for memlp::obs::Profiler (obs/profiler.hpp): span nesting and
// aggregation, the thread-count invariance of the aggregate (the memlp::par
// determinism contract extended to observability, docs/parallelism.md), the
// timeline/Chrome-trace exporter, and the PhaseSpan bridge — plus the cost
// ledger (obs/cost_ledger.hpp): call-path attribution, the same thread-count
// invariance for its integer counter trees, and the Chrome counter-track
// export (perf/cost_tree.hpp).
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/par.hpp"
#include "common/rng.hpp"
#include "core/ls_pdip.hpp"
#include "lp/generator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "perf/cost_tree.hpp"
#include "perf/hardware_model.hpp"

namespace {

using memlp::obs::CallPathStats;
using memlp::obs::CostCounters;
using memlp::obs::CostLedger;
using memlp::obs::CostTree;
using memlp::obs::ProfileSpan;
using memlp::obs::Profiler;

/// Scoped Profiler::set_active so a test failure can't leak an installed
/// profiler into later tests.
class ActiveProfiler {
 public:
  explicit ActiveProfiler(Profiler* profiler) { Profiler::set_active(profiler); }
  ~ActiveProfiler() { Profiler::set_active(nullptr); }
  ActiveProfiler(const ActiveProfiler&) = delete;
  ActiveProfiler& operator=(const ActiveProfiler&) = delete;
};

std::string text_field(const memlp::obs::Event& event, std::string_view key) {
  const auto* field = event.find(key);
  if (field == nullptr) return "";
  const auto* value = std::get_if<std::string>(&field->value);
  return value != nullptr ? *value : "";
}

const CallPathStats* find_path(const std::vector<CallPathStats>& stats,
                               const std::string& path) {
  for (const auto& entry : stats)
    if (entry.path == path) return &entry;
  return nullptr;
}

/// Burns a little deterministic work so spans have nonzero duration.
double spin() {
  volatile double acc = 0.0;
  for (int i = 0; i < 2000; ++i) acc = acc + 1.0 / (1.0 + i);
  return acc;
}

TEST(Profiler, InactiveSpansRecordNothing) {
  ASSERT_EQ(Profiler::active(), nullptr);
  { ProfileSpan span("orphan"); EXPECT_FALSE(span.active()); }
  Profiler profiler;
  EXPECT_TRUE(profiler.aggregate().empty());
}

TEST(Profiler, NestedSpansBuildSlashSeparatedPaths) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  {
    ProfileSpan root("solve");
    for (int i = 0; i < 3; ++i) {
      ProfileSpan inner("factor");
      spin();
      { ProfileSpan leaf("pivot"); spin(); }
    }
  }
  const auto stats = profiler.aggregate();
  ASSERT_EQ(stats.size(), 3u);
  const auto* root = find_path(stats, "solve");
  const auto* inner = find_path(stats, "solve/factor");
  const auto* leaf = find_path(stats, "solve/factor/pivot");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(root->count, 1u);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_EQ(leaf->count, 3u);
  // Children are fully contained in their parents.
  EXPECT_GE(root->total_s, inner->total_s);
  EXPECT_GE(inner->total_s, leaf->total_s);
  // The quantile chain is ordered and within [0, max].
  EXPECT_GT(inner->total_s, 0.0);
  EXPECT_LE(inner->p50_s, inner->p95_s);
  EXPECT_LE(inner->p95_s, inner->max_s);
}

TEST(Profiler, ExplicitCloseRecordsOnceAndDestructorIsANoOp) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  {
    ProfileSpan span("once");
    span.close();
    span.close();  // idempotent
    EXPECT_FALSE(span.active());
  }
  const auto stats = profiler.aggregate();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 1u);
}

TEST(Profiler, ResetDiscardsRecordedData) {
  Profiler profiler(/*record_timeline=*/true);
  ActiveProfiler active(&profiler);
  { ProfileSpan span("ephemeral"); }
  profiler.reset();
  EXPECT_TRUE(profiler.aggregate().empty());
  EXPECT_TRUE(profiler.timeline().empty());
  { ProfileSpan span("after_reset"); }
  EXPECT_EQ(profiler.aggregate().size(), 1u);
}

/// Runs the same instrumented parallel workload at `threads` and returns the
/// aggregate. Worker spans must fold under the launching thread's path.
std::vector<CallPathStats> profiled_parallel_run(std::size_t threads) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  {
    ProfileSpan root("solve");
    memlp::par::parallel_for(
        32,
        [](std::size_t) {
          ProfileSpan item("tile");
          spin();
        },
        threads);
  }
  return profiler.aggregate();
}

TEST(Profiler, AggregateIsIdenticalAcrossThreadCounts) {
  const auto serial = profiled_parallel_run(1);
  const auto pooled = profiled_parallel_run(4);
  // Same call paths, same counts — only durations may differ.
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].path, pooled[i].path);
    EXPECT_EQ(serial[i].count, pooled[i].count);
  }
  const auto* tile = find_path(pooled, "solve/tile");
  ASSERT_NE(tile, nullptr);
  EXPECT_EQ(tile->count, 32u);
  // Pool bookkeeping spans (par.region / par.chunk) are timeline-only and
  // must never appear in the aggregate.
  for (const auto& entry : pooled)
    EXPECT_EQ(entry.path.find("par."), std::string::npos) << entry.path;
}

TEST(Profiler, TimelineRecordsPooledWorkerChunks) {
  Profiler profiler(/*record_timeline=*/true);
  ActiveProfiler active(&profiler);
  {
    ProfileSpan root("solve");
    memlp::par::parallel_for(
        32, [](std::size_t) { ProfileSpan item("tile"); spin(); }, 4);
  }
  const auto timeline = profiler.timeline();
  ASSERT_FALSE(timeline.empty());
  bool saw_region = false;
  bool saw_chunk = false;
  for (const auto& record : timeline) {
    EXPECT_GE(record.start_s, 0.0);
    EXPECT_GE(record.dur_s, 0.0);
    EXPECT_LT(record.slot, memlp::par::thread_slot_limit());
    if (record.path.find("par.region") != std::string::npos) saw_region = true;
    if (record.path.find("par.chunk") != std::string::npos) saw_chunk = true;
  }
  EXPECT_TRUE(saw_region);
  EXPECT_TRUE(saw_chunk);
  EXPECT_EQ(profiler.timeline_dropped(), 0u);
}

TEST(Profiler, PhaseSpanOpensAMatchingProfilerFrame) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  memlp::obs::MemoryTraceSink sink;
  {
    ProfileSpan root("pdip");
    memlp::obs::PhaseSpan phase(&sink, "pdip", "iterations");
    spin();
  }
  const auto stats = profiler.aggregate();
  const auto* nested = find_path(stats, "pdip/iterations");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->count, 1u);
  // The sink still sees the phase event (name survives the profiler hook).
  const auto phases = sink.events_of("phase");
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(text_field(phases[0], "phase"), "iterations");
}

TEST(Profiler, LsIterationsSplitIntoWriteMvmAndSettle) {
  // The large-scale solver's host time below ls/iterations is attributed
  // to the same three leaves as xbar's: array writes, MVMs and settles.
  memlp::lp::GeneratorOptions gen;
  gen.constraints = 12;
  memlp::Rng rng(5);
  const auto problem = memlp::lp::random_feasible(gen, rng);
  Profiler profiler;
  {
    ActiveProfiler active(&profiler);
    memlp::core::LsPdipOptions options;
    options.seed = 7;
    (void)memlp::core::solve_ls_pdip(problem, options);
  }
  const auto stats = profiler.aggregate();
  for (const char* leaf : {"write_state", "mvm", "settle"}) {
    const auto* entry =
        find_path(stats, std::string("ls/iterations/") + leaf);
    ASSERT_NE(entry, nullptr) << leaf;
    EXPECT_GT(entry->count, 0u) << leaf;
  }
}

TEST(Profiler, PhaseSpanWithoutSinkStillProfiles) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  { memlp::obs::PhaseSpan phase(nullptr, "pdip", "factorize"); }
  const auto stats = profiler.aggregate();
  const auto* entry = find_path(stats, "factorize");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 1u);
}

TEST(Profiler, TableRendersEveryPathWithAShareColumn) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  {
    ProfileSpan root("xbar");
    { ProfileSpan inner("settle"); spin(); }
  }
  const std::string rendered = profiler.table().str();
  EXPECT_NE(rendered.find("phase breakdown"), std::string::npos);
  EXPECT_NE(rendered.find("xbar"), std::string::npos);
  EXPECT_NE(rendered.find("xbar/settle"), std::string::npos);
  EXPECT_NE(rendered.find("share"), std::string::npos);
  EXPECT_NE(rendered.find("100.0%"), std::string::npos);  // root share
}

TEST(Profiler, ChromeTraceIsWellFormedJson) {
  Profiler profiler(/*record_timeline=*/true);
  ActiveProfiler active(&profiler);
  {
    ProfileSpan root("solve");
    memlp::par::parallel_for(
        8, [](std::size_t) { ProfileSpan item("tile"); spin(); }, 2);
  }
  const std::string path = testing::TempDir() + "/test_prof.chrome.json";
  ASSERT_TRUE(profiler.write_chrome_trace(path));

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = memlp::json::parse(buffer.str());

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("displayTimeUnit", ""), "ms");
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());
  std::set<std::string> names;
  for (const auto& event : events->as_array()) {
    ASSERT_TRUE(event.is_object());
    EXPECT_FALSE(event.string_or("name", "").empty());
    EXPECT_EQ(event.string_or("ph", ""), "X");
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("dur"), nullptr);
    EXPECT_GE(event.number_or("ts", -1.0), 0.0);
    EXPECT_GE(event.number_or("dur", -1.0), 0.0);
    names.insert(event.string_or("name", ""));
  }
  EXPECT_TRUE(names.count("solve"));
  EXPECT_TRUE(names.count("tile"));
  std::remove(path.c_str());
}

// --- cost ledger ------------------------------------------------------------

/// Scoped CostLedger::set_active, mirroring ActiveProfiler.
class ActiveLedger {
 public:
  explicit ActiveLedger(CostLedger* ledger) { CostLedger::set_active(ledger); }
  ~ActiveLedger() { CostLedger::set_active(nullptr); }
  ActiveLedger(const ActiveLedger&) = delete;
  ActiveLedger& operator=(const ActiveLedger&) = delete;
};

TEST(CostLedger, ChargesAttributeToTheOpenCallPath) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  CostLedger ledger;
  ActiveLedger active_ledger(&ledger);
  CostLedger::charge_active({.flops = 1});  // no frame open → unattributed
  {
    ProfileSpan root("solve");
    CostLedger::charge_active({.settles = 2, .flops = 10});
    {
      ProfileSpan inner("factor");
      CostLedger::charge_active({.flops = 100, .bytes = 800});
      CostLedger::charge_active({});  // zero amounts are dropped
    }
  }
  const CostTree tree = ledger.tree();
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.at(CostLedger::kUnattributed).flops, 1u);
  EXPECT_EQ(tree.at("solve").settles, 2u);
  EXPECT_EQ(tree.at("solve").flops, 10u);
  EXPECT_EQ(tree.at("solve/factor").flops, 100u);
  EXPECT_EQ(tree.at("solve/factor").bytes, 800u);
  const CostCounters total = ledger.total();
  EXPECT_EQ(total.flops, 111u);
  EXPECT_EQ(total.settles, 2u);
  ledger.reset();
  EXPECT_TRUE(ledger.tree().empty());
}

TEST(CostLedger, ChargeWithNoActiveLedgerIsANoOp) {
  ASSERT_EQ(CostLedger::active(), nullptr);
  CostLedger::charge_active({.settles = 1});  // must not crash
}

/// Runs the same instrumented parallel workload at `threads` and returns the
/// ledger tree. Worker charges must land on the launching thread's path.
CostTree charged_parallel_run(std::size_t threads) {
  Profiler profiler;
  ActiveProfiler active(&profiler);
  CostLedger ledger;
  ActiveLedger active_ledger(&ledger);
  {
    ProfileSpan root("solve");
    memlp::par::parallel_for(
        32,
        [](std::size_t i) {
          ProfileSpan item("tile");
          CostLedger::charge_active({.settles = 1, .flops = 2 * (i + 1)});
          spin();
        },
        threads);
    CostLedger::charge_active({.controller_iterations = 1});
  }
  return ledger.tree();
}

TEST(CostLedger, TreeIsIdenticalAcrossThreadCounts) {
  const CostTree serial = charged_parallel_run(1);
  const CostTree pooled = charged_parallel_run(4);
  // Exact equality — integer counters merged in slot order, so the tree is
  // bit-identical at every MEMLP_THREADS value (the memlp::par contract).
  EXPECT_EQ(serial, pooled);
  ASSERT_TRUE(pooled.contains("solve/tile"));
  EXPECT_EQ(pooled.at("solve/tile").settles, 32u);
  EXPECT_EQ(pooled.at("solve/tile").flops, 2u * (32u * 33u / 2u));
  EXPECT_EQ(pooled.at("solve").controller_iterations, 1u);
}

TEST(CostLedger, ChromeCounterTracksAreWellFormedJson) {
  Profiler profiler(/*record_timeline=*/true);
  ActiveProfiler active(&profiler);
  CostLedger ledger(/*record_timeline=*/true);
  ActiveLedger active_ledger(&ledger);
  {
    ProfileSpan root("solve");
    for (int i = 0; i < 4; ++i) {
      ProfileSpan item("tile");
      CostLedger::charge_active({.settles = 1, .flops = 16});
      spin();
    }
  }
  EXPECT_TRUE(ledger.timeline_enabled());
  EXPECT_EQ(ledger.timeline_dropped(), 0u);

  const std::string path = testing::TempDir() + "/test_cost.chrome.json";
  {
    memlp::obs::ChromeTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    profiler.export_spans(sink);
    const memlp::perf::HardwareModel model;
    memlp::perf::export_counter_tracks(ledger, model, sink);
    sink.flush();
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = memlp::json::parse(buffer.str());
  ASSERT_TRUE(doc.is_object());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Counter events: ph "C", a known track name, a numeric cumulative value
  // that never decreases within a track.
  std::map<std::string, double> last_value;
  std::size_t counters = 0;
  for (const auto& event : events->as_array()) {
    ASSERT_TRUE(event.is_object());
    if (event.string_or("ph", "") != "C") continue;
    ++counters;
    const std::string name = event.string_or("name", "");
    EXPECT_TRUE(name == "cost.energy_j" || name == "cost.flops") << name;
    EXPECT_GE(event.number_or("ts", -1.0), 0.0);
    const auto* args = event.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->is_object());
    const auto* value = args->find("value");
    ASSERT_NE(value, nullptr);
    ASSERT_TRUE(value->is_number());
    const auto it = last_value.find(name);
    if (it != last_value.end()) {
      EXPECT_GE(value->as_number(), it->second);
    }
    last_value[name] = value->as_number();
  }
  // Every charge contributes one sample per track.
  EXPECT_EQ(counters, 2u * 4u);
  EXPECT_GT(last_value["cost.flops"], 0.0);
  EXPECT_GT(last_value["cost.energy_j"], 0.0);
  std::remove(path.c_str());
}

TEST(Profiler, ExportSpansReplaysTimelineIntoAnySink) {
  Profiler profiler(/*record_timeline=*/true);
  ActiveProfiler active(&profiler);
  { ProfileSpan span("alpha"); spin(); }
  memlp::obs::MemoryTraceSink sink;
  profiler.export_spans(sink);
  const auto spans = sink.events_of("span");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(text_field(spans[0], "path"), "alpha");
  EXPECT_GE(spans[0].number("dur_us"), 0.0);
}

}  // namespace
