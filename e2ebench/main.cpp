// memlp_e2e — end-to-end benchmark driver.
//
//   memlp_e2e --workload <name> --seed <n> --seconds <s> --trace 0
//   memlp_e2e --workload <name> --seed <n> --seconds <s> --trace 1
//             --identity-ref <file>
//   memlp_e2e --workload <name> --seed <n> --digest-out <file>
//
// Set-up generates the workload's LPs from the seed, writes each as MPS
// bytes, and certifies a reference optimum per LP (simplex's x and y,
// checked by the benchmark's own arithmetic). The run then solves whole
// rounds — every instance once — while another round fits in --seconds (at
// least one), each solve going the way `memlp_solve --mps` goes:
// lp::read_mps → engine::solve (registry defaults) →
// MpsModel::original_objective. Every answer is checked against the
// certified optimum.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// rounds with rounds under an obs::Profiler and obs::CostLedger, times each
// layer's public functions from outside, and prints the per-layer metrics.
// --digest-out solves the first instance once and writes its exact digest,
// which a --trace 1 run at another MEMLP_THREADS compares with its own.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is 0 only when every check passed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/par.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "core/scaling.hpp"
#include "crossbar/crossbar.hpp"
#include "engine/registry.hpp"
#include "linalg/lu.hpp"
#include "lp/mps.hpp"
#include "lp/presolve.hpp"
#include "noc/tiled.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/profiler.hpp"
#include "perf/hardware_model.hpp"
#include "workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Initialised before main runs: the wall-clock start of the process.
const Clock::time_point g_process_start = Clock::now();

// Fixed for every workload, with the paper's 10% uniform device variation
// (e2e::kVariation): the simulated statistics of a seed repeat exactly.
constexpr std::uint64_t kHardwareSeed = 42;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds used so far by every thread of this process.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double e : v) sum += e;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double time_calls(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(since(t0));
  }
  return median(samples);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string identity_ref;
  std::string digest_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--identity-ref") args.identity_ref = value;
    else if (key == "--digest-out") args.digest_out = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty();
}

struct Instance {
  e2e::Lp lp;
  std::string mps;
  double optimum = 0.0;
  std::vector<double> ref_x, ref_y;
};

/// One pass of the user's path over one instance.
struct Solve {
  bool optimal = false;
  double total_s = 0.0;     ///< read_mps → engine::solve → objective
  double cpu_s = 0.0;       ///< process CPU time over the same span
  double read_mps_s = 0.0;
  double engine_s = 0.0;
  memlp::engine::SolveReport report;
  double objective = 0.0;
  double latency_s = 0.0;   ///< modelled hardware latency (Fig. 6)
  double energy_j = 0.0;    ///< modelled hardware energy (Fig. 7)
};

memlp::engine::SolveRequest make_request(const e2e::Workload& workload) {
  memlp::engine::SolveRequest request;
  request.solver = workload.solver;
  request.seed = kHardwareSeed;
  request.hardware.crossbar.variation =
      memlp::mem::VariationModel::uniform(e2e::kVariation);
  request.hardware.crossbar.max_dim = workload.max_dim;
  return request;
}

memlp::lp::MpsModel read_model(const std::string& mps) {
  std::istringstream in(mps);
  return memlp::lp::read_mps(in, "instance.mps");
}

Solve run_solve(const Instance& instance,
                const memlp::engine::SolveRequest& request) {
  Solve s;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const memlp::lp::MpsModel model = read_model(instance.mps);
  const Clock::time_point t1 = Clock::now();
  s.report = memlp::engine::solve(model.problem, request);
  const Clock::time_point t2 = Clock::now();
  s.optimal = s.report.result.optimal();
  if (s.optimal) s.objective = model.original_objective(s.report.result.x);
  s.total_s = since(t0);
  s.cpu_s = process_cpu_s() - cpu0;
  s.read_mps_s = std::chrono::duration<double>(t1 - t0).count();
  s.engine_s = std::chrono::duration<double>(t2 - t1).count();
  if (s.report.has_hardware_stats) {
    const memlp::perf::HardwareModel hardware;
    memlp::perf::CostEstimate estimate = hardware.estimate(s.report.stats);
    estimate += hardware.estimate_programming(s.report.stats);
    s.latency_s = estimate.latency_s;
    s.energy_j = estimate.energy_j;
  }
  return s;
}

std::string digest_of(const Solve& s) {
  return e2e::digest(memlp::lp::to_string(s.report.result.status),
                     s.report.stats.iterations, s.energy_j,
                     s.report.result.x);
}

/// Collects check failures; any failure makes the run incorrect.
struct Verdict {
  std::vector<std::string> failures;
  void add(const std::string& failure, const char* context) {
    if (failure.empty()) return;
    if (failures.size() < 20)
      std::fprintf(stderr, "CHECK FAILED (%s): %s\n", context,
                   failure.c_str());
    failures.push_back(failure);
  }
};

/// Generates, writes and certifies the instances, and runs the self-test.
/// Returns the per-instance reference simplex times.
std::vector<double> set_up(const e2e::Workload& workload, std::uint64_t seed,
                           std::vector<Instance>& instances, Verdict& verdict) {
  std::vector<double> simplex_s;
  for (e2e::Lp& lp : e2e::make_instances(workload, seed)) {
    Instance instance;
    instance.mps = e2e::to_mps(lp, workload.name);
    instance.lp = std::move(lp);
    const memlp::lp::MpsModel model = read_model(instance.mps);
    memlp::engine::SolveRequest request;
    request.solver = "simplex";
    const Clock::time_point t0 = Clock::now();
    const memlp::engine::SolveReport ref =
        memlp::engine::solve(model.problem, request);
    simplex_s.push_back(since(t0));
    if (!ref.result.optimal()) {
      verdict.add("reference simplex solve is " +
                      memlp::lp::to_string(ref.result.status),
                  "reference");
    } else {
      verdict.add(e2e::certify_reference(instance.lp, ref.result.x,
                                         ref.result.y),
                  "reference");
      instance.optimum = e2e::dot(instance.lp.c, ref.result.x);
    }
    instance.ref_x = ref.result.x;
    instance.ref_y = ref.result.y;
    instances.push_back(std::move(instance));
  }
  if (verdict.failures.empty())
    for (const std::string& f : e2e::self_test(
             instances[0].lp, instances[0].ref_x, instances[0].ref_y))
      verdict.add(f, "self-test");
  return simplex_s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char field[200];
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    std::snprintf(field, sizeof field,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", metrics[k].name.c_str(),
                  metrics[k].value, metrics[k].unit.c_str());
    json += field;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Calls `round(r)` for r = 0, 1, … : at least `min_rounds` times, then
/// again while one more round, as long as the last one, fits in `seconds`.
/// A run is always whole rounds.
template <typename Round>
void run_rounds(double seconds, std::size_t min_rounds, Round&& round) {
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  for (std::size_t r = 0; r < min_rounds || since(start) + last_s <= seconds;
       ++r) {
    const Clock::time_point t0 = Clock::now();
    round(r);
    last_s = since(t0);
  }
}

/// What the rounds of one run have seen so far.
///
/// Every round solves every instance, and every solve's host time,
/// iterations, latency and energy count: they are what a user pays. A solve
/// is accepted in round 0 when it ends `optimal` and its answer meets the
/// engine's own feasibility rule (e2e::check_feasible). A solve that is not
/// accepted is not counted as an operation, in `attempted` or `failed`, and
/// neither are its instance's later solves: today's solvers miss on about
/// one instance in 200 at 10% variation, which instances depends on the
/// seed, and `failed` must be the same share of `attempted` whatever the
/// seed. Each one is reported on stderr; more than kMaxNotAccepted of a
/// round makes the run incorrect, so a loss of robustness fails the
/// benchmark. An accepted instance that fails in a later round counts in
/// `failed`.
struct Tally {
  std::vector<Solve> first;    ///< round 0's solve of every instance
  std::vector<bool> accepted;  ///< whether that solve was accepted
  std::size_t attempted = 0, failed = 0;

  [[nodiscard]] std::size_t not_accepted() const {
    return static_cast<std::size_t>(
        std::count(accepted.begin(), accepted.end(), false));
  }
};

constexpr double kMaxNotAccepted = 0.10;

/// Mean wall and CPU seconds per solve of one round.
struct RoundTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs round `r` over every instance with `solve(k)`, checks every answer
/// of an accepted instance, requires later rounds to repeat round 0
/// exactly, and returns the mean times per solve.
template <typename SolveFn>
RoundTime run_round(std::size_t r, const std::vector<Instance>& instances,
                    Tally& tally, Verdict& verdict, SolveFn&& solve) {
  RoundTime total;
  for (std::size_t k = 0; k < instances.size(); ++k) {
    Solve s = solve(k);
    total.wall_s += s.total_s;
    total.cpu_s += s.cpu_s;
    const Instance& instance = instances[k];
    const std::string status = memlp::lp::to_string(s.report.result.status);
    if (r == 0) {
      const std::string missed =
          s.optimal ? e2e::check_feasible(instance.lp, s.report.result.x)
                    : "ended " + status;
      if (!missed.empty())
        std::fprintf(stderr, "not accepted: instance %zu (%s): %s\n", k,
                     instance.lp.family.c_str(), missed.c_str());
      tally.accepted.push_back(missed.empty());
    } else if (digest_of(s) != digest_of(tally.first[k])) {
      verdict.add("instance " + std::to_string(k) +
                      " did not repeat its first solve exactly",
                  "repeat");
    }
    if (tally.accepted[k]) {
      ++tally.attempted;
      if (!s.optimal) {
        ++tally.failed;
        std::fprintf(stderr, "solve failed: instance %zu ended %s\n", k,
                     status.c_str());
      } else {
        verdict.add(e2e::check_feasible(instance.lp, s.report.result.x),
                    "answer");
        verdict.add(e2e::check_objective(instance.lp, s.report.result.x,
                                         s.objective, instance.optimum),
                    "answer");
      }
    }
    if (r == 0) tally.first.push_back(std::move(s));
  }
  const std::size_t missed = tally.not_accepted();
  if (r == 0 && static_cast<double>(missed) >
                    kMaxNotAccepted * static_cast<double>(instances.size()))
    verdict.add(std::to_string(missed) + " of " +
                    std::to_string(instances.size()) +
                    " solves were not accepted",
                "robustness");
  const double count = static_cast<double>(instances.size());
  return {total.wall_s / count, total.cpu_s / count};
}

/// The simulated statistics of round 0. Iterations, latency and energy are
/// means over every solve, the accuracy is taken over the accepted answers,
/// and the row excess over every answer the engine called optimal.
struct Simulated {
  double iterations = 0, latency_s = 0, energy_j = 0;
  double rel_error = 0;         ///< arithmetic mean (printed, not gated)
  double accuracy_digits = 0;   ///< mean of −log10(relative error)
  double worst_excess = 0;      ///< e2e::worst_row_excess over the answers
  std::size_t answers = 0;      ///< solves that ended optimal
  std::size_t paper_rule_breaches = 0;  ///< answers breaking A·x ≤ 1.02·b
};

Simulated simulated_stats(const std::vector<Instance>& instances,
                          const Tally& tally) {
  std::vector<double> its, lat, en, err, digits;
  Simulated sim;
  for (std::size_t k = 0; k < tally.first.size(); ++k) {
    const Solve& s = tally.first[k];
    its.push_back(static_cast<double>(s.report.stats.iterations));
    lat.push_back(s.latency_s);
    en.push_back(s.energy_j);
    if (!s.optimal) continue;
    ++sim.answers;
    const double excess =
        e2e::worst_row_excess(instances[k].lp, s.report.result.x);
    sim.worst_excess = std::max(sim.worst_excess, excess);
    if (excess > e2e::kPaperAlpha - 1.0) ++sim.paper_rule_breaches;
    if (!tally.accepted[k]) continue;
    const double e = std::abs(s.objective - instances[k].optimum) /
                     std::max(1.0, std::abs(instances[k].optimum));
    err.push_back(e);
    // Floored at 1e-16 so an exact answer reads 16 digits, not infinity.
    digits.push_back(-std::log10(std::max(e, 1e-16)));
  }
  sim.iterations = mean(its);
  sim.latency_s = mean(lat);
  sim.energy_j = mean(en);
  sim.rel_error = mean(err);
  sim.accuracy_digits = mean(digits);
  return sim;
}

int run_untraced(const e2e::Workload& workload, const Args& args) {
  Verdict verdict;
  std::vector<Instance> instances;
  set_up(workload, args.seed, instances, verdict);
  // Host times are CPU seconds of the process: on a shared machine its wall
  // time also carries whatever the hypervisor gives to other tenants (see
  // README.md). The wall times are printed beside them, not gated.
  const double setup_cpu_s = process_cpu_s();
  const double setup_wall_s = since(g_process_start);
  const memlp::engine::SolveRequest request = make_request(workload);

  Tally tally;
  std::vector<double> wall_s, cpu_s;
  run_rounds(args.seconds, 1, [&](std::size_t r) {
    const RoundTime t =
        run_round(r, instances, tally, verdict, [&](std::size_t k) {
          return run_solve(instances[k], request);
        });
    wall_s.push_back(t.wall_s);
    cpu_s.push_back(t.cpu_s);
  });

  const Simulated sim = simulated_stats(instances, tally);
  std::printf("not gated: solve wall %.6g s, setup wall %.6g s, "
              "rel_error (mean) %.6g\n"
              "worst row excess of A x over b: %.4g of max(|b_i|, |b|/2) "
              "(accepted up to %.2g)\n"
              "answers breaking the paper's A x <= 1.02 b: %zu of %zu\n"
              "solves not accepted in round 0 (costed, not counted): "
              "%zu of %zu\n",
              median(wall_s), setup_wall_s, sim.rel_error, sim.worst_excess,
              e2e::kFeasibilityAlpha - 1.0, sim.paper_rule_breaches,
              sim.answers, tally.not_accepted(),
              instances.size());
  print_result(verdict.failures.empty(), tally.attempted, tally.failed,
               {{"solve_cpu_s", median(cpu_s), "s"},
                {"setup_s", setup_cpu_s, "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"iterations", sim.iterations, "count"},
                {"est_latency_s", sim.latency_s, "s"},
                {"est_energy_j", sim.energy_j, "J"},
                {"accuracy_digits", sim.accuracy_digits, "digits"}});
  return verdict.failures.empty() ? 0 : 1;
}

/// Per-solve layer record of one traced solve.
struct LayerSample {
  std::map<std::string, double> path_s;  ///< profiler call path → seconds
  memlp::obs::CostCounters total;        ///< ledger total of the solve
  std::uint64_t settle_flops = 0;        ///< ledger flops under …/settle
};

LayerSample traced_solve(const Instance& instance,
                         const memlp::engine::SolveRequest& request,
                         Solve& s) {
  memlp::obs::Profiler profiler;
  memlp::obs::CostLedger ledger;
  memlp::obs::Profiler::set_active(&profiler);
  memlp::obs::CostLedger::set_active(&ledger);
  s = run_solve(instance, request);
  memlp::obs::CostLedger::set_active(nullptr);
  memlp::obs::Profiler::set_active(nullptr);
  LayerSample sample;
  for (const memlp::obs::CallPathStats& p : profiler.aggregate())
    sample.path_s[p.path] = p.total_s;
  sample.total = ledger.total();
  for (const auto& [path, counters] : ledger.tree())
    if (path.size() >= 7 && path.compare(path.size() - 7, 7, "/settle") == 0)
      sample.settle_flops += counters.flops;
  return sample;
}

double path_s(const LayerSample& s, const std::string& path) {
  const auto it = s.path_s.find(path);
  return it == s.path_s.end() ? 0.0 : it->second;
}

int run_traced(const e2e::Workload& workload, const Args& args) {
  Verdict verdict;
  std::vector<Instance> instances;
  const std::vector<double> simplex_s =
      set_up(workload, args.seed, instances, verdict);
  const memlp::engine::SolveRequest request = make_request(workload);
  const memlp::perf::HardwareModel hardware;

  // Rounds alternate untraced and traced. For the tracing overhead, the
  // first kPairs traced solves are each paired with an untraced solve of the
  // same instance, run back to back in alternating order so neither side
  // always meets the warmer caches.
  constexpr std::size_t kPairs = 8;
  Tally tally;
  std::vector<double> overhead_s;
  std::vector<LayerSample> samples;
  std::map<std::string, std::vector<double>> per_solve;
  run_rounds(args.seconds, 2, [&](std::size_t r) {
    const bool traced = r % 2 == 1;
    run_round(r, instances, tally, verdict, [&](std::size_t k) {
      Solve s;
      if (traced) {
        const bool pair = overhead_s.size() < kPairs;
        const bool untraced_first = pair && overhead_s.size() % 2 == 1;
        double untraced_s = 0.0;
        if (untraced_first)
          untraced_s = run_solve(instances[k], request).total_s;
        samples.push_back(traced_solve(instances[k], request, s));
        if (pair && !untraced_first)
          untraced_s = run_solve(instances[k], request).total_s;
        if (pair) overhead_s.push_back(s.total_s - untraced_s);
        const memlp::perf::CostEstimate priced =
            hardware.price_counters(samples.back().total);
        verdict.add(e2e::check_ledger_identity(priced.energy_j, s.energy_j),
                    "ledger");
        per_solve["lp.read_mps_s"].push_back(s.read_mps_s);
        per_solve["engine.solve_s"].push_back(s.engine_s);
      } else {
        s = run_solve(instances[k], request);
      }
      return s;
    });
  });
  const std::vector<Solve>& first = tally.first;

  // Thread-count identity: the first untraced solve of instance 0 against
  // the same solve made by another process at MEMLP_THREADS=1.
  std::ifstream ref_file(args.identity_ref);
  std::string single_thread;
  std::getline(ref_file, single_thread);
  verdict.add(e2e::check_digests_equal(digest_of(first[0]), single_thread),
              "thread identity");

  const std::string& solver = workload.solver;
  for (const LayerSample& s : samples) {
    per_solve["core.iterations_s"].push_back(
        path_s(s, solver + "/iterations"));
    per_solve["core.programming_s"].push_back(
        path_s(s, solver + "/programming"));
    for (const char* leaf : {"settle", "mvm", "write_state"})
      per_solve[std::string("crossbar.") + leaf + "_s"].push_back(
          path_s(s, solver + "/iterations/" + leaf));
    per_solve["crossbar.settles"].push_back(
        static_cast<double>(s.total.settles));
    per_solve["crossbar.cells_written"].push_back(
        static_cast<double>(s.total.cells_written));
    per_solve["memristor.write_pulses"].push_back(
        static_cast<double>(s.total.write_pulses));
    per_solve["linalg.flops"].push_back(static_cast<double>(s.total.flops));
    per_solve["noc.value_hops"].push_back(
        static_cast<double>(s.total.noc_value_hops));
    per_solve["settle_flops"].push_back(static_cast<double>(s.settle_flops));
  }
  for (const Solve& s : first) {
    const memlp::core::BackendStats& b = s.report.stats.backend;
    per_solve["linalg.full_factorizations"].push_back(
        static_cast<double>(b.settle_cache.full_factorizations));
    per_solve["noc.global_settles"].push_back(
        static_cast<double>(b.noc.global_settles));
    per_solve["noc.zero_tiles"].push_back(static_cast<double>(b.zero_tiles));
  }

  // Layers timed from outside, per call, on each instance's own data: the
  // KKT at the all-ones start point and its negative-free array.
  for (std::size_t k = 0, timed = 0; k < instances.size() && timed < 4; ++k) {
    if (!tally.accepted[k]) continue;
    ++timed;
    const memlp::lp::MpsModel model = read_model(instances[k].mps);
    const memlp::lp::LinearProgram& problem = model.problem;
    const memlp::core::PdipState start = memlp::core::PdipState::ones(
        problem.num_variables(), problem.num_constraints());
    per_solve["lp.presolve_s"].push_back(
        time_calls(3, [&] { (void)memlp::lp::presolve(problem); }));
    memlp::Matrix kkt;
    per_solve["core.kkt_assemble_s"].push_back(time_calls(5, [&] {
      kkt = memlp::core::assemble_kkt(problem, start);
    }));
    per_solve["core.scaling_s"].push_back(time_calls(5, [&] {
      const memlp::core::ProblemScaling scaling(problem);
      memlp::lp::SolveResult result = first[k].report.result;
      scaling.unscale(result);
    }));
    per_solve["linalg.lu_call_s"].push_back(
        time_calls(3, [&] { const memlp::LuFactorization lu(kkt); }));

    const memlp::core::NegativeFreeSystem negfree(kkt);
    const memlp::Vec rhs(negfree.dim(), 1.0);
    memlp::xbar::CrossbarConfig config;
    config.variation = memlp::mem::VariationModel::uniform(e2e::kVariation);
    // Each solve follows a fresh program, so it pays the full settle (a
    // factorization) rather than hitting the array's settle cache.
    memlp::xbar::Crossbar crossbar(config, memlp::Rng(kHardwareSeed));
    memlp::noc::TiledConfig tiled_config;
    tiled_config.tile_dim = 128;
    tiled_config.xbar = config;
    memlp::noc::TiledCrossbarMatrix tiled(tiled_config,
                                          memlp::Rng(kHardwareSeed));
    std::vector<double> program_s, solve_s, tiled_s;
    for (int rep = 0; rep < 3; ++rep) {
      program_s.push_back(time_calls(1, [&] {
        crossbar.program(negfree.matrix());
      }));
      solve_s.push_back(time_calls(1, [&] { (void)crossbar.solve(rhs); }));
      tiled.program(negfree.matrix());
      tiled_s.push_back(time_calls(1, [&] { (void)tiled.solve(rhs); }));
    }
    per_solve["crossbar.program_call_s"].push_back(median(program_s));
    per_solve["crossbar.solve_call_s"].push_back(median(solve_s));
    per_solve["noc.tiled_solve_call_s"].push_back(median(tiled_s));
  }

  const auto med = [&](const char* name) { return median(per_solve[name]); };
  const double engine_s = med("engine.solve_s");
  const double settle_s = med("crossbar.settle_s");
  const double covered = med("core.iterations_s") + med("core.programming_s");
  std::vector<Metric> metrics = {
      {"lp.read_mps_s", med("lp.read_mps_s"), "s"},
      {"lp.presolve_s", med("lp.presolve_s"), "s"},
      {"core.kkt_assemble_s", med("core.kkt_assemble_s"), "s"},
      {"core.scaling_s", med("core.scaling_s"), "s"},
      {"core.iterations_s", med("core.iterations_s"), "s"},
      {"core.programming_s", med("core.programming_s"), "s"},
      {"crossbar.settle_s", settle_s, "s"},
      {"crossbar.mvm_s", med("crossbar.mvm_s"), "s"},
      {"crossbar.write_state_s", med("crossbar.write_state_s"), "s"},
      {"crossbar.solve_call_s", med("crossbar.solve_call_s"), "s"},
      {"crossbar.program_call_s", med("crossbar.program_call_s"), "s"},
      {"crossbar.settles", med("crossbar.settles"), "count"},
      {"crossbar.cells_written", med("crossbar.cells_written"), "count"},
      {"memristor.write_pulses", med("memristor.write_pulses"), "count"},
      {"linalg.lu_call_s", med("linalg.lu_call_s"), "s"},
      {"linalg.flops", med("linalg.flops"), "count"},
      {"linalg.gflops_per_s",
       settle_s > 0.0 ? med("settle_flops") / settle_s / 1e9 : 0.0, "GFLOP/s"},
      {"linalg.full_factorizations", med("linalg.full_factorizations"),
       "count"},
      {"noc.value_hops", med("noc.value_hops"), "count"},
      {"noc.global_settles", med("noc.global_settles"), "count"},
      {"noc.zero_tiles", med("noc.zero_tiles"), "count"},
      {"noc.tiled_solve_call_s", med("noc.tiled_solve_call_s"), "s"},
      {"engine.solve_s", engine_s, "s"},
      {"solvers.simplex_s", median(simplex_s), "s"},
      {"obs.trace_overhead_s", median(overhead_s), "s"},
      {"obs.profile_coverage", engine_s > 0.0 ? covered / engine_s : 0.0,
       "ratio"},
  };
  if (!samples.empty())
    for (const auto& [path, seconds] : samples.front().path_s)
      std::fprintf(stderr, "profiler path %-32s %.6f s\n", path.c_str(),
                   seconds);
  print_result(verdict.failures.empty(), tally.attempted, tally.failed,
               metrics);
  return verdict.failures.empty() ? 0 : 1;
}

int write_digest(const e2e::Workload& workload, const Args& args) {
  const std::vector<e2e::Lp> lps = e2e::make_instances(workload, args.seed);
  Instance instance;
  instance.mps = e2e::to_mps(lps[0], workload.name);
  const Solve s = run_solve(instance, make_request(workload));
  std::ofstream out(args.digest_out);
  out << digest_of(s) << "\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: memlp_e2e --workload <%s> --seed n --seconds s "
                 "--trace 0|1 [--identity-ref file] | --digest-out file\n",
                 e2e::workload_names().c_str());
    return 2;
  }
  const e2e::Workload* workload = e2e::find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (known: %s)\n",
                 args.workload.c_str(), e2e::workload_names().c_str());
    return 2;
  }
  if (args.trace && args.identity_ref.empty()) {
    std::fprintf(stderr, "--trace 1 needs --identity-ref\n");
    return 2;
  }
  std::fprintf(stderr, "memlp_e2e: workload %s, seed %llu, threads %zu\n",
               workload->name.c_str(),
               static_cast<unsigned long long>(args.seed),
               memlp::par::default_threads());
  try {
    if (!args.digest_out.empty()) return write_digest(*workload, args);
    return args.trace ? run_traced(*workload, args)
                      : run_untraced(*workload, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memlp_e2e: %s\n", e.what());
    return 1;
  }
}
