// Checks made apart from the program: every test here is computed with the
// benchmark's own arithmetic on the generated data (e2e::Lp), never on the
// copy memlp read back from MPS, and never with memlp's own residual or
// feasibility helpers.
//
// Each check returns an empty string when it passes and a one-line reason
// when it fails. self_test() feeds each one a perturbed answer and returns
// the checks that failed to reject it.
#pragma once

#include <string>
#include <vector>

#include "workload.hpp"

namespace e2e {

/// Largest relative objective error an analog answer may have against the
/// certified optimum, |cᵀx − opt| / max(1, |opt|). Measured errors at 10%
/// variation stay below 0.05 on every workload.
inline constexpr double kMaxRelError = 0.10;

/// The device variation the workloads program (10% uniform).
inline constexpr double kVariation = 0.10;

/// The paper's §3.2 acceptance rule is A·x ≤ 1.02·b. The engine accepts an
/// analog answer at α = max(1.05, 1 + 1.5·variation) instead
/// (solve_analog_pdip in src/core/engine.cpp), because the answer solves the
/// LP of the programmed, varied matrix. Answers are checked on the true A at
/// that α, 1.15 at the workloads' 10% variation, without the merit-scaled
/// tolerance the engine adds to it. Both rules are read per row
/// as an allowance of (α − 1)·max(|b_i|, ‖b‖∞/2), so a row with b_i near 0
/// is not held to zero.
inline constexpr double kPaperAlpha = 1.02;
inline constexpr double kFeasibilityAlpha = 1.0 + 1.5 * kVariation;

double dot(const std::vector<double>& u, const std::vector<double>& v);

/// Certifies a reference answer: primal feasibility (A·x ≤ b, x ≥ 0), dual
/// feasibility (Aᵀy ≥ c, y ≥ 0) and a zero duality gap (cᵀx = bᵀy), each
/// within 1e-7 relative.
std::string certify_reference(const Lp& lp, const std::vector<double>& x,
                              const std::vector<double>& y);

/// x ≥ −1e-6 and, on the true A, every row within the kFeasibilityAlpha
/// allowance: A_i·x ≤ b_i + (α − 1)·max(|b_i|, ‖b‖∞/2).
std::string check_feasible(const Lp& lp, const std::vector<double>& x);

/// The reported objective equals cᵀx (to 1e-9 relative) and cᵀx is within
/// kMaxRelError of `optimum`.
std::string check_objective(const Lp& lp, const std::vector<double>& x,
                            double reported_objective, double optimum);

/// Largest row excess of A·x over b on the true A, as a share of
/// max(|b_i|, ‖b‖∞/2): a rule with factor α holds when this is at most α − 1.
double worst_row_excess(const Lp& lp, const std::vector<double>& x);

/// The ledger-priced energy must equal the HardwareStats estimate to 1e-9
/// relative: two totals reached from separate counters.
std::string check_ledger_identity(double ledger_energy_j,
                                  double estimate_energy_j);

/// An exact text record of one solve (status, iterations, energy and x as
/// hexadecimal floats), compared byte for byte across thread counts.
std::string digest(const std::string& status, std::size_t iterations,
                   double energy_j, const std::vector<double>& x);
std::string check_digests_equal(const std::string& pinned,
                                const std::string& single_thread);

/// Runs every check above on `lp` and its certified optimum (x, y): first
/// on the answer itself, which each must accept, then on perturbed answers,
/// which each must reject. Returns a line per check that did not do so.
std::vector<std::string> self_test(const Lp& lp, const std::vector<double>& x,
                                   const std::vector<double>& y);

}  // namespace e2e
