#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "linalg/ops.hpp"

namespace memlp::lp {

void LinearProgram::validate() const {
  if (a.rows() != b.size())
    throw DimensionError("LP: rows(A) != size(b)");
  if (a.cols() != c.size())
    throw DimensionError("LP: cols(A) != size(c)");
  if (a.rows() == 0 || a.cols() == 0)
    throw DimensionError("LP: empty constraint matrix");
}

double LinearProgram::objective(std::span<const double> x) const {
  return dot(c, x);
}

LinearProgram LinearProgram::dual() const {
  validate();
  LinearProgram d;
  d.a = a.transposed().scaled(-1.0);
  d.b = memlp::scaled(c, -1.0);
  d.c = memlp::scaled(b, -1.0);
  return d;
}

double LinearProgram::primal_infeasibility(std::span<const double> x,
                                           std::span<const double> w) const {
  MEMLP_EXPECT(x.size() == num_variables() && w.size() == num_constraints());
  const Vec ax = a.multiply(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    worst = std::max(worst, std::abs(ax[i] + w[i] - b[i]));
  return worst;
}

double LinearProgram::dual_infeasibility(std::span<const double> y,
                                         std::span<const double> z) const {
  MEMLP_EXPECT(y.size() == num_constraints() && z.size() == num_variables());
  const Vec aty = a.multiply_transposed(y);
  double worst = 0.0;
  for (std::size_t j = 0; j < c.size(); ++j)
    worst = std::max(worst, std::abs(aty[j] - z[j] - c[j]));
  return worst;
}

double LinearProgram::duality_gap(std::span<const double> x,
                                  std::span<const double> z,
                                  std::span<const double> y,
                                  std::span<const double> w) {
  return dot(z, x) + dot(y, w);
}

bool LinearProgram::satisfies_constraints(std::span<const double> x,
                                          double alpha,
                                          double tolerance) const {
  MEMLP_EXPECT(x.size() == num_variables());
  // Fails closed: a NaN or infinite x or A·x is never feasible (every
  // comparison with NaN is false, so the bounds alone would let it pass).
  for (double xj : x)
    if (!std::isfinite(xj) || xj < -tolerance) return false;
  const Vec ax = a.multiply(x);
  // Per-row allowance: (α−1) of the row's own scale, floored at half the
  // problem scale so rows with b_i = 0 (e.g. flow-conservation rows) still
  // admit the hardware's representational error.
  const double b_norm = norm_inf(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double allowance =
        (alpha - 1.0) * std::max(std::abs(b[i]), 0.5 * b_norm);
    if (!std::isfinite(ax[i]) || !(ax[i] <= b[i] + allowance + tolerance))
      return false;
  }
  return true;
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
    case SolveStatus::kNumericalFailure:
      return "numerical-failure";
  }
  return "unknown";
}

}  // namespace memlp::lp
