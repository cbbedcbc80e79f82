// Tests for the LP problem type: validation, dual, residuals, α-check.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "lp/problem.hpp"
#include "lp/result.hpp"

namespace memlp::lp {
namespace {

LinearProgram tiny() {
  // max x1 + 2 x2  s.t.  x1 + x2 <= 4, x2 <= 3, x >= 0.
  LinearProgram lp;
  lp.a = Matrix{{1, 1}, {0, 1}};
  lp.b = {4, 3};
  lp.c = {1, 2};
  return lp;
}

TEST(Problem, ValidateAcceptsConsistentShapes) {
  EXPECT_NO_THROW(tiny().validate());
}

TEST(Problem, ValidateRejectsMismatches) {
  LinearProgram lp = tiny();
  lp.b.push_back(1.0);
  EXPECT_THROW(lp.validate(), DimensionError);
  lp = tiny();
  lp.c.pop_back();
  EXPECT_THROW(lp.validate(), DimensionError);
  lp = tiny();
  lp.a = Matrix();
  lp.b.clear();
  lp.c.clear();
  EXPECT_THROW(lp.validate(), DimensionError);
}

TEST(Problem, ObjectiveIsDotProduct) {
  EXPECT_DOUBLE_EQ(tiny().objective(Vec{1.0, 3.0}), 7.0);
}

TEST(Problem, DualSwapsShapes) {
  const LinearProgram lp = tiny();
  const LinearProgram dual = lp.dual();
  EXPECT_EQ(dual.num_constraints(), lp.num_variables());
  EXPECT_EQ(dual.num_variables(), lp.num_constraints());
  // Dual of max cᵀx s.t. Ax<=b is min bᵀy s.t. Aᵀy>=c, recast as
  // max (−b)ᵀy s.t. (−Aᵀ)y <= −c.
  EXPECT_DOUBLE_EQ(dual.a(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(dual.a(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(dual.b[0], -1.0);
  EXPECT_DOUBLE_EQ(dual.c[0], -4.0);
}

TEST(Problem, DualOfDualIsPrimal) {
  const LinearProgram lp = tiny();
  const LinearProgram again = lp.dual().dual();
  EXPECT_EQ(again.a, lp.a);
  EXPECT_EQ(again.b, lp.b);
  EXPECT_EQ(again.c, lp.c);
}

TEST(Problem, PrimalInfeasibilityMeasuresResidual) {
  const LinearProgram lp = tiny();
  // x = (1,1), w = (2,2): Ax + w − b = (1+1+2−4, 1+2−3) = (0, 0).
  EXPECT_DOUBLE_EQ(lp.primal_infeasibility(Vec{1, 1}, Vec{2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(lp.primal_infeasibility(Vec{1, 1}, Vec{2, 3}), 1.0);
}

TEST(Problem, DualInfeasibilityMeasuresResidual) {
  const LinearProgram lp = tiny();
  // Aᵀy − z − c with y=(1,1), z=(0,0): (1−1, 2−2) = (0,0).
  EXPECT_DOUBLE_EQ(lp.dual_infeasibility(Vec{1, 1}, Vec{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(lp.dual_infeasibility(Vec{1, 0}, Vec{0, 0}), 1.0);
}

TEST(Problem, DualityGap) {
  EXPECT_DOUBLE_EQ(
      LinearProgram::duality_gap(Vec{1, 2}, Vec{3, 4}, Vec{1}, Vec{5}),
      3 + 8 + 5);
}

TEST(Problem, ConstraintCheckHonoursAlpha) {
  const LinearProgram lp = tiny();
  EXPECT_TRUE(lp.satisfies_constraints(Vec{1, 1}));
  EXPECT_FALSE(lp.satisfies_constraints(Vec{5, 5}, 1.02));
  // Slightly over b: rejected at alpha=1+1e-9, accepted at alpha=1.1.
  EXPECT_FALSE(lp.satisfies_constraints(Vec{1.2, 3.0}, 1.0 + 1e-9));
  EXPECT_TRUE(lp.satisfies_constraints(Vec{1.2, 3.0}, 1.1));
}

TEST(Problem, ConstraintCheckRejectsNegativeVariables) {
  const LinearProgram lp = tiny();
  EXPECT_FALSE(lp.satisfies_constraints(Vec{-0.5, 1.0}));
  // Tiny numerical negatives are tolerated.
  EXPECT_TRUE(lp.satisfies_constraints(Vec{-1e-9, 1.0}));
}

TEST(Problem, ConstraintCheckNegativeRhs) {
  LinearProgram lp;
  lp.a = Matrix{{-1.0}};
  lp.b = {-2.0};  // −x <= −2  ⇔  x >= 2
  lp.c = {1.0};
  EXPECT_TRUE(lp.satisfies_constraints(Vec{2.5}, 1.02));
  EXPECT_FALSE(lp.satisfies_constraints(Vec{1.0}, 1.02));
  // α loosens (not tightens) the bound for negative b too.
  EXPECT_TRUE(lp.satisfies_constraints(Vec{1.97}, 1.02));
}

TEST(Problem, ConstraintCheckFailsClosedOnNaN) {
  const LinearProgram lp = tiny();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN or infinite x compares false against every bound.
  EXPECT_FALSE(lp.satisfies_constraints(Vec{nan, 1.0}));
  EXPECT_FALSE(lp.satisfies_constraints(Vec{1.0, nan}, 1.5, 10.0));
  EXPECT_FALSE(lp.satisfies_constraints(Vec{inf, 1.0}));
  // Finite x whose A·x is NaN: 2·1.5e308 overflows to +inf and the second
  // term to −inf, so the row sums to inf − inf.
  LinearProgram overflow;
  overflow.a = Matrix{{2.0, -2.0}};
  overflow.b = {1.0};
  overflow.c = {1.0, 1.0};
  const Vec x{1.5e308, 1.5e308};
  ASSERT_TRUE(std::isnan(overflow.a.multiply(x)[0]));
  EXPECT_FALSE(overflow.satisfies_constraints(x, 2.0, 1e300));
  // ...and a NaN coefficient makes A·x NaN for an ordinary x.
  LinearProgram poisoned = tiny();
  poisoned.a = Matrix{{1.0, nan}, {0.0, 1.0}};
  EXPECT_FALSE(poisoned.satisfies_constraints(Vec{1.0, 1.0}));
}

TEST(SolveStatus, ToStringCoversAll) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
  EXPECT_EQ(to_string(SolveStatus::kNumericalFailure), "numerical-failure");
}

TEST(Result, RelativeErrorDefinition) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(9.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(-9.0, -10.0), 0.1);
  // Small references are floored at 1 to avoid blow-up.
  EXPECT_DOUBLE_EQ(relative_error(0.3, 0.1), 0.2);
}

}  // namespace
}  // namespace memlp::lp
