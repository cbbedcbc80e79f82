// Tests for the LP text format.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/rng.hpp"
#include "lp/generator.hpp"
#include "lp/text_format.hpp"
#include "solvers/simplex.hpp"

namespace memlp::lp {
namespace {

LinearProgram textbook() {
  LinearProgram problem;
  problem.a = Matrix{{1, 0}, {0, 2}, {3, 2}};
  problem.b = {4, 12, 18};
  problem.c = {3, 5};
  return problem;
}

TEST(TextFormat, RoundTripsTextbookProblem) {
  const auto problem = textbook();
  const auto parsed = from_text(to_text(problem));
  EXPECT_EQ(parsed.a, problem.a);
  EXPECT_EQ(parsed.b, problem.b);
  EXPECT_EQ(parsed.c, problem.c);
}

TEST(TextFormat, ParsesHandWrittenInput) {
  const std::string text = R"(# a comment
memlp-lp 1
variables 2

maximize 3 5          # objective
1 0 <= 4
0 2 <= 12             # capacity
3 2 <= 18
)";
  const auto problem = from_text(text);
  EXPECT_EQ(problem.num_variables(), 2u);
  EXPECT_EQ(problem.num_constraints(), 3u);
  EXPECT_DOUBLE_EQ(problem.a(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(problem.b[1], 12.0);
  const auto result = solvers::solve_simplex(problem);
  EXPECT_NEAR(result.objective, 36.0, 1e-9);
}

TEST(TextFormat, PreservesNegativeAndFractionalValues) {
  LinearProgram problem;
  problem.a = Matrix{{-1.5, 0.25}, {1e-7, -3.14159265358979}};
  problem.b = {-2.5, 1e6};
  problem.c = {0.1, -0.2};
  const auto parsed = from_text(to_text(problem));
  EXPECT_EQ(parsed.a, problem.a);
  EXPECT_EQ(parsed.b, problem.b);
  EXPECT_EQ(parsed.c, problem.c);
}

class TextFormatRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TextFormatRoundTrip, RandomProblemsSurvive) {
  Rng rng(900 + GetParam());
  GeneratorOptions options;
  options.constraints = GetParam();
  const auto problem = random_feasible(options, rng);
  const auto parsed = from_text(to_text(problem));
  EXPECT_EQ(parsed.a, problem.a);
  EXPECT_EQ(parsed.b, problem.b);
  EXPECT_EQ(parsed.c, problem.c);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TextFormatRoundTrip,
                         ::testing::Values(4, 16, 48));

TEST(TextFormat, RejectsMissingHeader) {
  EXPECT_THROW(from_text("variables 2\nmaximize 1 1\n1 1 <= 2\n"),
               ParseError);
}

TEST(TextFormat, RejectsWrongCoefficientCount) {
  EXPECT_THROW(from_text("memlp-lp 1\nvariables 2\nmaximize 1\n1 1 <= 2\n"),
               ParseError);
  EXPECT_THROW(
      from_text("memlp-lp 1\nvariables 2\nmaximize 1 1\n1 <= 2\n"),
      ParseError);
}

TEST(TextFormat, RejectsMissingRelationOrRhs) {
  EXPECT_THROW(from_text("memlp-lp 1\nvariables 1\nmaximize 1\n2 4\n"),
               ParseError);
  EXPECT_THROW(from_text("memlp-lp 1\nvariables 1\nmaximize 1\n2 <=\n"),
               ParseError);
}

TEST(TextFormat, RejectsGarbageNumbersWithLineInfo) {
  try {
    from_text("memlp-lp 1\nvariables 1\nmaximize 1\nfoo <= 2\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(TextFormat, RejectsNonFiniteNumbers) {
  for (const char* value : {"nan", "inf", "-inf", "infinity", "1e400",
                            "1e-400"}) {
    try {
      from_text(std::string("memlp-lp 1\nvariables 1\nmaximize 1\n") + value +
                " <= 2\n");
      ADD_FAILURE() << value << " should have thrown";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << value;
    }
  }
}

TEST(TextFormat, AcceptsSubnormalNumbers) {
  const auto problem =
      from_text("memlp-lp 1\nvariables 1\nmaximize 1\n1e-320 <= 2\n");
  EXPECT_GT(problem.a(0, 0), 0.0);
  EXPECT_LT(problem.a(0, 0), std::numeric_limits<double>::min());
}

TEST(TextFormat, RejectsEmptyConstraintSet) {
  EXPECT_THROW(from_text("memlp-lp 1\nvariables 1\nmaximize 1\n"),
               ParseError);
}

TEST(TextFormat, RejectsTrailingTokens) {
  EXPECT_THROW(
      from_text("memlp-lp 1\nvariables 1\nmaximize 1\n1 <= 2 3\n"),
      ParseError);
}

}  // namespace
}  // namespace memlp::lp
