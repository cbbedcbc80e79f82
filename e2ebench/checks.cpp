#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

namespace e2e {
namespace {

constexpr double kCertifyTol = 1e-7;
constexpr double kNonnegTol = 1e-6;
constexpr double kIdentityTol = 1e-9;

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* format, ...) {
  char line[200];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof line, format, args);
  va_end(args);
  return line;
}

std::vector<double> ax(const Lp& lp, const std::vector<double>& x) {
  std::vector<double> out(lp.m, 0.0);
  for (std::size_t i = 0; i < lp.m; ++i)
    for (std::size_t j = 0; j < lp.n; ++j) out[i] += lp.at(i, j) * x[j];
  return out;
}

std::vector<double> aty(const Lp& lp, const std::vector<double>& y) {
  std::vector<double> out(lp.n, 0.0);
  for (std::size_t i = 0; i < lp.m; ++i)
    for (std::size_t j = 0; j < lp.n; ++j) out[j] += lp.at(i, j) * y[i];
  return out;
}

double max_abs(const std::vector<double>& v) {
  double out = 0.0;
  for (double e : v) out = std::max(out, std::abs(e));
  return out;
}

// Every comparison below is written as !(ok), so a NaN anywhere fails it.

std::string nonnegative(const std::vector<double>& v, const char* name,
                        double tol) {
  for (std::size_t k = 0; k < v.size(); ++k)
    if (!(v[k] >= -tol))
      return fmt("%s[%zu] = %.6g < -%.1g", name, k, v[k], tol);
  return {};
}

}  // namespace

double dot(const std::vector<double>& u, const std::vector<double>& v) {
  double out = 0.0;
  for (std::size_t k = 0; k < u.size(); ++k) out += u[k] * v[k];
  return out;
}

std::string certify_reference(const Lp& lp, const std::vector<double>& x,
                              const std::vector<double>& y) {
  if (x.size() != lp.n || y.size() != lp.m)
    return "reference: x or y has the wrong length";
  if (std::string e = nonnegative(x, "reference x", 1e-9); !e.empty()) return e;
  if (std::string e = nonnegative(y, "reference y", 1e-9); !e.empty()) return e;
  const std::vector<double> row = ax(lp, x);
  for (std::size_t i = 0; i < lp.m; ++i)
    if (!(row[i] <= lp.b[i] + kCertifyTol * (1.0 + std::abs(lp.b[i]))))
      return fmt("reference: primal row %zu: A x = %.10g > b = %.10g", i,
                 row[i], lp.b[i]);
  const std::vector<double> col = aty(lp, y);
  for (std::size_t j = 0; j < lp.n; ++j)
    if (!(col[j] >= lp.c[j] - kCertifyTol * (1.0 + std::abs(lp.c[j]))))
      return fmt("reference: dual column %zu: A'y = %.10g < c = %.10g", j,
                 col[j], lp.c[j]);
  const double primal = dot(lp.c, x);
  const double dual = dot(lp.b, y);
  if (!(std::abs(primal - dual) <= kCertifyTol * (1.0 + std::abs(primal))))
    return fmt("reference: duality gap: c'x = %.12g, b'y = %.12g", primal,
               dual);
  return {};
}

std::string check_feasible(const Lp& lp, const std::vector<double>& x) {
  if (x.size() != lp.n) return "answer: x has the wrong length";
  if (std::string e = nonnegative(x, "answer x", kNonnegTol); !e.empty())
    return e;
  const std::vector<double> row = ax(lp, x);
  const double half_b = 0.5 * max_abs(lp.b);
  for (std::size_t i = 0; i < lp.m; ++i) {
    const double allowance =
        (kFeasibilityAlpha - 1.0) * std::max(std::abs(lp.b[i]), half_b);
    if (!(row[i] <= lp.b[i] + allowance))
      return fmt("answer: row %zu breaks A x <= b + %.2g max(|b_i|, |b|/2): "
                 "A x = %.10g, b = %.10g",
                 i, kFeasibilityAlpha - 1.0, row[i], lp.b[i]);
  }
  return {};
}

std::string check_objective(const Lp& lp, const std::vector<double>& x,
                            double reported_objective, double optimum) {
  if (x.size() != lp.n) return "answer: x has the wrong length";
  const double objective = dot(lp.c, x);
  if (!(std::abs(reported_objective - objective) <=
        1e-9 * (1.0 + std::abs(objective))))
    return fmt("answer: reported objective %.12g != c'x = %.12g",
               reported_objective, objective);
  const double error = std::abs(objective - optimum) /
                       std::max(1.0, std::abs(optimum));
  if (!(error <= kMaxRelError))
    return fmt("answer: objective %.10g is off the optimum %.10g by more "
               "than the error bound",
               objective, optimum);
  return {};
}

double worst_row_excess(const Lp& lp, const std::vector<double>& x) {
  const std::vector<double> row = ax(lp, x);
  const double half_b = 0.5 * max_abs(lp.b);
  double worst = 0.0;
  for (std::size_t i = 0; i < lp.m; ++i)
    worst = std::max(worst,
                     (row[i] - lp.b[i]) / std::max(std::abs(lp.b[i]), half_b));
  return worst;
}

std::string check_ledger_identity(double ledger_energy_j,
                                  double estimate_energy_j) {
  const double scale = std::max(std::abs(estimate_energy_j), 1e-300);
  if (!(std::abs(ledger_energy_j - estimate_energy_j) <= kIdentityTol * scale))
    return fmt("ledger: priced energy %.17g J != estimate %.17g J",
               ledger_energy_j, estimate_energy_j);
  return {};
}

std::string digest(const std::string& status, std::size_t iterations,
                   double energy_j, const std::vector<double>& x) {
  char field[64];
  std::string out = status + " " + std::to_string(iterations);
  std::snprintf(field, sizeof field, " %a", energy_j);
  out += field;
  for (double v : x) {
    std::snprintf(field, sizeof field, " %a", v);
    out += field;
  }
  return out;
}

std::string check_digests_equal(const std::string& pinned,
                                const std::string& single_thread) {
  if (pinned.empty() || pinned != single_thread)
    return "thread identity: the pinned-thread solve differs from the "
           "1-thread solve";
  return {};
}

std::vector<std::string> self_test(const Lp& lp, const std::vector<double>& x,
                                   const std::vector<double>& y) {
  std::vector<std::string> failures;
  const auto expect = [&failures](const std::string& verdict, bool accept,
                                  const char* what) {
    if (verdict.empty() != accept)
      failures.push_back(std::string(accept ? "rejected " : "accepted ") +
                         what);
  };
  const auto scaled = [](std::vector<double> v, double factor) {
    for (double& e : v) e *= factor;
    return v;
  };
  const double opt = dot(lp.c, x);

  expect(certify_reference(lp, x, y), true, "the certified reference");
  expect(certify_reference(lp, scaled(x, 1.1), y), false,
         "a reference with x scaled by 1.1");
  std::vector<double> flipped = y;
  double& largest = *std::max_element(flipped.begin(), flipped.end());
  largest = -largest;
  expect(certify_reference(lp, x, flipped), false,
         "a reference with a flipped dual sign");

  expect(check_feasible(lp, x), true, "the optimum as a feasible answer");
  // Raise the variable with the largest entry of the row with the largest
  // b until that row exceeds b by 1.01 times its allowance.
  const std::size_t i = static_cast<std::size_t>(
      std::max_element(lp.b.begin(), lp.b.end()) - lp.b.begin());
  std::size_t j = 0;
  for (std::size_t k = 0; k < lp.n; ++k)
    if (lp.at(i, k) > lp.at(i, j)) j = k;
  const double allowance = (kFeasibilityAlpha - 1.0) *
                           std::max(std::abs(lp.b[i]), 0.5 * max_abs(lp.b));
  double row = 0.0;
  for (std::size_t k = 0; k < lp.n; ++k) row += lp.at(i, k) * x[k];
  std::vector<double> pushed = x;
  pushed[j] += (lp.b[i] + 1.01 * allowance - row) / lp.at(i, j);
  expect(check_feasible(lp, pushed), false,
         "an answer with one row 1.01 times its allowance past b");
  std::vector<double> negative = x;
  negative[0] = -1e-3;
  expect(check_feasible(lp, negative), false, "an answer with x < 0");
  std::vector<double> nan = x;
  nan[0] = std::numeric_limits<double>::quiet_NaN();
  expect(check_feasible(lp, nan), false, "an answer with NaN (feasibility)");

  expect(check_objective(lp, x, opt, opt), true, "the optimum's objective");
  const std::vector<double> small = scaled(x, 0.8);
  expect(check_objective(lp, small, dot(lp.c, small), opt), false,
         "an answer with x scaled by 0.8");
  expect(check_objective(lp, x, 1.01 * opt, opt), false,
         "an answer whose reported objective is not c'x");
  expect(check_objective(lp, nan, opt, opt), false,
         "an answer with NaN (objective)");

  expect(check_ledger_identity(1.0, 1.0), true, "equal energies");
  expect(check_ledger_identity(1.0 + 1e-6, 1.0), false, "energies 1e-6 apart");

  const std::string base = digest("optimal", 10, 1.0, x);
  std::vector<double> bit = x;
  std::uint64_t word = 0;
  std::memcpy(&word, &bit[0], sizeof word);
  word ^= 1U;
  std::memcpy(&bit[0], &word, sizeof word);
  expect(check_digests_equal(base, base), true, "equal digests");
  expect(check_digests_equal(base, digest("optimal", 10, 1.0, bit)), false,
         "digests one bit of x apart");
  return failures;
}

}  // namespace e2e
