#include "lp/text_format.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "lp/number.hpp"

namespace memlp::lp {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  std::ostringstream os;
  os << "lp text format: line " << line << ": " << message;
  throw ParseError(os.str());
}

/// Strips comments and whitespace; returns false for blank lines.
bool clean_line(std::string& line) {
  if (const auto hash = line.find('#'); hash != std::string::npos)
    line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) {
    line.clear();
    return false;
  }
  const auto last = line.find_last_not_of(" \t\r");
  line = line.substr(first, last - first + 1);
  return true;
}

double parse_number(const std::string& token, std::size_t line) {
  const std::optional<double> value = parse_finite(token);
  if (!value) fail(line, "bad number '" + token + "'");
  return *value;
}

}  // namespace

std::string to_text(const LinearProgram& problem) {
  problem.validate();
  std::ostringstream os;
  os.precision(17);
  os << "memlp-lp 1\n";
  os << "variables " << problem.num_variables() << "\n";
  os << "maximize";
  for (double c : problem.c) os << ' ' << c;
  os << "\n";
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    for (std::size_t j = 0; j < problem.num_variables(); ++j)
      os << problem.a(i, j) << ' ';
    os << "<= " << problem.b[i] << "\n";
  }
  return os.str();
}

LinearProgram from_text(const std::string& text) {
  std::istringstream in(text);
  return read_text(in);
}

void write_text(std::ostream& out, const LinearProgram& problem) {
  out << to_text(problem);
}

LinearProgram read_text(std::istream& in) {
  std::string line;
  std::size_t line_number = 0;
  const auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_number;
      if (clean_line(line)) return true;
    }
    return false;
  };

  if (!next_line() || line != "memlp-lp 1")
    fail(line_number, "expected header 'memlp-lp 1'");

  if (!next_line()) fail(line_number, "expected 'variables N'");
  std::istringstream vars(line);
  std::string keyword;
  std::size_t n = 0;
  vars >> keyword >> n;
  if (keyword != "variables" || n == 0 || vars.fail())
    fail(line_number, "expected 'variables N' with N >= 1");

  if (!next_line()) fail(line_number, "expected 'maximize c1 ... cN'");
  std::istringstream objective(line);
  objective >> keyword;
  if (keyword != "maximize") fail(line_number, "expected 'maximize'");
  LinearProgram problem;
  problem.c.reserve(n);
  std::string token;
  while (objective >> token)
    problem.c.push_back(parse_number(token, line_number));
  if (problem.c.size() != n)
    fail(line_number, "objective has " + std::to_string(problem.c.size()) +
                          " coefficients, expected " + std::to_string(n));

  std::vector<Vec> rows;
  while (next_line()) {
    std::istringstream row(line);
    Vec coefficients;
    bool saw_relation = false;
    while (row >> token) {
      if (token == "<=") {
        saw_relation = true;
        break;
      }
      coefficients.push_back(parse_number(token, line_number));
    }
    if (!saw_relation) fail(line_number, "constraint row missing '<='");
    if (coefficients.size() != n)
      fail(line_number, "constraint has " +
                            std::to_string(coefficients.size()) +
                            " coefficients, expected " + std::to_string(n));
    if (!(row >> token)) fail(line_number, "missing right-hand side");
    problem.b.push_back(parse_number(token, line_number));
    if (row >> token) fail(line_number, "trailing token '" + token + "'");
    rows.push_back(std::move(coefficients));
  }
  if (rows.empty()) fail(line_number, "no constraint rows");

  Matrix a(rows.size(), n);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rows[i][j];
  problem.a = std::move(a);
  problem.validate();
  return problem;
}

}  // namespace memlp::lp
