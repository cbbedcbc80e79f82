#include "lp/mps.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/ops.hpp"
#include "linalg/sparse.hpp"
#include "lp/number.hpp"

namespace memlp::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string location(const std::string& file, std::size_t line) {
  std::ostringstream os;
  os << file << ":" << line << ": ";
  return os.str();
}

/// A declared constraint row (everything except the single N row).
struct MpsRow {
  char type = 'L';  // 'L', 'G', or 'E'
  std::string name;
  double rhs = 0.0;
  bool has_range = false;
  double range = 0.0;
};

/// A BOUNDS entry, applied after all columns are known.
struct MpsBound {
  char type = 'U';  // 'U' (UP), 'L' (LO), 'X' (FX)
  std::size_t column = 0;
  double value = 0.0;
  std::size_t line = 0;
};

enum class Section {
  kNone,
  kObjsense,
  kRows,
  kColumns,
  kRhs,
  kRanges,
  kBounds,
  kDone,
};

struct Parser {
  Parser(std::istream& stream, const std::string& filename)
      : in(stream), file(filename) {}

  std::istream& in;
  const std::string& file;
  std::size_t line_number = 0;
  std::string line;

  MpsModel model;
  std::vector<MpsRow> rows;                  // constraint rows, declared order
  std::unordered_map<std::string, std::size_t> row_index;
  std::unordered_map<std::string, std::size_t> column_index;
  Vec c;                                     // objective as written
  bool have_objective_row = false;
  // A entries as (constraint-row, column, value) in declared coordinates.
  std::vector<CsrMatrix::Triplet> entries;
  std::vector<MpsBound> bounds;

  [[noreturn]] void fail(MpsError::Kind kind, const std::string& message) {
    throw MpsError(kind, file, line_number, message);
  }

  double number(const std::string& token) {
    // Accept Fortran 'D' exponents, which old netlib files use.
    std::string cleaned = token;
    for (char& ch : cleaned)
      if (ch == 'D' || ch == 'd') ch = 'e';
    const std::optional<double> value = parse_finite(cleaned);
    if (!value) fail(MpsError::Kind::kNumber, "bad number '" + token + "'");
    return *value;
  }

  std::size_t constraint_row(const std::string& name) {
    const auto it = row_index.find(name);
    if (it == row_index.end())
      fail(MpsError::Kind::kUnknownName, "unknown row '" + name + "'");
    return it->second;
  }

  std::size_t column(const std::string& name) {
    const auto it = column_index.find(name);
    if (it == column_index.end())
      fail(MpsError::Kind::kUnknownName, "unknown column '" + name + "'");
    return it->second;
  }

  void parse();
  void parse_objsense(const std::vector<std::string>& tokens);
  void parse_row(const std::vector<std::string>& tokens);
  void parse_column(const std::vector<std::string>& tokens);
  void parse_value_pairs(const std::vector<std::string>& tokens, bool ranges);
  void parse_bound(const std::vector<std::string>& tokens);
  MpsModel build(std::size_t end_line);
};

void Parser::parse_objsense(const std::vector<std::string>& tokens) {
  if (tokens.size() != 1)
    fail(MpsError::Kind::kSyntax, "OBJSENSE expects one token");
  if (tokens[0] == "MAX" || tokens[0] == "MAXIMIZE") {
    model.maximize = true;
  } else if (tokens[0] == "MIN" || tokens[0] == "MINIMIZE") {
    model.maximize = false;
  } else {
    fail(MpsError::Kind::kSyntax, "bad OBJSENSE '" + tokens[0] + "'");
  }
}

void Parser::parse_row(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2)
    fail(MpsError::Kind::kSyntax,
         "ROWS line expects 'type name', got " +
             std::to_string(tokens.size()) + " tokens");
  std::string type = tokens[0];
  std::transform(type.begin(), type.end(), type.begin(),
                 [](unsigned char ch) { return std::toupper(ch); });
  const std::string& name = tokens[1];
  if (type == "N") {
    if (have_objective_row)
      fail(MpsError::Kind::kUnsupported,
           "multiple N rows ('" + model.objective_name + "' and '" + name +
               "')");
    have_objective_row = true;
    model.objective_name = name;
    return;
  }
  if (type != "L" && type != "G" && type != "E")
    fail(MpsError::Kind::kSyntax, "bad row type '" + tokens[0] + "'");
  if (name == model.objective_name ||
      row_index.find(name) != row_index.end())
    fail(MpsError::Kind::kSyntax, "duplicate row '" + name + "'");
  row_index.emplace(name, rows.size());
  rows.push_back({type[0], name, 0.0, false, 0.0});
}

void Parser::parse_column(const std::vector<std::string>& tokens) {
  for (const std::string& token : tokens)
    if (!token.empty() && token.front() == '\'')
      fail(MpsError::Kind::kUnsupported,
           "integrality markers are not supported (LP solver)");
  if (tokens.size() < 3 || tokens.size() % 2 == 0)
    fail(MpsError::Kind::kSyntax,
         "COLUMNS line expects 'column (row value)+'");
  const std::string& col_name = tokens[0];
  std::size_t col = 0;
  if (const auto it = column_index.find(col_name);
      it != column_index.end()) {
    col = it->second;
  } else {
    col = model.variable_names.size();
    column_index.emplace(col_name, col);
    model.variable_names.push_back(col_name);
    c.push_back(0.0);
  }
  for (std::size_t k = 1; k + 1 < tokens.size(); k += 2) {
    const std::string& row_name = tokens[k];
    const double value = number(tokens[k + 1]);
    if (have_objective_row && row_name == model.objective_name) {
      c[col] += value;
      continue;
    }
    entries.push_back({constraint_row(row_name), col, value});
  }
}

void Parser::parse_value_pairs(const std::vector<std::string>& tokens,
                               bool ranges) {
  // Standard layout: 'setname (row value)+'. Some writers omit the set
  // name; detect that by an even token count whose first token names a row.
  std::size_t first = 1;
  if (tokens.size() % 2 == 0 &&
      (row_index.find(tokens[0]) != row_index.end() ||
       tokens[0] == model.objective_name))
    first = 0;
  if (tokens.size() < first + 2 || (tokens.size() - first) % 2 != 0)
    fail(MpsError::Kind::kSyntax, ranges
                                      ? "RANGES line expects 'set (row value)+'"
                                      : "RHS line expects 'set (row value)+'");
  for (std::size_t k = first; k + 1 < tokens.size(); k += 2) {
    const std::string& row_name = tokens[k];
    const double value = number(tokens[k + 1]);
    if (have_objective_row && row_name == model.objective_name) {
      if (ranges)
        fail(MpsError::Kind::kUnsupported, "RANGES on the objective row");
      model.objective_rhs = value;
      continue;
    }
    MpsRow& row = rows[constraint_row(row_name)];
    if (ranges) {
      row.has_range = true;
      row.range = value;
    } else {
      row.rhs = value;
    }
  }
}

void Parser::parse_bound(const std::vector<std::string>& tokens) {
  if (tokens.empty()) fail(MpsError::Kind::kSyntax, "empty BOUNDS line");
  std::string type = tokens[0];
  std::transform(type.begin(), type.end(), type.begin(),
                 [](unsigned char ch) { return std::toupper(ch); });
  const bool valued = type == "UP" || type == "LO" || type == "FX";
  const bool valueless = type == "FR" || type == "MI" || type == "PL" ||
                         type == "BV";
  if (!valued && !valueless && type != "UI" && type != "LI")
    fail(MpsError::Kind::kSyntax, "bad bound type '" + tokens[0] + "'");
  if (type == "FR" || type == "MI")
    fail(MpsError::Kind::kUnsupported,
         "bound " + type + " leaves the x >= 0 orthant (canonical form)");
  if (type == "BV" || type == "UI" || type == "LI")
    fail(MpsError::Kind::kUnsupported,
         "integer bound " + type + " is not supported (LP solver)");

  // Layout: 'type setname column [value]', with the set name optional.
  const std::size_t expect = valued ? 4 : 3;
  std::size_t col_at = expect - (valued ? 2 : 1);
  if (tokens.size() == expect - 1) col_at -= 1;  // set name omitted
  else if (tokens.size() != expect)
    fail(MpsError::Kind::kSyntax, "malformed " + type + " bound line");

  if (type == "PL") return;  // x_j <= +inf: the canonical default
  const std::size_t col = column(tokens[col_at]);
  const double value = number(tokens[col_at + 1]);
  if (value < 0.0)
    fail(MpsError::Kind::kUnsupported,
         "negative " + type + " bound leaves the x >= 0 orthant");
  bounds.push_back({type == "UP" ? 'U' : type == "LO" ? 'L' : 'X', col,
                    value, line_number});
}

void Parser::parse() {
  Section section = Section::kNone;
  while (section != Section::kDone && std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '*') continue;
    if (const auto end = line.find_last_not_of(" \t\r");
        end == std::string::npos)
      continue;
    std::istringstream words(line);
    std::vector<std::string> tokens;
    for (std::string token; words >> token;) tokens.push_back(token);

    const bool header = line[0] != ' ' && line[0] != '\t';
    if (header) {
      const std::string& keyword = tokens[0];
      if (keyword == "NAME") {
        if (tokens.size() > 1) model.name = tokens[1];
      } else if (keyword == "OBJSENSE") {
        if (tokens.size() > 1)
          parse_objsense({tokens.begin() + 1, tokens.end()});
        else
          section = Section::kObjsense;
        continue;
      } else if (keyword == "ROWS") {
        section = Section::kRows;
      } else if (keyword == "COLUMNS") {
        section = Section::kColumns;
      } else if (keyword == "RHS") {
        section = Section::kRhs;
      } else if (keyword == "RANGES") {
        section = Section::kRanges;
      } else if (keyword == "BOUNDS") {
        section = Section::kBounds;
      } else if (keyword == "ENDATA") {
        section = Section::kDone;
      } else {
        fail(MpsError::Kind::kSection,
             "unknown section '" + keyword + "'");
      }
      continue;
    }

    switch (section) {
      case Section::kObjsense:
        parse_objsense(tokens);
        section = Section::kNone;
        break;
      case Section::kRows:
        parse_row(tokens);
        break;
      case Section::kColumns:
        parse_column(tokens);
        break;
      case Section::kRhs:
        parse_value_pairs(tokens, /*ranges=*/false);
        break;
      case Section::kRanges:
        parse_value_pairs(tokens, /*ranges=*/true);
        break;
      case Section::kBounds:
        parse_bound(tokens);
        break;
      case Section::kNone:
      case Section::kDone:
        fail(MpsError::Kind::kSection, "data line outside any section");
    }
  }
}

MpsModel Parser::build(std::size_t end_line) {
  line_number = end_line;
  if (!have_objective_row)
    fail(MpsError::Kind::kSection, "no objective (N) row declared");
  if (rows.empty())
    fail(MpsError::Kind::kSection, "no constraint rows declared");
  if (model.variable_names.empty())
    fail(MpsError::Kind::kSection, "COLUMNS section missing or empty");

  // Interval per declared row, then one canonical (<=) row per finite side.
  const std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> upper_row(rows.size(), kNone);
  std::vector<std::size_t> lower_row(rows.size(), kNone);
  Vec b;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MpsRow& row = rows[i];
    double lo = -kInf;
    double up = kInf;
    switch (row.type) {
      case 'L':
        up = row.rhs;
        if (row.has_range) lo = row.rhs - std::abs(row.range);
        break;
      case 'G':
        lo = row.rhs;
        if (row.has_range) up = row.rhs + std::abs(row.range);
        break;
      default:  // 'E'
        lo = up = row.rhs;
        if (row.has_range) {
          if (row.range >= 0.0) up = row.rhs + row.range;
          else lo = row.rhs + row.range;
        }
        break;
    }
    if (up < kInf) {
      upper_row[i] = b.size();
      b.push_back(up);
    }
    if (lo > -kInf) {
      lower_row[i] = b.size();
      b.push_back(-lo);
    }
  }

  std::vector<CsrMatrix::Triplet> triplets;
  triplets.reserve(2 * entries.size() + bounds.size() + 1);
  for (const auto& entry : entries) {
    if (upper_row[entry.row] != kNone)
      triplets.push_back({upper_row[entry.row], entry.col, entry.value});
    if (lower_row[entry.row] != kNone)
      triplets.push_back({lower_row[entry.row], entry.col, -entry.value});
  }
  for (const MpsBound& bound : bounds) {
    if (bound.type == 'U' || bound.type == 'X') {
      triplets.push_back({b.size(), bound.column, 1.0});
      b.push_back(bound.value);
    }
    if (bound.type == 'L' || bound.type == 'X') {
      // LO 0 is the canonical default; emitting it would add a vacuous row.
      if (bound.value > 0.0 || bound.type == 'X') {
        triplets.push_back({b.size(), bound.column, -1.0});
        b.push_back(-bound.value);
      }
    }
  }
  if (b.empty())
    fail(MpsError::Kind::kUnsupported,
         "no finite constraints after conversion");

  model.problem.a = CsrMatrix::from_triplets(
      b.size(), model.variable_names.size(), std::move(triplets));
  model.problem.b = std::move(b);
  model.problem.c = model.maximize ? c : memlp::scaled(c, -1.0);
  model.problem.validate();
  return std::move(model);
}

}  // namespace

MpsError::MpsError(Kind kind, const std::string& file, std::size_t line,
                   const std::string& message)
    : Error(location(file, line) + message), kind_(kind), line_(line) {}

double MpsModel::original_objective(std::span<const double> x) const {
  const double canonical = problem.objective(x);
  return (maximize ? canonical : -canonical) - objective_rhs;
}

MpsModel read_mps(std::istream& in, const std::string& filename) {
  Parser parser{in, filename};
  parser.parse();
  return parser.build(parser.line_number);
}

MpsModel read_mps_file(const std::string& path) {
  std::ifstream file(path);
  if (!file)
    throw MpsError(MpsError::Kind::kSyntax, path, 0, "cannot open file");
  return read_mps(file, path);
}

std::string to_mps(const LinearProgram& problem, const std::string& name) {
  problem.validate();
  std::ostringstream os;
  os.precision(17);
  const std::size_t m = problem.num_constraints();
  const std::size_t n = problem.num_variables();
  const auto row_name = [](std::size_t i) {
    return "R" + std::to_string(i + 1);
  };
  const auto col_name = [](std::size_t j) {
    return "X" + std::to_string(j + 1);
  };
  os << "NAME          " << name << "\n";
  os << "OBJSENSE MAX\n";
  os << "ROWS\n N  COST\n";
  for (std::size_t i = 0; i < m; ++i) os << " L  " << row_name(i) << "\n";
  os << "COLUMNS\n";
  // Column j's entries are row j of Aᵀ. Every column gets a COST entry
  // (even a zero one) so the reader recreates the exact column order.
  const CsrMatrix at = problem.a.csr().transposed();
  const auto offsets = at.row_offsets();
  const auto cols = at.column_indices();
  const auto values = at.values();
  for (std::size_t j = 0; j < n; ++j) {
    os << "    " << col_name(j) << "  COST  " << problem.c[j] << "\n";
    for (std::size_t k = offsets[j]; k < offsets[j + 1]; ++k)
      os << "    " << col_name(j) << "  " << row_name(cols[k]) << "  "
         << values[k] << "\n";
  }
  os << "RHS\n";
  for (std::size_t i = 0; i < m; ++i)
    if (problem.b[i] != 0.0)
      os << "    RHS  " << row_name(i) << "  " << problem.b[i] << "\n";
  os << "ENDATA\n";
  return os.str();
}

}  // namespace memlp::lp
