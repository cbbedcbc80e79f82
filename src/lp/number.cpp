#include "lp/number.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace memlp::lp {

std::optional<double> parse_finite(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  // strtod flags subnormal results with ERANGE too; only an underflow all
  // the way to zero loses the value.
  const bool underflow = errno == ERANGE && value == 0.0;
  if (end != token.c_str() + token.size() || underflow ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

}  // namespace memlp::lp
