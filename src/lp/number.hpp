// Strict number parsing shared by the LP readers (MPS and the text format).
#pragma once

#include <optional>
#include <string>

namespace memlp::lp {

/// Parses the whole of `token` as a finite double. Representable subnormals
/// (e.g. 1e-320) are accepted; NaN, ±inf, values that overflow to ±inf or
/// underflow to zero from a nonzero token, and trailing characters are
/// rejected (nullopt).
[[nodiscard]] std::optional<double> parse_finite(const std::string& token);

}  // namespace memlp::lp
