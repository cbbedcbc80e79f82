// The benchmark's own inputs: a seeded generator for the three LP families
// it runs, an MPS writer, and the workload table.
//
// None of this calls into memlp: an edit to src/lp's generators or to its
// MPS writer cannot change what the benchmark feeds the solver. The program
// under test only ever sees the MPS bytes written here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// xoshiro256** seeded through splitmix64. Its output is fixed by its
/// definition, not by a standard library, so a seed names the same LPs on
/// every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t s_[4];
};

/// max cᵀx s.t. A·x ≤ b, x ≥ 0, with A stored dense row-major (zeros
/// included, so the sparse families keep their pattern exactly).
struct Lp {
  std::string family;  ///< "dense", "block-diagonal" or "banded"
  std::size_t m = 0;
  std::size_t n = 0;
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return a[i * n + j];
  }
};

// Every family follows the same recipe, which makes each LP feasible and
// bounded: entries of magnitude U(0.1, 1) with 30% negative signs, every
// column sum raised to at least 0.2 by boosting an entry inside the
// family's pattern, a known interior point x* ~ U(0.5, 2), b = A·x* + U(0.5,
// 2) and c ~ U(0.1, 1).

/// Dense m×(m/3) LP, the paper's random-feasible family.
Lp dense_lp(std::size_t m, Rng& rng);
/// `blocks` dense blocks of block_rows×block_cols on the diagonal.
Lp block_diagonal_lp(std::size_t blocks, std::size_t block_rows,
                     std::size_t block_cols, Rng& rng);
/// m×(m/3) LP whose row i touches the columns within `half_width` of
/// i·n/m.
Lp banded_lp(std::size_t m, std::size_t half_width, Rng& rng);

/// Free-format MPS text of `lp` with OBJSENSE MAX, numbers written with 17
/// significant digits so they read back to the same doubles.
std::string to_mps(const Lp& lp, const std::string& name);

/// One benchmark workload: which registered solver runs, on which array
/// size, over which instances.
struct Workload {
  std::string name;
  std::string solver;      ///< registry name: "xbar" or "ls"
  std::size_t max_dim = 0; ///< crossbar array size; 0 = one array of any size
  std::size_t instances = 0;
};

/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);
/// Names of every workload, comma-joined (for usage messages).
std::string workload_names();

/// The instances of one round of `workload` for benchmark seed `seed`. The
/// same seed always gives the same LPs.
std::vector<Lp> make_instances(const Workload& workload, std::uint64_t seed);

}  // namespace e2e
