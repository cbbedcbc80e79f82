#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

double signed_entry(Rng& rng) {
  const double magnitude = rng.uniform(0.1, 1.0);
  return rng.uniform() < 0.3 ? -magnitude : magnitude;
}

/// Raises every column sum to at least 0.2 by boosting entries of the
/// column's own pattern (rows[j] lists the rows column j may use), so y = t·1
/// is dual feasible for large t and the LP is bounded.
void raise_column_sums(Lp& lp,
                       const std::vector<std::vector<std::size_t>>& rows,
                       Rng& rng) {
  for (std::size_t j = 0; j < lp.n; ++j) {
    double sum = 0.0;
    for (std::size_t i : rows[j]) sum += lp.a[i * lp.n + j];
    while (sum < 0.2) {
      double& entry = lp.a[rows[j][rng.below(rows[j].size())] * lp.n + j];
      sum -= entry;
      entry = std::abs(entry) + rng.uniform(0.5, 1.0);
      sum += entry;
    }
  }
}

/// b = A·x* + U(0.5, 2) for an interior x* ~ U(0.5, 2), and c ~ U(0.1, 1).
void close_lp(Lp& lp, Rng& rng) {
  std::vector<double> interior(lp.n);
  for (double& v : interior) v = rng.uniform(0.5, 2.0);
  lp.b.assign(lp.m, 0.0);
  for (std::size_t i = 0; i < lp.m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < lp.n; ++j) row += lp.at(i, j) * interior[j];
    lp.b[i] = row + rng.uniform(0.5, 2.0);
  }
  lp.c.resize(lp.n);
  for (double& v : lp.c) v = rng.uniform(0.1, 1.0);
}

Lp empty_lp(const char* family, std::size_t m, std::size_t n) {
  Lp lp;
  lp.family = family;
  lp.m = m;
  lp.n = n;
  lp.a.assign(m * n, 0.0);
  return lp;
}

// Why these workloads: xbar-dense is the paper's Algorithm 1 on its own
// problem family, where host time is the dense settle; ls-dense runs the
// same layers through Algorithm 2, whose modelled cost is one-off
// programming; xbar-sparse-noc is the only one below the dense-dispatch
// density cutoff and the only one that maps onto a NoC of 128-wide arrays.
const Workload kWorkloads[] = {
    {"xbar-dense", "xbar", 0, 36},
    {"ls-dense", "ls", 0, 40},
    {"xbar-sparse-noc", "xbar", 128, 14},
};

}  // namespace

Rng::Rng(std::uint64_t seed) : s_{} {
  std::uint64_t state = seed;
  for (std::uint64_t& word : s_) word = splitmix64(state);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

Lp dense_lp(std::size_t m, Rng& rng) {
  Lp lp = empty_lp("dense", m, std::max<std::size_t>(1, m / 3));
  for (double& v : lp.a) v = signed_entry(rng);
  std::vector<std::vector<std::size_t>> rows(lp.n);
  for (auto& column : rows)
    for (std::size_t i = 0; i < m; ++i) column.push_back(i);
  raise_column_sums(lp, rows, rng);
  close_lp(lp, rng);
  return lp;
}

Lp block_diagonal_lp(std::size_t blocks, std::size_t block_rows,
                     std::size_t block_cols, Rng& rng) {
  Lp lp = empty_lp("block-diagonal", blocks * block_rows, blocks * block_cols);
  std::vector<std::vector<std::size_t>> rows(lp.n);
  for (std::size_t blk = 0; blk < blocks; ++blk)
    for (std::size_t i = blk * block_rows; i < (blk + 1) * block_rows; ++i)
      for (std::size_t j = blk * block_cols; j < (blk + 1) * block_cols; ++j) {
        lp.a[i * lp.n + j] = signed_entry(rng);
        rows[j].push_back(i);
      }
  raise_column_sums(lp, rows, rng);
  close_lp(lp, rng);
  return lp;
}

Lp banded_lp(std::size_t m, std::size_t half_width, Rng& rng) {
  Lp lp = empty_lp("banded", m, std::max<std::size_t>(1, m / 3));
  std::vector<std::vector<std::size_t>> rows(lp.n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t center = i * lp.n / m;
    const std::size_t lo = center > half_width ? center - half_width : 0;
    const std::size_t hi = std::min(lp.n - 1, center + half_width);
    for (std::size_t j = lo; j <= hi; ++j) {
      lp.a[i * lp.n + j] = signed_entry(rng);
      rows[j].push_back(i);
    }
  }
  raise_column_sums(lp, rows, rng);
  close_lp(lp, rng);
  return lp;
}

std::string to_mps(const Lp& lp, const std::string& name) {
  std::string out;
  char line[160];
  out += "NAME " + name + "\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n";
  for (std::size_t i = 0; i < lp.m; ++i) {
    std::snprintf(line, sizeof line, " L  R%zu\n", i);
    out += line;
  }
  out += "COLUMNS\n";
  for (std::size_t j = 0; j < lp.n; ++j) {
    // Every column gets its objective entry, so the reader keeps the
    // column order even where c_j would round to nothing.
    std::snprintf(line, sizeof line, "    X%zu OBJ %.17g\n", j, lp.c[j]);
    out += line;
    for (std::size_t i = 0; i < lp.m; ++i)
      if (lp.at(i, j) != 0.0) {
        std::snprintf(line, sizeof line, "    X%zu R%zu %.17g\n", j, i,
                      lp.at(i, j));
        out += line;
      }
  }
  out += "RHS\n";
  for (std::size_t i = 0; i < lp.m; ++i) {
    std::snprintf(line, sizeof line, "    RHS R%zu %.17g\n", i, lp.b[i]);
    out += line;
  }
  out += "ENDATA\n";
  return out;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

std::vector<Lp> make_instances(const Workload& workload, std::uint64_t seed) {
  std::vector<Lp> instances;
  for (std::size_t k = 0; k < workload.instances; ++k) {
    // One stream per instance, so an instance does not change when the
    // round grows or shrinks.
    Rng rng(seed * 1000003ULL + k);
    if (workload.name == "xbar-dense") {
      instances.push_back(dense_lp(128, rng));
    } else if (workload.name == "ls-dense") {
      instances.push_back(dense_lp(256, rng));
    } else if (k % 2 == 0) {
      instances.push_back(block_diagonal_lp(8, 32, 12, rng));
    } else {
      instances.push_back(banded_lp(256, 8, rng));
    }
  }
  return instances;
}

}  // namespace e2e
