// Structured settle factorization of a crossbar's effective array.
//
// The analog array settles to the solution of M·x = b in O(1); the simulator
// obtains the same vector by factoring M. The Eq. (14a) arrays are mostly
// structural zeros — a cell programmed to 0 is never written, so it gets no
// variation draw and stays exactly 0 in the effective array — and between
// settles only the O(N) X/Y/Z/W diagonal cells change (§3.5). This cache
// factors M by pattern-driven Schur elimination:
//
//  * Symbolic plan, built once per zero pattern: greedy levels of pivots
//    whose pivot block is diagonal, picked in ascending Markowitz cost
//    (nnz_row − 1)(nnz_col − 1) among the entries that are their column's
//    largest. Planning stops when a level no longer shrinks the system
//    much; what remains is a dense block.
//  * Numeric refactor, whenever a change was noted since the last factor:
//    replays the levels' sparse Schur updates Σ col_k·row_k / d_k, keeping
//    a pivot while |d| ≥ 0.1·max |entry| of its column (threshold partial
//    pivoting; a failing pivot rebuilds the plan), and factors the
//    remaining dense block with the partial-pivot LuFactorization.
//  * Solve: forward elimination through the levels, the dense block's LU
//    solve, back substitution.
//
// IR drop, half-select disturb and a kept g_min offset fill the zeros in;
// the plan then has zero levels and the cache is LuFactorization of the
// whole matrix, bit for bit. A noted row whose zero pattern changed rebuilds
// the plan; unchanged matrices are never refactored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace memlp {

/// Observability counters of a FactorizationCache (simulator bookkeeping,
/// not hardware ops — the cost ledger carries the priced flops).
struct FactorCacheStats {
  std::uint64_t full_factorizations = 0;  ///< numeric refactors.
  std::uint64_t plan_builds = 0;          ///< symbolic plans built.
  /// Plans built while one for the same program() already existed: a zero
  /// pattern that changed under a noted row or a pivot that failed the
  /// threshold test. Each costs a planning pass on top of the refactor.
  std::uint64_t plan_rebuilds = 0;
  std::uint64_t prepare_hits = 0;  ///< prepare() with nothing dirty.
  std::uint64_t solves = 0;

  FactorCacheStats& operator+=(const FactorCacheStats& other) noexcept {
    full_factorizations += other.full_factorizations;
    plan_builds += other.plan_builds;
    plan_rebuilds += other.plan_rebuilds;
    prepare_hits += other.prepare_hits;
    solves += other.solves;
    return *this;
  }

  /// True when plans were rebuilt on more than half of the refactors (past
  /// a handful): the zero pattern or the pivot choice keeps changing, so
  /// the plan is not being reused.
  [[nodiscard]] bool thrashing() const noexcept {
    return plan_rebuilds > 8 && plan_rebuilds * 2 > full_factorizations;
  }

  /// Counter-wise difference (for phase snapshots).
  [[nodiscard]] FactorCacheStats since(
      const FactorCacheStats& earlier) const noexcept {
    FactorCacheStats d;
    d.full_factorizations = full_factorizations - earlier.full_factorizations;
    d.plan_builds = plan_builds - earlier.plan_builds;
    d.plan_rebuilds = plan_rebuilds - earlier.plan_rebuilds;
    d.prepare_hits = prepare_hits - earlier.prepare_hits;
    d.solves = solves - earlier.solves;
    return d;
  }
};

/// A solve cache over a slowly-mutating square matrix. Callers report
/// changes via note_row()/note_all()/invalidate() and call prepare() before
/// each batch of solve() calls.
class FactorizationCache {
 public:
  /// Drops the factorization and the plan (matrix replaced wholesale).
  void invalidate();

  /// Declares that row `r` of the matrix may have changed since the last
  /// prepare(). Duplicate and spurious notes are cheap and harmless.
  void note_row(std::size_t r);

  /// Declares an unknown change set (e.g. write disturb smeared across the
  /// array): the next prepare() re-checks the whole zero pattern.
  void note_all();

  /// Ensures a factorization of `a` is available. Caller contract: since
  /// the last prepare(), `a` changed only in rows passed to note_row() (or
  /// note_all()/invalidate() was called). Returns false when `a` is
  /// singular.
  bool prepare(const Matrix& a);

  /// True when prepare() succeeded on a non-singular matrix.
  [[nodiscard]] bool ready() const noexcept { return factored_ && !singular_; }

  /// Solves A x = b against the matrix of the last successful prepare().
  [[nodiscard]] Vec solve(std::span<const double> b);

  [[nodiscard]] const FactorCacheStats& stats() const noexcept {
    return stats_;
  }

  /// Elimination levels of the current plan (0: dense LU of the whole
  /// matrix).
  [[nodiscard]] std::size_t plan_levels() const noexcept {
    return levels_.size();
  }

  /// Dimension of the dense block left after the levels.
  [[nodiscard]] std::size_t dense_dim() const noexcept {
    return base_rows_.size();
  }

 private:
  /// One set of pivots whose pivot block is diagonal, eliminated at once.
  struct Level {
    std::vector<std::size_t> rows;  ///< pivot k sits at (rows[k], cols[k]).
    std::vector<std::size_t> cols;
    /// CSR over pivots: the other columns of pivot row k (the U part).
    std::vector<std::size_t> upper_ptr, upper;
    /// CSR over pivots: the other rows of pivot column k (the L part).
    std::vector<std::size_t> lower_ptr, lower;
    /// Rows the level updates, ascending, with CSR lists of their pivots.
    std::vector<std::size_t> targets, target_ptr, target_pivots;
    std::vector<double> inv_pivot;  ///< 1/d_k of the last refactor.
    std::uint64_t factor_flops = 0;
    std::uint64_t solve_flops = 0;
  };

  /// True when `a` still has the zero pattern the plan was built for, on
  /// the rows noted since the last prepare (all rows after note_all()).
  [[nodiscard]] bool pattern_holds(const Matrix& a) const;

  /// Builds a fresh plan for `a`'s zero pattern and factors `a` with it.
  void plan(const Matrix& a);

  /// Replays the plan on `a`. Returns false when a pivot fails the
  /// threshold test (the plan must be rebuilt).
  bool refactor(const Matrix& a);

  /// Applies one level's Schur update to work_. Returns false when a pivot
  /// fails the threshold test.
  bool eliminate(Level& level, double tiny);

  /// Factors the dense block left after the levels (from `a` itself when
  /// the plan has no levels).
  void factor_dense_block(const Matrix& a);

  FactorCacheStats stats_;
  std::size_t dim_ = 0;
  bool planned_ = false;
  bool factored_ = false;
  bool singular_ = false;

  /// dim²: the planned matrix's nonzeros and the plan's fill-in.
  std::vector<std::uint8_t> pattern_;
  std::vector<Level> levels_;
  /// Positions of work_ that may be nonzero (pattern and fill).
  std::vector<std::size_t> touched_;
  /// Schur-updated copy of the matrix: multipliers in the pivot columns,
  /// the U rows in the pivot rows, the dense block's entries elsewhere.
  Matrix work_;
  std::vector<std::size_t> base_rows_, base_cols_;  ///< the dense block.
  std::optional<LuFactorization> base_;
  Vec y_;         ///< solve scratch: row-indexed forward-elimination values.
  Vec base_rhs_;  ///< solve scratch: the dense block's right-hand side.

  std::vector<std::size_t> dirty_rows_;  ///< noted since last prepare.
  bool dirty_all_ = true;
};

}  // namespace memlp
