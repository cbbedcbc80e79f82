#include "linalg/factor_cache.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/par.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/flight_recorder.hpp"

namespace memlp {
namespace {

// Threshold partial pivoting: a pivot must hold at least this fraction of
// its column's largest magnitude, which bounds element growth in the Schur
// updates the way partial pivoting bounds it in the dense LU.
constexpr double kPivotThreshold = 0.1;

// A plan only picks pivots that are their column's largest entry, so a
// replayed pivot keeps passing the threshold until it has drifted tenfold
// against its column. With plans taking any pivot above the threshold, the
// PDIP diagonals that drift across it re-planned about every other settle.
constexpr double kPlanThreshold = 1.0;

// A pivot below this (relative to the matrix scale) is treated as zero —
// the same floor LuFactorization applies.
constexpr double kPivotTolerance = 1e-13;

// Planning stops at a level that eliminates fewer than 1/kMinLevelShare of
// the remaining dimension: it no longer shrinks the dense block much.
constexpr std::size_t kMinLevelShare = 16;

// A pivot whose Schur update costs more than (remaining²)/kMaxCostShare
// multiply-adds is left to the dense block, whose blocked LU does the same
// work faster than the scattered sparse update.
constexpr std::uint64_t kMaxCostShare = 16;

// A level's row updates go parallel from this many target rows.
constexpr std::size_t kParallelTargetCutoff = 64;

// pattern_ cell states: a zero of the planned matrix, one of its nonzeros,
// or a zero the plan's Schur updates fill in.
constexpr std::uint8_t kZero = 0;
constexpr std::uint8_t kNonzero = 1;
constexpr std::uint8_t kFill = 2;

}  // namespace

void FactorizationCache::invalidate() {
  planned_ = false;
  factored_ = false;
  singular_ = false;
  levels_.clear();
  touched_.clear();
  work_ = Matrix();
  base_rows_.clear();
  base_cols_.clear();
  base_.reset();
  dirty_rows_.clear();
  dirty_all_ = true;
}

void FactorizationCache::note_row(std::size_t r) {
  if (dirty_all_) return;
  dirty_rows_.push_back(r);
}

void FactorizationCache::note_all() {
  dirty_all_ = true;
  dirty_rows_.clear();
}

bool FactorizationCache::pattern_holds(const Matrix& a) const {
  const std::size_t n = dim_;
  const auto values = a.data();
  const auto row_holds = [&](std::size_t r) {
    const std::size_t offset = r * n;
    for (std::size_t c = 0; c < n; ++c)
      if ((values[offset + c] != 0.0) != (pattern_[offset + c] == kNonzero))
        return false;
    return true;
  };
  if (dirty_all_) {
    for (std::size_t r = 0; r < n; ++r)
      if (!row_holds(r)) return false;
    return true;
  }
  return std::all_of(dirty_rows_.begin(), dirty_rows_.end(),
                     [&](std::size_t r) {
                       MEMLP_EXPECT(r < n);
                       return row_holds(r);
                     });
}

// memlint:hot — per-iteration KKT (re)factorization entry.
bool FactorizationCache::prepare(const Matrix& a) {
  MEMLP_EXPECT_MSG(a.square(), "FactorizationCache: matrix must be square");
  if (a.rows() != dim_) {
    invalidate();
    dim_ = a.rows();
  }
  if (factored_ && !dirty_all_ && dirty_rows_.empty()) {
    ++stats_.prepare_hits;
    return !singular_;
  }
  if (!planned_ || !pattern_holds(a) || !refactor(a)) {
    if (planned_) ++stats_.plan_rebuilds;
    plan(a);
  }
  dirty_rows_.clear();
  dirty_all_ = false;
  factored_ = true;
  ++stats_.full_factorizations;
  obs::flight_record(obs::FlightEventKind::kCacheRefresh, "settle_cache",
                     static_cast<double>(stats_.full_factorizations));
  return !singular_;
}

void FactorizationCache::plan(const Matrix& a) {
  const std::size_t n = a.rows();
  ++stats_.plan_builds;
  planned_ = true;
  levels_.clear();
  touched_.clear();

  // The zero pattern, its row/column counts and the matrix scale.
  const auto values = a.data();
  pattern_.assign(n * n, kZero);  // memlint:allow(R9): plan build, once per zero pattern
  std::vector<std::size_t> row_count(n, 0);  // memlint:allow(R9): plan build, once per zero pattern
  std::vector<std::size_t> col_count(n, 0);  // memlint:allow(R9): plan build, once per zero pattern
  double scale = 1.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double v = values[i * n + j];
      if (v == 0.0) continue;
      pattern_[i * n + j] = kNonzero;
      ++row_count[i];
      ++col_count[j];
      scale = std::max(scale, std::abs(v));
    }
  const double tiny = kPivotTolerance * scale;
  const auto max_cost = [](std::size_t remaining) {
    const auto r = static_cast<std::uint64_t>(remaining);
    return r * r / kMaxCostShare;
  };
  const auto fewest = [](const std::vector<std::size_t>& counts) {
    return counts.empty() ? std::size_t{0}
                          : *std::min_element(counts.begin(), counts.end());
  };
  const std::size_t min_row = fewest(row_count);
  const std::size_t min_col = fewest(col_count);
  // Every pivot costs at least (min_row − 1)(min_col − 1): when even that
  // is over the cap (a filled-in pattern), skip the candidate search.
  const bool filled_in = min_row == 0 || min_col == 0 ||
                     static_cast<std::uint64_t>(min_row - 1) * (min_col - 1) >
                         max_cost(n);

  std::vector<std::uint8_t> row_active(n, 1);  // memlint:allow(R9): plan build, once per zero pattern
  std::vector<std::uint8_t> col_active(n, 1);  // memlint:allow(R9): plan build, once per zero pattern
  std::size_t remaining = n;
  if (!filled_in) {
    // Active patterns per row and column; fill-in is appended as it forms.
    // 32-bit indices halve the planning footprint (a dense dim² array
    // exists alongside, so dim stays far below 2³²).
    std::vector<std::vector<std::uint32_t>> row_pattern(n);  // memlint:allow(R9): plan build, once per zero pattern
    std::vector<std::vector<std::uint32_t>> col_pattern(n);  // memlint:allow(R9): plan build, once per zero pattern
    for (std::size_t i = 0; i < n; ++i) row_pattern[i].reserve(row_count[i]);  // memlint:allow(R9): plan build, once per zero pattern
    for (std::size_t j = 0; j < n; ++j) col_pattern[j].reserve(col_count[j]);  // memlint:allow(R9): plan build, once per zero pattern
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (pattern_[i * n + j] != kNonzero) continue;
        row_pattern[i].push_back(static_cast<std::uint32_t>(j));  // memlint:allow(R9): plan build, once per zero pattern
        col_pattern[j].push_back(static_cast<std::uint32_t>(i));  // memlint:allow(R9): plan build, once per zero pattern
        touched_.push_back(i * n + j);  // memlint:allow(R9): plan build, once per zero pattern
      }
    }
    std::vector<std::size_t> row_mark(n, 0);  // memlint:allow(R9): plan build, once per zero pattern
    std::vector<std::size_t> col_mark(n, 0);  // memlint:allow(R9): plan build, once per zero pattern
    std::vector<double> col_max(n, 0.0);  // memlint:allow(R9): plan build, once per zero pattern
    struct Candidate {
      std::uint64_t cost;
      std::size_t row;
      std::size_t col;
    };
    std::vector<Candidate> candidates;
    std::vector<std::pair<std::size_t, std::size_t>> target_pairs;
    const Matrix* current = &a;
    for (std::size_t epoch = 1; remaining > 0; ++epoch) {
      for (std::size_t i = 0; i < n; ++i) {
        if (row_active[i] == 0) continue;
        std::erase_if(row_pattern[i],
                      [&](std::uint32_t j) { return col_active[j] == 0; });
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (col_active[j] == 0) continue;
        std::erase_if(col_pattern[j],
                      [&](std::uint32_t i) { return row_active[i] == 0; });
        double largest = 0.0;
        for (const std::size_t i : col_pattern[j])
          largest = std::max(largest, std::abs((*current)(i, j)));
        col_max[j] = largest;
      }

      // Candidates: threshold-passing entries under the cost cap, in
      // ascending Markowitz cost (ties by position, so the plan is
      // deterministic).
      const std::uint64_t cap = max_cost(remaining);
      candidates.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (row_active[i] == 0 || row_pattern[i].empty()) continue;
        const auto row_other =
            static_cast<std::uint64_t>(row_pattern[i].size() - 1);
        for (const std::size_t j : row_pattern[i]) {
          const std::uint64_t cost = row_other * (col_pattern[j].size() - 1);
          if (cost > cap) continue;
          const double magnitude = std::abs((*current)(i, j));
          if (!(magnitude > tiny) || magnitude < kPlanThreshold * col_max[j])
            continue;
          candidates.push_back({cost, i, j});  // memlint:allow(R9): plan build, once per zero pattern
        }
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& x, const Candidate& y) {
                  if (x.cost != y.cost) return x.cost < y.cost;
                  if (x.row != y.row) return x.row < y.row;
                  return x.col < y.col;
                });

      // Greedy diagonal pivot block: a pivot may not share a row with any
      // chosen pivot's column entries, nor a column with any chosen pivot's
      // row entries.
      Level level;
      for (const Candidate& c : candidates) {
        if (row_mark[c.row] == epoch || col_mark[c.col] == epoch) continue;
        level.rows.push_back(c.row);  // memlint:allow(R9): plan build, once per zero pattern
        level.cols.push_back(c.col);  // memlint:allow(R9): plan build, once per zero pattern
        for (const std::size_t r : col_pattern[c.col]) row_mark[r] = epoch;
        for (const std::size_t col : row_pattern[c.row]) col_mark[col] = epoch;
      }
      const std::size_t pivots = level.rows.size();
      if (pivots == 0 || pivots * kMinLevelShare < remaining) break;

      // The level's L and U patterns, the rows it updates, and its flops.
      level.upper_ptr.push_back(0);  // memlint:allow(R9): plan build, once per zero pattern
      level.lower_ptr.push_back(0);  // memlint:allow(R9): plan build, once per zero pattern
      target_pairs.clear();
      for (std::size_t k = 0; k < pivots; ++k) {
        const std::size_t r = level.rows[k];
        const std::size_t c = level.cols[k];
        for (const std::size_t j : row_pattern[r])
          if (j != c) level.upper.push_back(j);  // memlint:allow(R9): plan build, once per zero pattern
        for (const std::size_t i : col_pattern[c])
          if (i != r) {
            level.lower.push_back(i);  // memlint:allow(R9): plan build, once per zero pattern
            target_pairs.emplace_back(i, k);  // memlint:allow(R9): plan build, once per zero pattern
          }
        level.upper_ptr.push_back(level.upper.size());  // memlint:allow(R9): plan build, once per zero pattern
        level.lower_ptr.push_back(level.lower.size());  // memlint:allow(R9): plan build, once per zero pattern
        const auto lower = static_cast<std::uint64_t>(
            level.lower_ptr[k + 1] - level.lower_ptr[k]);
        const auto upper = static_cast<std::uint64_t>(
            level.upper_ptr[k + 1] - level.upper_ptr[k]);
        level.factor_flops += lower * (1 + 2 * upper);
        level.solve_flops += 2 * (lower + upper) + 1;
      }
      std::sort(target_pairs.begin(), target_pairs.end());
      for (std::size_t q = 0; q < target_pairs.size(); ++q) {
        if (q == 0 || target_pairs[q].first != target_pairs[q - 1].first) {
          level.targets.push_back(target_pairs[q].first);  // memlint:allow(R9): plan build, once per zero pattern
          level.target_ptr.push_back(q);  // memlint:allow(R9): plan build, once per zero pattern
        }
        level.target_pivots.push_back(target_pairs[q].second);  // memlint:allow(R9): plan build, once per zero pattern
      }
      level.target_ptr.push_back(target_pairs.size());  // memlint:allow(R9): plan build, once per zero pattern
      level.inv_pivot.assign(pivots, 0.0);  // memlint:allow(R9): plan build, once per zero pattern

      // Symbolic fill-in of the Schur update.
      for (std::size_t k = 0; k < pivots; ++k)
        for (std::size_t q = level.lower_ptr[k]; q < level.lower_ptr[k + 1];
             ++q) {
          const std::size_t i = level.lower[q];
          for (std::size_t u = level.upper_ptr[k]; u < level.upper_ptr[k + 1];
               ++u) {
            const std::size_t j = level.upper[u];
            if (pattern_[i * n + j] != kZero) continue;
            pattern_[i * n + j] = kFill;
            row_pattern[i].push_back(static_cast<std::uint32_t>(j));  // memlint:allow(R9): plan build, once per zero pattern
            col_pattern[j].push_back(static_cast<std::uint32_t>(i));  // memlint:allow(R9): plan build, once per zero pattern
            touched_.push_back(i * n + j);  // memlint:allow(R9): plan build, once per zero pattern
          }
        }
      for (std::size_t k = 0; k < pivots; ++k) {
        row_active[level.rows[k]] = 0;
        col_active[level.cols[k]] = 0;
      }
      remaining -= pivots;

      // Numeric elimination on the working copy: the same code path every
      // later refactor replays, so the first factor matches them bit for bit
      // (a kept allocation is reused; plans rebuild at an unchanged size).
      if (levels_.empty()) work_ = a;
      current = &work_;
      levels_.push_back(std::move(level));  // memlint:allow(R9): plan build, once per zero pattern
      const bool passed = eliminate(levels_.back(), tiny);
      MEMLP_ASSERT(passed);
    }
  }

  base_rows_.clear();
  base_cols_.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (row_active[i] != 0) base_rows_.push_back(i);  // memlint:allow(R9): plan build, once per zero pattern
  for (std::size_t j = 0; j < n; ++j)
    if (col_active[j] != 0) base_cols_.push_back(j);  // memlint:allow(R9): plan build, once per zero pattern
  if (levels_.empty()) {
    touched_.clear();
    touched_.shrink_to_fit();
    work_ = Matrix();
  } else {
    std::sort(touched_.begin(), touched_.end());
    y_.assign(n, 0.0);  // memlint:allow(R9): plan build, once per zero pattern
    base_rhs_.assign(base_rows_.size(), 0.0);  // memlint:allow(R9): plan build, once per zero pattern
  }
  factor_dense_block(levels_.empty() ? a : work_);
}

bool FactorizationCache::refactor(const Matrix& a) {
  if (levels_.empty()) {
    factor_dense_block(a);
    return true;
  }
  // Reload every position the plan can make nonzero; the others hold the
  // pattern's zeros from the plan build and are never written.
  const auto source = a.data();
  auto work = work_.data();
  double scale = 1.0;
  for (const std::size_t p : touched_) {
    work[p] = source[p];
    scale = std::max(scale, std::abs(source[p]));
  }
  obs::CostLedger::charge_active(
      {.bytes = 16 * static_cast<std::uint64_t>(touched_.size())});
  const double tiny = kPivotTolerance * scale;
  for (Level& level : levels_)
    if (!eliminate(level, tiny)) return false;
  factor_dense_block(work_);
  return true;
}

bool FactorizationCache::eliminate(Level& level, double tiny) {
  const std::size_t pivots = level.rows.size();
  for (std::size_t k = 0; k < pivots; ++k) {
    const std::size_t c = level.cols[k];
    const double d = work_(level.rows[k], c);
    double column_max = std::abs(d);
    for (std::size_t q = level.lower_ptr[k]; q < level.lower_ptr[k + 1]; ++q)
      column_max = std::max(column_max, std::abs(work_(level.lower[q], c)));
    if (!(std::abs(d) > tiny) || std::abs(d) < kPivotThreshold * column_max)
      return false;
    level.inv_pivot[k] = 1.0 / d;
  }
  // Charged once, outside the parallel region, so the attribution is
  // deterministic.
  obs::CostLedger::charge_active(
      {.flops = level.factor_flops, .bytes = 8 * level.factor_flops});
  // Each target row absorbs its pivots in ascending order and touches only
  // itself (pivot rows are never targets of their own level), so the
  // arithmetic is identical at any thread count.
  const auto update_row = [&](std::size_t t) {
    auto row = work_.row(level.targets[t]);
    for (std::size_t q = level.target_ptr[t]; q < level.target_ptr[t + 1];
         ++q) {
      const std::size_t k = level.target_pivots[q];
      const std::size_t c = level.cols[k];
      const double multiplier = row[c] * level.inv_pivot[k];
      row[c] = multiplier;
      if (multiplier == 0.0) continue;
      const auto pivot_row = work_.row(level.rows[k]);
      for (std::size_t u = level.upper_ptr[k]; u < level.upper_ptr[k + 1];
           ++u) {
        const std::size_t j = level.upper[u];
        row[j] -= multiplier * pivot_row[j];
      }
    }
  };
  const std::size_t targets = level.targets.size();
  if (targets >= kParallelTargetCutoff) {
    par::parallel_for_ranges(
        targets, std::max<std::size_t>(std::size_t{8}, targets / 32),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t t = begin; t < end; ++t) update_row(t);
        });
  } else {
    for (std::size_t t = 0; t < targets; ++t) update_row(t);
  }
  return true;
}

void FactorizationCache::factor_dense_block(const Matrix& a) {
  if (levels_.empty()) {
    base_.emplace(a);  // charges its own closed-form flops  // memlint:allow(R9): the dense factor is rebuilt per refactor
    singular_ = base_->singular();
    return;
  }
  // Drop the previous factor before gathering the block, so the two never
  // coexist.
  base_.reset();
  const std::size_t nb = base_rows_.size();
  if (nb == 0) {
    singular_ = false;
    return;
  }
  Matrix schur(nb, nb);  // memlint:allow(R9): the dense factor is rebuilt per refactor
  for (std::size_t r = 0; r < nb; ++r) {
    const auto source = a.row(base_rows_[r]);
    auto target = schur.row(r);
    for (std::size_t c = 0; c < nb; ++c) target[c] = source[base_cols_[c]];
  }
  obs::CostLedger::charge_active(
      {.bytes = 16 * static_cast<std::uint64_t>(nb) * nb});
  base_.emplace(std::move(schur));  // memlint:allow(R9): the dense factor is rebuilt per refactor
  singular_ = base_->singular();
}

// memlint:hot — per-iteration Newton back-substitution entry.
Vec FactorizationCache::solve(std::span<const double> b) {
  MEMLP_EXPECT_MSG(ready(), "FactorizationCache::solve before prepare()");
  MEMLP_EXPECT(b.size() == dim_);
  ++stats_.solves;
  if (levels_.empty()) return base_->solve(b);

  // Forward elimination through the levels: y_ holds the row-side values.
  std::copy(b.begin(), b.end(), y_.begin());
  std::uint64_t flops = 0;
  for (const Level& level : levels_) {
    flops += level.solve_flops;
    for (std::size_t t = 0; t < level.targets.size(); ++t) {
      const std::size_t i = level.targets[t];
      const auto row = work_.row(i);
      double sum = y_[i];
      for (std::size_t q = level.target_ptr[t]; q < level.target_ptr[t + 1];
           ++q) {
        const std::size_t k = level.target_pivots[q];
        sum -= row[level.cols[k]] * y_[level.rows[k]];
      }
      y_[i] = sum;
    }
  }
  obs::CostLedger::charge_active(
      {.flops = flops, .bytes = 8 * (flops + 2 * dim_)});

  Vec x(dim_, 0.0);  // memlint:allow(R9): result buffer; the caller owns the returned vector
  if (base_) {
    for (std::size_t r = 0; r < base_rows_.size(); ++r)
      base_rhs_[r] = y_[base_rows_[r]];
    const Vec dense = base_->solve(base_rhs_);  // charges its own flops
    for (std::size_t c = 0; c < base_cols_.size(); ++c)
      x[base_cols_[c]] = dense[c];
  }
  // Back substitution, deepest level first.
  for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
    for (std::size_t k = 0; k < level->rows.size(); ++k) {
      const std::size_t r = level->rows[k];
      const auto row = work_.row(r);
      double sum = y_[r];
      for (std::size_t u = level->upper_ptr[k]; u < level->upper_ptr[k + 1];
           ++u)
        sum -= row[level->upper[u]] * x[level->upper[u]];
      x[level->cols[k]] = sum / row[level->cols[k]];
    }
  }
  return x;
}

}  // namespace memlp
