// Analog execution backend for the crossbar solvers.
//
// Both solvers drive their system matrix through this interface so the same
// algorithm code runs on a single monolithic crossbar (Solver 1's default)
// or on a grid of crossbar tiles behind an analog NoC (§3.4) when the matrix
// exceeds the manufacturable crossbar size.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "crossbar/amplifier.hpp"
#include "crossbar/crossbar.hpp"
#include "noc/tiled.hpp"

namespace memlp::obs {
class PhaseSpan;
}

namespace memlp::core {

/// Merged operation counters from a backend (inputs to the cost model).
struct BackendStats {
  xbar::CrossbarStats xbar;
  xbar::AmplifierStats amps;
  noc::NocStats noc;
  /// Settle-cache counters (numeric refactors, plan builds and rebuilds,
  /// pure hits).
  FactorCacheStats settle_cache;
  std::size_t num_tiles = 1;
  /// Shards left unprogrammed because their block was all-zero (gauge, not
  /// a counter — like num_tiles it describes the array, not an op stream).
  std::size_t zero_tiles = 0;

  BackendStats& operator+=(const BackendStats& other) noexcept {
    xbar += other.xbar;
    amps += other.amps;
    noc += other.noc;
    settle_cache += other.settle_cache;
    num_tiles = num_tiles > other.num_tiles ? num_tiles : other.num_tiles;
    zero_tiles = zero_tiles > other.zero_tiles ? zero_tiles : other.zero_tiles;
    return *this;
  }

  /// Counter-wise difference (for phase snapshots).
  [[nodiscard]] BackendStats since(const BackendStats& earlier) const noexcept {
    BackendStats d;
    d.xbar = xbar.since(earlier.xbar);
    d.amps = amps.since(earlier.amps);
    d.noc = noc.since(earlier.noc);
    d.settle_cache = settle_cache.since(earlier.settle_cache);
    d.num_tiles = num_tiles;
    d.zero_tiles = zero_tiles;
    return d;
  }
};

/// Hardware selection for a solver's system matrix.
struct BackendOptions {
  xbar::CrossbarConfig crossbar{};
  /// Force the NoC-tiled structure even for small systems.
  bool force_noc = false;
  /// Tile side used when the NoC structure is engaged.
  std::size_t tile_dim = 128;
  noc::TopologyKind topology = noc::TopologyKind::kHierarchical;
};

/// A programmable analog matrix (single crossbar or tiled NoC).
class AnalogBackend {
 public:
  virtual ~AnalogBackend() = default;

  using IoBoundary = xbar::Crossbar::IoBoundary;

  virtual void program(const Matrix& a, double full_scale_hint) = 0;
  /// Rewrites a batch of scattered cells in one controller transaction —
  /// the per-PDIP-iteration diagonal refresh. One aggregated ledger charge
  /// and one settle-cache notification pass instead of per-cell bookkeeping.
  virtual void update_cells(std::span<const xbar::CellUpdate> updates) = 0;
  /// Single-cell convenience wrapper over update_cells().
  virtual void update_cell(std::size_t r, std::size_t c, double value) {
    const xbar::CellUpdate update{r, c, value};
    update_cells({&update, 1});
  }
  [[nodiscard]] virtual Vec multiply(std::span<const double> x,
                                     IoBoundary io = IoBoundary::kBoth) = 0;
  [[nodiscard]] virtual std::optional<Vec> solve(
      std::span<const double> b, IoBoundary io = IoBoundary::kBoth) = 0;
  [[nodiscard]] virtual BackendStats stats() const = 0;
  virtual void reset_stats() = 0;
  /// Human-readable description for reports ("crossbar 128x128", "mesh NoC
  /// of 16 tiles", ...).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Annotates a trace phase span with a BackendStats counter delta: crossbar
/// programming/read ops (plus the non-empty pulse-histogram buckets),
/// amplifier ops, and — when more than one tile is involved — NoC traffic.
/// No-op when the span has no sink attached.
void annotate_backend_stats(obs::PhaseSpan& span, const BackendStats& delta);

/// Chooses single-crossbar vs NoC-tiled execution for a `dim`-sized system:
/// the NoC engages when force_noc is set or the system exceeds either the
/// crossbar's max_dim or the tile_dim.
std::unique_ptr<AnalogBackend> make_backend(const BackendOptions& options,
                                            std::size_t dim, Rng rng);

}  // namespace memlp::core
