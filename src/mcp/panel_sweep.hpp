// The virtualized relaxation schedule, written once (docs/tiling.md "The
// driver").
//
// The paper's Step 2 is one relaxation loop: broadcast the carrier row's
// state, combine it with the resident matrix, reduce each row. On a p x p
// machine sweeping an n-vertex graph that loop becomes a sweep over the
// ceil(n/p)^2 panels per iteration, and everything about that sweep except
// the per-panel instructions is workload-independent. panel_sweep() owns
// all of it:
//
//   * the iteration loop, the iteration cap and the Jacobi apply (row-d
//     updates buffered until the sweep completes, so the iterates are the
//     full array's), with per-row-block change counts;
//   * the (bi, bj) block loop and the active-panel skip (per-lane
//     DirtyBlocks; a panel is visited when ANY live lane needs its column
//     block);
//   * the per-(bi, bj) readback cache a skipped visit replays, and the
//     PanelIoLedger that double-buffers visited loads and closes the
//     accounting against the dense schedule;
//   * the per-row host carry fold, and the panel metrics and spans.
//
// A workload supplies a small visit (a template parameter, so the fold
// loops inline): its Cell type with the fold identity and operator, the
// beats a panel load moves, how a panel is loaded and how one lane relaxes
// a loaded panel. Three visits exist:
//
//   * tiled MCP (tiled.cpp): k = 1 lane, the paper reducer;
//   * batched MCP (batch.cpp): k lanes sharing each weight-panel load, the
//     fused bit-serial min/argmin;
//   * tiled reachability (closure.cpp): one boolean lane, one wired-OR.
//
// The full-array solver (mcp.cpp) stays the paper listing and the oracle;
// it does not go through this driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mcp/mcp.hpp"
#include "obs/collector.hpp"

namespace ppa::mcp::detail {

/// Per-column-block activity flags for the active-panel schedule
/// (docs/tiling.md "Active panels"). A block is dirty when its slice of
/// the row-d state changed in the previous iteration; every block starts
/// dirty (iteration 1 has no previous information). Under Jacobi order a
/// panel's partial result depends only on the static matrix panel and the
/// state fragment of its COLUMN block, so a visit whose column block is
/// clean can be skipped and its cached readback replayed — exact, not
/// heuristic. One instance per lane.
class DirtyBlocks {
 public:
  explicit DirtyBlocks(std::size_t blocks) : dirty_(blocks, 1) {}

  [[nodiscard]] bool dirty(std::size_t bj) const { return dirty_[bj] != 0; }
  /// Feeds the next iteration from this iteration's per-block change
  /// counts (the convergence-telemetry vector).
  void update(const std::vector<std::uint64_t>& block_changes) {
    for (std::size_t b = 0; b < dirty_.size(); ++b) {
      dirty_[b] = block_changes[b] != 0 ? std::uint8_t{1} : std::uint8_t{0};
    }
  }

 private:
  std::vector<std::uint8_t> dirty_;
};

/// Double-buffered PanelIo accounting. A visited panel's load beats can
/// overlap the PREVIOUS visited panel's relax phase (the fragments all
/// come from last iteration's state under Jacobi order, so the controller
/// knows them at sweep start): the first load of each sweep pays full
/// price, every later one is charged only the beats the overlap window
/// could not hide. The window is the previous visited panel's relax step
/// count with Masking and PanelIo excluded — masking trials are bus-level
/// redundancy (excluding them keeps the accounting identical across
/// backends and recovery policies), and per-lane fragments and readbacks
/// inside the relax phase keep the I/O channel busy. `saved()` accumulates
/// every avoided beat — skipped visits included — so charged PanelIo plus
/// saved() equals the dense schedule's total exactly.
class PanelIoLedger {
 public:
  PanelIoLedger(sim::Machine& machine, bool overlap) : machine_(machine), overlap_(overlap) {}

  /// Resets the overlap window; the next load pays full price (a prefetch
  /// cannot cross the iteration boundary — the fragment values depend on
  /// the convergence update).
  void begin_sweep() { window_ = 0; }

  /// Charges `rows` PanelIo minus the part hidden under the previous
  /// visited panel's relax phase.
  void load(std::uint64_t rows) {
    const std::uint64_t hidden = overlap_ ? std::min(rows, window_) : 0;
    if (rows > hidden) machine_.charge_panel_io(rows - hidden);
    saved_ += hidden;
  }

  /// Brackets a panel's relax phase to measure the next overlap window.
  void relax_begin() { before_relax_ = machine_.steps(); }
  void relax_end() {
    const sim::StepCounter delta = machine_.steps().since(before_relax_);
    window_ = delta.total() - delta.count(sim::StepCategory::Masking) -
              delta.count(sim::StepCategory::PanelIo);
  }

  /// Accounts a skipped visit's beats as saved without charging them.
  void skip(std::uint64_t rows) { saved_ += rows; }

  [[nodiscard]] std::uint64_t saved() const { return saved_; }

 private:
  sim::Machine& machine_;
  bool overlap_;
  std::uint64_t window_ = 0;
  std::uint64_t saved_ = 0;
  sim::StepCounter before_relax_;
};

/// One lane of a sweep: the controller's row-d state for one destination,
/// held as a host n-vector between panel visits. The visit's Cell is the
/// per-vertex state and also the per-panel-row readback.
template <class Cell>
struct SweepLane {
  graph::Vertex destination = 0;
  std::vector<Cell> state;
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<IterationRecord> trace;  // when SweepConfig::record_iterations

  // Driver scratch (sized by panel_sweep).
  std::vector<Cell> next;   // Jacobi buffer (n)
  std::vector<Cell> carry;  // per-row-block fold (p)
  std::vector<Cell> cache;  // per-(bi, bj) readbacks, active schedule
  DirtyBlocks dirty{0};
};

struct SweepConfig {
  std::size_t n = 0;              // vertex count
  std::size_t p = 0;              // physical array side
  std::size_t iteration_cap = 0;
  bool active = true;             // active-panel schedule
  bool record_iterations = false;
  obs::Collector* observer = nullptr;
};

struct SweepStats {
  std::uint64_t visited = 0;
  std::uint64_t skipped = 0;
  std::uint64_t active_blocks = 0;  // needed column blocks, summed over sweeps
  std::uint64_t saved = 0;          // PanelIo beats the ledger avoided
};

/// Runs the sweep until every lane's row stops changing or the cap trips.
/// A lane that converges freezes (its iteration count is exactly the
/// per-destination engine's); at the cap every live lane is handed to
/// visit.exhausted() and left unconverged.
///
/// Visit requirements:
///   using Cell;  Cell identity() const;
///   static void fold(Cell& carry, const Cell& value);
///   static bool differs(const Cell& next, const Cell& state);
///   static constexpr bool kPinDestination;  // destination's state is fixed
///   std::uint64_t shared_beats, lane_beats;  // PanelIo per visit / per lane
///   void load(bi, bj, lanes);   // load the shared panel
///   void relax(lane, bi, bj, Cell* out, bh);  // relax one lane, read back
///                                             // bh rows into out, charging
///                                             // the lane's own beats
///   void exhausted(const Lane&);
/// The driver charges the load's shared_beats through the ledger (hideable);
/// a skipped visit saves shared_beats plus lane_beats per live lane.
template <class Visit>
SweepStats panel_sweep(sim::Machine& machine, const SweepConfig& config,
                       std::vector<SweepLane<typename Visit::Cell>>& lanes, Visit& visit) {
  using Cell = typename Visit::Cell;
  const std::size_t n = config.n;
  const std::size_t p = config.p;
  const std::size_t blocks = (n + p - 1) / p;  // ceil(n/p) panels per axis
  const bool active = config.active;
  obs::Collector* const observer = config.observer;

  for (SweepLane<Cell>& lane : lanes) {
    lane.next.resize(n);
    lane.carry.resize(p);
    if (active) {
      lane.dirty = DirtyBlocks(blocks);
      lane.cache.resize(blocks * blocks * p);
    }
  }
  std::vector<Cell> readback(active ? 0 : p);
  std::vector<std::uint8_t> need(blocks, 1);
  PanelIoLedger ledger(machine, active);
  SweepStats stats;

  const auto fold_rows = [](std::vector<Cell>& carry, const Cell* values, std::size_t bh) {
    for (std::size_t r = 0; r < bh; ++r) Visit::fold(carry[r], values[r]);
  };

  auto relax_span = std::make_optional(obs::open_span(observer, "relax", &machine));
  std::size_t live = lanes.size();
  for (std::size_t sweep = 0; live > 0; ++sweep) {
    if (sweep >= config.iteration_cap) {
      for (const SweepLane<Cell>& lane : lanes) {
        if (!lane.converged) visit.exhausted(lane);
      }
      break;
    }
    const sim::StepCounter before_iteration = machine.steps();
    PPA_SPAN(observer, "relax_iter", &machine, static_cast<std::int64_t>(sweep));
    // The panel spans are opened only for an observed sweep and held
    // outside the block loop (after relax_iter, so they close first on
    // any exit): an unobserved sweep's panel loop then carries no scoped
    // span objects, which cost the sub-millisecond reachability sweep a
    // few percent even when inert.
    std::optional<obs::Collector::Span> panel_span;
    const auto open_panel_span = [&](const char* name, std::size_t panel) {
      if (observer != nullptr) {
        panel_span.emplace(
            obs::open_span(observer, name, &machine, static_cast<std::int64_t>(panel)));
      }
    };

    ledger.begin_sweep();
    if (active) {
      // A column block is needed this sweep when ANY live lane's slice of
      // it changed last iteration; blocks nobody needs skip the shared
      // load outright.
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        need[bj] = std::any_of(lanes.begin(), lanes.end(), [&](const SweepLane<Cell>& lane) {
          return !lane.converged && lane.dirty.dirty(bj);
        });
        stats.active_blocks += need[bj];
      }
    }
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      const std::size_t base_r = bi * p;
      const std::size_t bh = std::min(p, n - base_r);
      for (SweepLane<Cell>& lane : lanes) {
        if (!lane.converged) std::fill(lane.carry.begin(), lane.carry.end(), visit.identity());
      }
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        const std::size_t panel = bi * blocks + bj;
        // A clean lane replays its cached readback: the panel's inputs (the
        // static matrix panel and the column block's fragment) are
        // unchanged, so the cache IS the visit's result. The fold order
        // stays bj-ascending either way.
        const auto replay = [&](SweepLane<Cell>& lane) {
          ledger.skip(visit.lane_beats);
          fold_rows(lane.carry, &lane.cache[panel * p], bh);
        };

        if (active && need[bj] == 0) {
          ++stats.skipped;
          ledger.skip(visit.shared_beats);
          for (SweepLane<Cell>& lane : lanes) {
            if (!lane.converged) replay(lane);
          }
          continue;
        }
        ++stats.visited;

        open_panel_span("panel_load", panel);
        visit.load(bi, bj, lanes);
        ledger.load(visit.shared_beats);
        panel_span.reset();

        open_panel_span("panel_relax", panel);
        ledger.relax_begin();
        for (SweepLane<Cell>& lane : lanes) {
          if (lane.converged) continue;
          if (active && !lane.dirty.dirty(bj)) {
            replay(lane);
            continue;
          }
          Cell* const out = active ? &lane.cache[panel * p] : readback.data();
          visit.relax(lane, bi, bj, out, bh);
          fold_rows(lane.carry, out, bh);
        }
        ledger.relax_end();
        panel_span.reset();
      }
      for (SweepLane<Cell>& lane : lanes) {
        if (lane.converged) continue;
        std::copy(lane.carry.begin(), lane.carry.begin() + static_cast<std::ptrdiff_t>(bh),
                  lane.next.begin() + static_cast<std::ptrdiff_t>(base_r));
      }
    }

    // Jacobi apply; each lane's convergence test is its own (the
    // controller holds the fresh row, no global-OR cycle needed). Change
    // counts are kept per row block (vertex i lives in block i/p): a block
    // whose count is 0 has a settled fragment.
    for (SweepLane<Cell>& lane : lanes) {
      if (lane.converged) continue;
      std::size_t changed = 0;
      std::vector<std::uint64_t> block_changes(observer != nullptr || active ? blocks : 0, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (Visit::kPinDestination && i == lane.destination) continue;
        if (Visit::differs(lane.next[i], lane.state[i])) {
          lane.state[i] = lane.next[i];
          ++changed;
          if (!block_changes.empty()) ++block_changes[i / p];
        }
      }
      if (active) lane.dirty.update(block_changes);
      ++lane.iterations;
      if (config.record_iterations) {
        lane.trace.push_back(IterationRecord{changed, machine.steps().since(before_iteration)});
      }
      if (observer != nullptr) {
        observer->record_iteration(static_cast<std::int64_t>(lane.destination),
                                   lane.iterations, changed, std::move(block_changes));
      }
      if (changed == 0) {
        lane.converged = true;
        --live;
      }
    }
  }
  relax_span.reset();

  stats.saved = ledger.saved();
  if (observer != nullptr) {
    obs::MetricsRegistry& metrics = observer->metrics();
    metrics.counter(obs::metric::kSolverPanels).add(stats.visited);
    if (active) {
      metrics.counter(obs::metric::kSolverPanelsSkipped).add(stats.skipped);
      metrics.counter(obs::metric::kSolverActiveBlocks).add(stats.active_blocks);
      metrics.counter(obs::metric::kSolverPanelIoSaved).add(stats.saved);
    }
  }
  return stats;
}

}  // namespace ppa::mcp::detail
