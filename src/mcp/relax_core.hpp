// What every MCP solver shares: the panel-parameterized relaxation core,
// the per-call bookkeeping (SolveScope) and the recovery loop.
//
// The relaxation core is the paper's statements 10..12 with the geometry
// generalized: the carrier row's SOW fragment is column-broadcast over the
// panel, added to the resident weight panel, and each panel row is reduced
// to its minimum cost and the smallest column index attaining it. The
// full-array solver (mcp.cpp) calls it with the whole matrix as the panel
// and row d as the carrier; the tiled visit of the panel-sweep driver
// (panel_sweep.hpp, tiled.cpp) calls it once per visited panel with
// machine row 0 as the carrier and `index` carrying the *global* column
// indices (COL + panel base), so the tie-break to the smallest next-hop
// index survives virtualization unchanged. (The batched visit shares the
// candidate step and replaces the reduction with its fused min/argmin.)
//
// Both functions issue instructions under the caller's ambient where-mask
// and nothing else — the callers own all masking, which is what keeps the
// full-array instruction stream bit-identical to the paper listing
// (tests/mcp_step_regression_test.cpp pins the step counts).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "mcp/mcp.hpp"
#include "mcp/panel_images.hpp"
#include "mcp/panel_sweep.hpp"
#include "obs/collector.hpp"
#include "ppc/parallel.hpp"
#include "util/check.hpp"

namespace ppa::mcp::detail {

/// Scheme-dispatched column/row broadcast (one issue point for both
/// schemes, like the lambda the full solver used to carry around).
[[nodiscard]] ppc::Pint scheme_broadcast(const ppc::Pint& value, sim::Direction dir,
                                         const ppc::Pbool& open, BroadcastScheme scheme);

/// Statement 10: sow = broadcast(sow, SOUTH, carrier_row) + W.
/// PE (i,j) of the panel then holds w_ij + SOW[carrier][j]. The store is
/// masked by the ambient mask; under the two-sided scheme the carrier row
/// never hears its own injection, so the caller's mask must exclude it.
void panel_candidates(const ppc::Pint& W, const ppc::Pbool& carrier_row,
                      BroadcastScheme scheme, ppc::Pint& sow);

/// Statements 11..12: min_sow = min(sow, WEST, row_end) — the row minimum,
/// available in every PE of the row — and ptn = selected_min(index, ...)
/// — the smallest index attaining it. Stores obey the ambient mask.
void panel_row_reduce(const ppc::Pint& index, const ppc::Pbool& row_end, MinVariant variant,
                      const ppc::Pint& sow, ppc::Pint& min_sow, ppc::Pint& ptn);

// ---- The MCP visits' shared part (tiled.cpp, batch.cpp) -------------------

/// An MCP readback / row-d cell: the minimum cost and the smallest global
/// column index attaining it.
struct MinArg {
  sim::Word min = 0;
  sim::Word arg = 0;
};

/// What the tiled and batched visits of the panel-sweep driver share. The
/// fold is a strict `<`, so the earliest column block wins ties — combined
/// with the in-panel smallest-index argmin this preserves the paper's
/// tie-break to the smallest next-hop index. The destination's cost stays
/// pinned at 0, like (d,d) on the array. The carrier of every SOW fragment
/// is machine row 0 (the full array uses row d; any fixed row works — the
/// fragment rides the column buses either way), which also holds data row
/// 0 of the panel.
class McpVisit {
 public:
  using Cell = MinArg;
  static constexpr bool kPinDestination = true;

  McpVisit(ppc::Context& ctx, const graph::WeightMatrix& graph, BroadcastScheme scheme);

  [[nodiscard]] Cell identity() const { return Cell{inf_, 0}; }
  static void fold(Cell& carry, const Cell& value) {
    if (value.min < carry.min) carry = value;
  }
  static bool differs(const Cell& next, const Cell& state) { return next.min != state.min; }
  /// The DP is monotone, so an exhausted cap means corrupted state: the
  /// lane reports a NonConvergence diagnosis (its outcome follows).
  void exhausted(const SweepLane<Cell>& lane);

 protected:
  /// The lane's costs of column block bj on the carrier row (padding
  /// columns at infinity), as a load image.
  const ppc::PanelImage& fragment(const SweepLane<Cell>& lane, std::size_t bj);
  /// Loads weight panel (bi, bj) into w_ (a copy of its image).
  void load_weights(std::size_t bi, std::size_t bj);
  /// Statement 10 on the loaded panel: sow = broadcast(fragment) + W. The
  /// carrier's fragment value is still resident (the masked store skips
  /// it), so its candidates come from a local add — necessary under the
  /// two-sided scheme, where a driver never hears its own injection.
  void candidates(ppc::Pint& sow) const;

  ppc::Context& ctx_;
  sim::Machine& machine_;
  std::size_t n_, p_, blocks_;
  sim::Word inf_;
  BroadcastScheme scheme_;
  const ppc::Pint col_;
  const ppc::Pbool carrier_, not_carrier_, row_end_;
  std::optional<ppc::Pint> w_;

 private:
  std::vector<ppc::PanelImage> panels_;  // W images, packed once per call
  CarrierFragment<sim::Word> fragment_;
};

/// The MCP sweep parameters shared by the tiled and batched entry points.
[[nodiscard]] SweepConfig mcp_sweep_config(const sim::Machine& machine,
                                           const graph::WeightMatrix& graph,
                                           const Options& options);

/// One lane per destination, at the 1-edge costs (column d of W, the full
/// solver's init transposed host-side) with every next hop at d.
[[nodiscard]] std::vector<SweepLane<MinArg>> mcp_lanes(
    const graph::WeightMatrix& graph, const std::vector<graph::Vertex>& destinations);

/// A finished lane as a Result (solution, iterations, trace; NonConverged
/// when the cap stopped it). Steps and outcome settle in SolveScope.
[[nodiscard]] Result mcp_lane_result(SweepLane<MinArg>& lane,
                                     const sim::StepCounter& init_steps);

// ---- Per-call bookkeeping and recovery (every solver) --------------------

/// Attaches the observer as the machine's trace sink for the duration of a
/// call — only when the machine has no sink of its own (a caller-attached
/// RecordingTrace keeps priority) — and restores the previous sink on any
/// exit path, including exceptions.
class ScopedSink {
 public:
  ScopedSink(sim::Machine& machine, obs::Collector* observer);
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
  ~ScopedSink();

 private:
  sim::Machine& machine_;
  sim::TraceSink* previous_;
};

/// The machine the convenience entry points (solve, solve_batch,
/// all_pairs) build: the effective array side, the graph's field, and the
/// backend, checked mode and masking the options ask for. Options::faults
/// are injected by the caller.
[[nodiscard]] sim::MachineConfig solver_machine_config(const graph::WeightMatrix& graph,
                                                       const Options& options);

/// Entry and exit bookkeeping of one solver call — the full-array solver,
/// the tiled sweep or one batched group. Construction attaches the
/// observer as trace sink (ScopedSink), opens the call's span and
/// snapshots the machine's steps, fault log, plan cache, masking and
/// throughput counters; settle() is the shared epilogue. Construct it
/// before the call's ppc::Context and settle while it is still open (the
/// certificate check runs under its span).
class SolveScope {
 public:
  SolveScope(sim::Machine& machine, const Options& options, std::string_view span,
             std::int64_t span_value);

  /// Steps charged since entry.
  [[nodiscard]] sim::StepCounter steps() const { return machine_.steps().since(at_entry_); }

  /// The epilogue, once per call. Everything the machine counted is shared
  /// by every Result of the call: each gets the call's step and masking
  /// deltas and the checked-execution fault events (a NonConvergence
  /// diagnosis only on its own destination), and the observer records the
  /// plan-cache, throughput and masking deltas ONCE. Then each Result
  /// settles its outcome — non-convergence dominates (row d is partial
  /// data), then the host certificate (array-agnostic), then machine
  /// diagnostics, then the masking counters: a run that completed only
  /// because TMR / ECC corrected bus cycles is MaskedFaults, unless decode
  /// left uncorrectable residue — and bumps the solver counters.
  void settle(const graph::WeightMatrix& graph, std::span<Result> results);

 private:
  sim::Machine& machine_;
  const Options& options_;
  ScopedSink sink_;
  obs::Collector::Span span_;
  sim::StepCounter at_entry_;
  std::size_t faults_at_entry_;
  sim::Machine::PlanCacheStats plans_at_entry_;
  sim::MaskingStats masking_at_entry_;
  sim::plane_kernels::SweepStats sweeps_at_entry_;
};

/// The degraded Results of an attempt a fault aborted: every destination
/// gets a HardwareFault outcome, an all-infinity row and the attempt's
/// checked-execution events (or, when checked mode recorded nothing, one
/// synthesized UndrivenRead — the abort itself is the diagnostic).
[[nodiscard]] std::vector<Result> hardware_fault_results(
    const sim::Machine& machine, const graph::WeightMatrix& graph,
    const std::vector<graph::Vertex>& destinations, std::size_t faults_at_entry);

/// One attempt: `run()` returns one Result per destination. A
/// util::ContractError thrown out of a FAULTY machine degrades every
/// destination of the attempt to HardwareFault (an injected fault can drive
/// the program into states the machine contracts reject, e.g. an undriven
/// value reaching a primitive that requires full driven-ness in unchecked
/// mode); a fault-free machine propagates it unchanged.
template <class Run>
[[nodiscard]] std::vector<Result> attempt(sim::Machine& machine,
                                          const graph::WeightMatrix& graph,
                                          const std::vector<graph::Vertex>& destinations,
                                          Run&& run) {
  const std::size_t faults_at_entry = machine.fault_count();
  try {
    return run();
  } catch (const util::ContractError&) {
    if (!machine.has_faults()) throw;
    return hardware_fault_results(machine, graph, destinations, faults_at_entry);
  }
}

/// The recovery loop for one destination, given its first attempt: while
/// the policy allows it and the outcome is retriable, re-runs the
/// destination ALONE on `oracle` — a fault-free word-backend machine of the
/// same geometry as `machine` (a tiled run retries tiled), created on first
/// use and reusable across calls. Fault events, steps and masking counters
/// accumulate over every attempt.
[[nodiscard]] Result recover(const sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
                             const graph::WeightMatrix& graph, Result first,
                             const Options& options);

}  // namespace ppa::mcp::detail
