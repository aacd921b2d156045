// Multi-destination plane batching: k destinations per machine pass.
//
// The per-destination solvers pay the full sweep machinery — weight panel
// loads, carrier broadcasts, bus segmentation — for ONE destination's row
// of the all-pairs matrix. But destinations are independent columns of the
// same DP over the same weight matrix: the panel schedule, the switch
// configurations and the wired-OR segmentation depend only on the
// geometry, never on d. solve_batch runs up to Options::batch_width
// destinations as the lanes of one panel-sweep driver run
// (panel_sweep.hpp; the full array is the 1-block case):
//
//   * the weight panel is loaded (and billed as PanelIo) once per panel
//     visit, not once per destination;
//   * every live lane rides the panel with its own SOW fragment and a
//     FUSED bit-serial min/argmin under the same bus plans;
//   * convergence is host-side: a lane freezes the moment its own row
//     stops changing (its iteration count is exactly the per-destination
//     engine's), and the pass ends when all lanes have.
//
// Rows, per-destination iteration counts and outcomes are bit-identical
// to the per-destination engine on both backends, full and tiled
// (tests/mcp_batch_test.cpp); only the step profile differs — see
// docs/batching.md for the amortized PanelIo accounting.
//
// Robustness: a member whose run fails (VerificationFailed, NonConverged,
// HardwareFault) retries ALONE on a fault-free word-backend oracle of the
// same geometry, through the same recovery loop as solve()
// (tests/mcp_batch_fault_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "graph/weight_matrix.hpp"
#include "mcp/mcp.hpp"

namespace ppa::mcp {

/// Solves toward every destination in `destinations`, batching up to
/// Options::batch_width of them per machine pass. Returns one Result per
/// destination, in input order. With batch_width <= 1 (or a single
/// destination) this is exactly a loop of solve(): the per-destination
/// engine with the full recovery policy.
[[nodiscard]] std::vector<Result> solve_batch(const graph::WeightMatrix& graph,
                                              const std::vector<graph::Vertex>& destinations,
                                              const Options& options = {});

/// The batching core on a caller-owned machine (the all-pairs driver's
/// entry point): partitions `destinations` into groups of at most
/// Options::batch_width, runs each group through one shared sweep
/// schedule on `machine`, then applies the per-member retry policy on
/// `oracle` — a fault-free word-backend machine of the same geometry,
/// created on first use and reusable across calls (the same contract as
/// solve_with_recovery). Batch members share the machine's step counter;
/// each member's Result::total_steps reports the whole group's delta
/// (plus its own retries), so callers aggregating steps must count each
/// group once — see docs/batching.md.
[[nodiscard]] std::vector<Result> solve_batch_on(
    sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
    const graph::WeightMatrix& graph, const std::vector<graph::Vertex>& destinations,
    const Options& options);

}  // namespace ppa::mcp
