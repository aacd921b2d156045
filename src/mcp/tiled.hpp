// Virtualized (tiled) PPA: an n-vertex graph on a p x p physical array.
//
// The paper maps the weight matrix 1:1 onto the array, so the largest
// solvable graph is the largest machine; this layer removes the coupling.
// tiled_minimum_cost_path is one run of the panel-sweep driver
// (panel_sweep.hpp) with one lane and the paper's reducer: each iteration
// sweeps the ceil(n/p) x ceil(n/p) weight panels, the row-d state lives
// with the HOST controller between panels, a visited panel loads the W
// panel and the SOW fragment (p + 1 PanelIo beats — see
// Machine::charge_panel_io and docs/tiling.md), runs the shared relaxation
// core (relax_core.hpp) over GLOBAL column indices and reads back one
// min/argmin pair per panel row (2 beats). The driver's strict-`<` carry
// fold and Jacobi-buffered apply keep the iteration count, every iterate
// and the final solution bit-identical to the full-array run —
// tests/mcp_tiled_test.cpp pins this on both backends.
//
// Step model: the relaxation instructions are charged exactly like the
// full array's (just on p-wide rows); the virtualization overhead is
// charged separately as StepCategory::PanelIo, so E2/E4-style step curves
// can show it honestly.
#pragma once

#include "mcp/mcp.hpp"

namespace ppa::mcp {

/// The physical array side the convenience entry points build for an
/// n-vertex graph: options.array_side clamped to [1, n], with 0 mapping
/// to n (the full-array path).
[[nodiscard]] std::size_t effective_array_side(const Options& options, std::size_t n);

/// The paper's DP on a machine SMALLER than the graph: machine.n() <= n,
/// sweeping panels as described above. Preconditions: matching h-bit
/// field, destination < n, and n - 1 representable in the field (PTN
/// carries global column indices). The machine's step counter keeps
/// accumulating; panel reloads are charged as StepCategory::PanelIo.
[[nodiscard]] Result tiled_minimum_cost_path(sim::Machine& machine,
                                             const graph::WeightMatrix& graph,
                                             graph::Vertex destination,
                                             const Options& options = {});

/// Geometry dispatch used by the solve/retry entry points: the full-array
/// solver when machine.n() == graph.size(), the tiled sweep otherwise.
[[nodiscard]] Result run_minimum_cost_path(sim::Machine& machine,
                                           const graph::WeightMatrix& graph,
                                           graph::Vertex destination,
                                           const Options& options = {});

}  // namespace ppa::mcp
