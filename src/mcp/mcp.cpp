#include "mcp/mcp.hpp"

#include <vector>

#include "mcp/relax_core.hpp"
#include "mcp/tiled.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

const char* name_of(SolveOutcome outcome) noexcept {
  switch (outcome) {
    case SolveOutcome::Unchecked: return "unchecked";
    case SolveOutcome::Verified: return "verified";
    case SolveOutcome::VerificationFailed: return "verification-failed";
    case SolveOutcome::NonConverged: return "non-converged";
    case SolveOutcome::HardwareFault: return "hardware-fault";
    case SolveOutcome::MaskedFaults: return "masked-faults";
  }
  return "?";
}

const char* name_of(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::Retry: return "retry";
    case RecoveryPolicy::Tmr: return "tmr";
    case RecoveryPolicy::Ecc: return "ecc";
    case RecoveryPolicy::TmrThenRetry: return "tmr+retry";
  }
  return "?";
}

sim::BusMasking masking_of(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::Retry: return sim::BusMasking::None;
    case RecoveryPolicy::Tmr:
    case RecoveryPolicy::TmrThenRetry: return sim::BusMasking::Tmr;
    case RecoveryPolicy::Ecc: return sim::BusMasking::Ecc;
  }
  return sim::BusMasking::None;
}

bool retriable(SolveOutcome outcome) noexcept {
  return outcome == SolveOutcome::VerificationFailed ||
         outcome == SolveOutcome::NonConverged || outcome == SolveOutcome::HardwareFault;
}

bool retry_allowed(RecoveryPolicy policy) noexcept {
  return policy == RecoveryPolicy::Retry || policy == RecoveryPolicy::TmrThenRetry;
}

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Word;

/// The weight matrix as loaded into the PEs: w_ij row-major with the
/// diagonal forced to 0 (see header).
std::vector<Word> machine_weights(const graph::WeightMatrix& g) {
  const std::size_t n = g.size();
  std::vector<Word> cells(g.cells().begin(), g.cells().end());
  for (std::size_t i = 0; i < n; ++i) cells[i * n + i] = 0;
  return cells;
}

}  // namespace

Result minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                         graph::Vertex destination, const Options& options) {
  const std::size_t n = graph.size();
  PPA_REQUIRE(machine.n() == n, "machine side must equal the vertex count");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  PPA_REQUIRE(destination < n, "destination out of range");

  const std::size_t iteration_cap =
      options.max_iterations != 0 ? options.max_iterations : n + 2;
  const bool two_sided = options.broadcast_scheme == BroadcastScheme::TwoSidedLinear;
  // The two-sided scheme cannot run the paper min()'s routing step (see
  // BroadcastScheme), so it always uses the OR-probe minimum.
  const MinVariant variant = two_sided ? MinVariant::OrProbe : options.min_variant;

  obs::Collector* const observer = options.observer;
  detail::SolveScope scope(machine, options, "solve", static_cast<std::int64_t>(destination));
  ppc::Context ctx(machine);

  // ------------------------------------------------------------------
  // Data layout (paper Section 3): W, SOW, PTN are n x n parallel ints;
  // only row d of SOW / PTN is meaningful at the end.
  // ------------------------------------------------------------------
  const std::vector<Word> w_cells = machine_weights(graph);
  const Pint W(ctx, w_cells);
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Word d = static_cast<Word>(destination);

  const Pbool row_is_d = (ROW == d);
  const Pbool on_diagonal = (ROW == COL);
  const Pbool row_end = (COL == static_cast<Word>(n - 1));  // min() cluster anchor

  Pint SOW(ctx, machine.field().infinity());
  Pint PTN(ctx, d);

  // One broadcast issue point for both schemes.
  const auto bcast = [&](const Pint& value, Direction dir, const Pbool& open) {
    return detail::scheme_broadcast(value, dir, open, options.broadcast_scheme);
  };

  // Step 1 — initialization (paper statements 4..7): the d-th row gets the
  // 1-edge path costs and pointers, SOW[d][i] = w_id.
  //
  // ERRATUM: the paper's listing writes `SOW = W` under ROW == d, which
  // loads w_di — the edges *leaving* d — while the paper's own Step-1 text
  // says SOW_id "is initialized with the weight associated to the link
  // from vertex i to vertex d", i.e. COLUMN d of W. The text is the
  // version consistent with the Step-2 update (PE (i,j) = SOW_jd + w_ij),
  // so we implement it: column d is transposed into row d with two O(1)
  // bus cycles — a row broadcast from column d puts w_id on the whole of
  // row i (in particular on the diagonal), and a column broadcast from
  // the diagonal delivers it to row d.
  // The element (d,d) is written explicitly (it is 0, the empty path)
  // rather than through the diagonal broadcast: under the two-sided
  // scheme a diagonal driver never hears itself, and under the ring
  // scheme the broadcast would deliver the same 0 anyway.
  auto init_span = std::make_optional(obs::open_span(observer, "init", &machine));
  const Pbool col_is_d = (COL == d);
  const Pint w_into_d = bcast(W, Direction::East, col_is_d);
  const Pint zero(ctx, 0);
  ppc::where(ctx, row_is_d, [&] {
    PTN = Pint(ctx, d);
    ppc::where(ctx, !on_diagonal, [&] {
      SOW = bcast(w_into_d, Direction::South, on_diagonal);
    });
    ppc::where(ctx, on_diagonal, [&] { SOW = zero; });
  });

  // MIN_SOW starts as a copy of SOW so the never-recomputed diagonal
  // element (d,d) feeds its own unchanged value back in statement 16.
  Pint MIN_SOW(SOW);
  Pint OLD_SOW(ctx, 0);

  init_span.reset();

  Result result;
  result.init_steps = scope.steps();

  // Step 2 — relaxation loop (paper statements 8..20).
  auto relax_span = std::make_optional(obs::open_span(observer, "relax", &machine));
  for (;;) {
    if (result.iterations >= iteration_cap) {
      // The DP is monotone, so exhausting the cap means corrupted state
      // (injected faults, or a caller-supplied cap below the true path
      // length). Report it instead of returning partial SOW/PTN silently.
      result.outcome = SolveOutcome::NonConverged;
      const sim::FaultEvent event{sim::FaultEventKind::NonConvergence,
                                  sim::StepCategory::Alu, Direction::North, destination,
                                  destination, result.iterations};
      machine.report_fault(event);
      break;
    }
    const sim::StepCounter before_iteration = machine.steps();
    PPA_SPAN(observer, "relax_iter", &machine,
             static_cast<std::int64_t>(result.iterations));

    ppc::where(ctx, !row_is_d, [&] {
      // 10..12 — the shared panel core (relax_core.hpp). Here the "panel"
      // is the whole matrix: the carrier is row d and the argmin indices
      // are the wired COL constants.
      detail::panel_candidates(W, row_is_d, options.broadcast_scheme, SOW);
      detail::panel_row_reduce(COL, row_end, variant, SOW, MIN_SOW, PTN);
    });

    Pbool changed(ctx, false);
    ppc::where(ctx, row_is_d, [&] {
      // 15..18: pull the new costs/pointers from the diagonal into row d.
      // (d,d) is excluded: its cost is pinned at 0 and its MIN_SOW was
      // never recomputed; under the two-sided scheme it would also read
      // its own floating injection.
      ppc::where(ctx, !on_diagonal, [&] {
        OLD_SOW = SOW;
        SOW = bcast(MIN_SOW, Direction::South, on_diagonal);
        changed = (SOW != OLD_SOW);
        ppc::where(ctx, changed, [&] {
          PTN = bcast(PTN, Direction::South, on_diagonal);
        });
      });
    });

    ++result.iterations;
    // changed.count() is a free host read (it never charges SIMD steps),
    // so convergence telemetry rides the OR the loop test needs anyway.
    if (options.record_iterations || observer != nullptr) {
      const std::size_t active = changed.count();
      if (options.record_iterations) {
        result.iteration_trace.push_back(
            IterationRecord{active, machine.steps().since(before_iteration)});
      }
      if (observer != nullptr) {
        observer->record_iteration(static_cast<std::int64_t>(destination),
                                   result.iterations, active);
      }
    }

    // 20: while (at least one SOW in row d has changed) — the controller's
    // global-OR response line.
    if (!ppc::any(changed)) break;
  }
  relax_span.reset();

  // Unload row d (controller I/O; not charged as SIMD steps).
  {
    PPA_SPAN(observer, "unload", &machine);
    result.solution.destination = destination;
    result.solution.cost.resize(n);
    result.solution.next.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      result.solution.cost[i] = SOW.at(destination, i);
      result.solution.next[i] = static_cast<graph::Vertex>(PTN.at(destination, i));
    }
  }

  // Steps, fault harvest, outcome policy, solver counters: the epilogue
  // every solver shares (relax_core.hpp).
  scope.settle(graph, {&result, 1});
  return result;
}

Result solve_with_recovery(sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
                           const graph::WeightMatrix& graph, graph::Vertex destination,
                           const Options& options) {
  std::vector<Result> first = detail::attempt(machine, graph, {destination}, [&] {
    std::vector<Result> runs;
    runs.push_back(run_minimum_cost_path(machine, graph, destination, options));
    return runs;
  });
  return detail::recover(machine, oracle, graph, std::move(first.front()), options);
}

Result solve(const graph::WeightMatrix& graph, graph::Vertex destination,
             const Options& options) {
  sim::Machine machine(detail::solver_machine_config(graph, options));
  if (!options.faults.empty()) machine.inject_faults(options.faults);
  std::unique_ptr<sim::Machine> oracle;
  return solve_with_recovery(machine, oracle, graph, destination, options);
}

SourceResult solve_from(const graph::WeightMatrix& graph, graph::Vertex source,
                        const Options& options) {
  const Result toward = solve(graph.transposed(), source, options);
  SourceResult result;
  result.source = source;
  result.infinity = graph.infinity();
  result.cost = toward.solution.cost;
  // In g^T the "next hop toward source" of vertex i is, in g, the vertex
  // that precedes i on the source -> i path.
  result.prev = toward.solution.next;
  result.iterations = toward.iterations;
  result.total_steps = toward.total_steps;
  return result;
}

std::optional<std::vector<graph::Vertex>> extract_path_from(const SourceResult& result,
                                                            graph::Vertex target) {
  const std::size_t n = result.cost.size();
  PPA_REQUIRE(target < n, "target out of range");
  if (result.cost[target] == result.infinity) return std::nullopt;
  graph::McpSolution as_solution;
  as_solution.destination = result.source;
  as_solution.cost = result.cost;
  as_solution.next = result.prev;
  auto reversed = graph::extract_path(as_solution, target);
  if (!reversed) return std::nullopt;
  std::vector<graph::Vertex> path(reversed->rbegin(), reversed->rend());
  return path;
}

}  // namespace ppa::mcp
