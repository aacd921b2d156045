#include "mcp/closure.hpp"

#include <algorithm>
#include <optional>

#include "mcp/panel_images.hpp"
#include "mcp/panel_sweep.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Flag;
using sim::Word;

/// The machine the one-shot drivers build: array_side clamped to [1, n],
/// with 0 meaning the dense n x n array.
sim::MachineConfig closure_machine(const graph::WeightMatrix& graph,
                                   const ClosureOptions& options) {
  const std::size_t n = graph.size();
  sim::MachineConfig config;
  config.n = options.array_side == 0 ? n : std::min(options.array_side, n);
  config.bits = graph.field().bits();
  config.backend = options.backend;
  return config;
}

/// The dense boolean DP: machine side == vertex count, adjacency resident.
ReachabilityResult full_reachability(sim::Machine& machine, const graph::WeightMatrix& graph,
                                     graph::Vertex destination) {
  const std::size_t n = graph.size();
  PPA_REQUIRE(destination < n, "destination out of range");

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();

  const Pbool EDGE(ctx, detail::adjacency_images(ctx, graph).front());
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Word d = static_cast<Word>(destination);
  const Pbool row_is_d = (ROW == d);
  const Pbool col_is_d = (COL == d);
  const Pbool on_diagonal = (ROW == COL);
  const Pbool row_end = (COL == static_cast<Word>(n - 1));

  // Init: R[d][j] = hasEdge(j, d) — column d transposed into row d, the
  // same two-bus-cycle pattern as the MCP init (and R[d][d] = true via
  // the reflexive diagonal).
  Pbool R(ctx, false);
  const Pbool edges_into_d = ppc::broadcast(EDGE, Direction::East, col_is_d);
  ppc::where(ctx, row_is_d, [&] { R = ppc::broadcast(edges_into_d, Direction::South, on_diagonal); });

  ReachabilityResult result;
  result.destination = destination;
  result.init_steps = machine.steps().since(at_entry);

  for (;;) {
    PPA_REQUIRE(result.iterations < n + 2,
                "reachability failed to converge within the iteration cap");
    Pbool changed(ctx, false);
    Pbool OLD(ctx, false);
    Pbool NEW_R(ctx, false);

    // cand(i,j) = hasEdge(i,j) AND R[d][j]; row-wide OR in ONE bus cycle.
    const Pbool r_by_column = ppc::broadcast(R, Direction::South, row_is_d);
    NEW_R.store_all(ppc::bus_or(EDGE & r_by_column, Direction::West, row_end));

    ppc::where(ctx, row_is_d, [&] {
      OLD = R;
      R = ppc::broadcast(NEW_R, Direction::South, on_diagonal);
      changed = (R != OLD);
    });

    ++result.iterations;
    if (!ppc::any(changed)) break;
  }

  result.total_steps = machine.steps().since(at_entry);
  result.reachable.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.reachable[i] = R.at(destination, i);
  }
  return result;
}

/// The tiled reachability visit (panel_sweep.hpp): one boolean lane. A
/// panel load moves the p adjacency rows plus the reach fragment on the
/// carrier row — p + 1 beats the ledger may hide; on the host it copies
/// the adjacency image packed once per call (panel_images.hpp) and packs
/// only the fragment's carrier row. The relax phase is one
/// column broadcast and ONE wired-OR, and the OR line is cluster-wide, so
/// the readback is 1 beat off column 0. Partials OR-fold host-side; reach
/// growth is monotone (the reflexive diagonal keeps every set bit), so the
/// active-panel schedule is exact for the same Jacobi reason as the MCP's.
class ReachVisit {
 public:
  using Cell = std::uint8_t;
  static constexpr bool kPinDestination = false;

  ReachVisit(ppc::Context& ctx, const graph::WeightMatrix& graph)
      : shared_beats(static_cast<std::uint64_t>(ctx.machine().n()) + 1),
        ctx_(ctx),
        n_(graph.size()),
        p_(ctx.machine().n()),
        blocks_((n_ + p_ - 1) / p_),
        carrier_(ppc::row_of(ctx) == Word{0}),
        row_end_(ppc::col_of(ctx) == static_cast<Word>(p_ - 1)),
        panels_(detail::adjacency_images(ctx, graph)),
        fragment_(ctx, n_) {}

  const std::uint64_t shared_beats;
  static constexpr std::uint64_t lane_beats = 1;

  [[nodiscard]] Cell identity() const { return 0; }
  static void fold(Cell& carry, const Cell& value) { carry |= value; }
  static bool differs(const Cell& next, const Cell& state) { return next != state; }
  void exhausted(const detail::SweepLane<Cell>& lane) {
    PPA_REQUIRE(lane.converged, "reachability failed to converge within the iteration cap");
  }

  void load(std::size_t bi, std::size_t bj,
            const std::vector<detail::SweepLane<Cell>>& lanes) {
    const std::vector<Cell>& reach = lanes.front().state;
    edges_.emplace(ctx_, panels_[bi * blocks_ + bj]);
    reach_.emplace(ctx_, fragment_.pack(bj, Flag{0}, [&](std::size_t gj) { return reach[gj]; }));
  }

  void relax(detail::SweepLane<Cell>& /*lane*/, std::size_t /*bi*/, std::size_t /*bj*/,
             Cell* out, std::size_t bh) {
    const Pbool r_by_col = ppc::broadcast(*reach_, Direction::South, carrier_);
    const Pbool new_r = ppc::bus_or(*edges_ & r_by_col, Direction::West, row_end_);
    ctx_.machine().charge_panel_io(lane_beats);
    new_r.column(0, {out, bh});
  }

 private:
  ppc::Context& ctx_;
  std::size_t n_, p_, blocks_;
  const Pbool carrier_, row_end_;
  std::vector<ppc::PanelImage> panels_;  // adjacency images, packed once per call
  detail::CarrierFragment<Flag> fragment_;
  std::optional<Pbool> edges_, reach_;
};

/// The virtualized boolean DP (docs/tiling.md): the reach row lives with
/// the controller as a host n-vector, and each iteration sweeps the
/// ceil(n/p)^2 adjacency panels in Jacobi order through the panel-sweep
/// driver. Convergence is the host's comparison of the folded row against
/// the previous one — the same count as the dense run's global-OR test,
/// final no-change sweep included.
ReachabilityResult tiled_reachability(sim::Machine& machine, const graph::WeightMatrix& graph,
                                      graph::Vertex destination,
                                      const ClosureOptions& options) {
  const std::size_t n = graph.size();
  const std::size_t p = machine.n();
  PPA_REQUIRE(p >= 1 && p <= n, "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(destination < n, "destination out of range");

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();
  ReachVisit visit(ctx, graph);

  // The dense init's row-d state, computed by the controller (reflexive:
  // the destination reaches itself). No array instructions are issued, so
  // init_steps covers only the visit's constants.
  std::vector<detail::SweepLane<ReachVisit::Cell>> lanes(1);
  lanes[0].destination = destination;
  lanes[0].state.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    lanes[0].state[j] = (j == destination || graph.has_edge(j, destination)) ? 1 : 0;
  }

  ReachabilityResult result;
  result.destination = destination;
  result.init_steps = machine.steps().since(at_entry);

  detail::SweepConfig config;
  config.n = n;
  config.p = p;
  config.iteration_cap = n + 2;
  config.active = options.active_panels;
  const detail::SweepStats stats = detail::panel_sweep(machine, config, lanes, visit);

  result.iterations = lanes[0].iterations;
  result.total_steps = machine.steps().since(at_entry);
  result.panels_visited = stats.visited;
  result.panels_skipped = stats.skipped;
  result.panel_io_saved = stats.saved;
  result.reachable.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.reachable[i] = lanes[0].state[i] != 0;
  }
  return result;
}

}  // namespace

ReachabilityResult reachability(sim::Machine& machine, const graph::WeightMatrix& graph,
                                graph::Vertex destination, const ClosureOptions& options) {
  return machine.n() == graph.size()
             ? full_reachability(machine, graph, destination)
             : tiled_reachability(machine, graph, destination, options);
}

ReachabilityResult solve_reachability(const graph::WeightMatrix& graph,
                                      graph::Vertex destination,
                                      const ClosureOptions& options) {
  sim::Machine machine(closure_machine(graph, options));
  return reachability(machine, graph, destination, options);
}

ClosureResult transitive_closure(const graph::WeightMatrix& graph,
                                 const ClosureOptions& options) {
  const std::size_t n = graph.size();
  sim::Machine machine(closure_machine(graph, options));

  ClosureResult result;
  result.n = n;
  result.closed.assign(n * n, false);
  for (graph::Vertex d = 0; d < n; ++d) {
    const ReachabilityResult run = reachability(machine, graph, d, options);
    result.total_iterations += run.iterations;
    for (graph::Vertex i = 0; i < n; ++i) result.closed[i * n + d] = run.reachable[i];
  }
  result.total_steps = machine.steps();
  return result;
}

}  // namespace ppa::mcp
