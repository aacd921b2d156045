#include "mcp/tiled.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "mcp/relax_core.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pint;
using sim::Word;

/// The tiled sweep's visit (panel_sweep.hpp): one lane and the paper's
/// reducer. A panel load moves the p x p weight panel plus the lane's SOW
/// fragment on the carrier row — p + 1 beats the ledger may hide behind
/// the previous panel's relax phase. The relax phase is the shared core
/// (relax_core.hpp: column broadcast + saturating add + bit-serial row
/// min/argmin over GLOBAL column indices), then one column readback per
/// result register (2 beats; min / argmin are cluster-wide, so column 0
/// suffices).
class PaperVisit : public detail::McpVisit {
 public:
  PaperVisit(ppc::Context& ctx, const graph::WeightMatrix& graph, BroadcastScheme scheme,
             MinVariant variant)
      : McpVisit(ctx, graph, scheme),
        shared_beats(static_cast<std::uint64_t>(p_) + 1),
        variant_(variant),
        min_col_(p_),
        arg_col_(p_) {}

  const std::uint64_t shared_beats;
  static constexpr std::uint64_t lane_beats = 2;

  void load(std::size_t bi, std::size_t bj,
            const std::vector<detail::SweepLane<Cell>>& lanes) {
    load_weights(bi, bj);
    sow_.emplace(ctx_, fragment(lanes.front(), bj));
  }

  void relax(detail::SweepLane<Cell>& /*lane*/, std::size_t /*bi*/, std::size_t bj, Cell* out,
             std::size_t bh) {
    // Global column indices for the argmin: one ALU op per visit.
    const Pint index = col_ + static_cast<Word>(bj * p_);
    Pint min(ctx_, inf_);
    Pint arg(ctx_, Word{0});
    candidates(*sow_);
    detail::panel_row_reduce(index, row_end_, variant_, *sow_, min, arg);
    machine_.charge_panel_io(lane_beats);
    min.column(0, {min_col_.data(), bh});
    arg.column(0, {arg_col_.data(), bh});
    for (std::size_t r = 0; r < bh; ++r) out[r] = Cell{min_col_[r], arg_col_[r]};
  }

 private:
  MinVariant variant_;
  std::optional<Pint> sow_;
  std::vector<Word> min_col_, arg_col_;  // column-0 readback scratch
};

}  // namespace

std::size_t effective_array_side(const Options& options, std::size_t n) {
  if (options.array_side == 0) return n;
  return std::min(options.array_side, n);
}

Result run_minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                             graph::Vertex destination, const Options& options) {
  return machine.n() == graph.size()
             ? minimum_cost_path(machine, graph, destination, options)
             : tiled_minimum_cost_path(machine, graph, destination, options);
}

Result tiled_minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                               graph::Vertex destination, const Options& options) {
  const std::size_t n = graph.size();
  PPA_REQUIRE(machine.n() >= 1 && machine.n() <= n,
              "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  PPA_REQUIRE(destination < n, "destination out of range");
  // PTN carries GLOBAL column indices through the argmin.
  PPA_REQUIRE(machine.field().representable(n - 1),
              "vertex indices must be representable in the h-bit field");
  // Same variant forcing as the full-array solver (see minimum_cost_path).
  const MinVariant variant = options.broadcast_scheme == BroadcastScheme::TwoSidedLinear
                                 ? MinVariant::OrProbe
                                 : options.min_variant;

  detail::SolveScope scope(machine, options, "solve", static_cast<std::int64_t>(destination));
  ppc::Context ctx(machine);

  // Initialization: the row-d state lives with the controller and runs
  // no array instructions, so init_steps only covers wiring the physical
  // constants of the visit.
  auto init_span = std::make_optional(obs::open_span(options.observer, "init", &machine));
  std::vector<detail::SweepLane<detail::MinArg>> lanes = detail::mcp_lanes(graph, {destination});
  PaperVisit visit(ctx, graph, options.broadcast_scheme, variant);
  init_span.reset();
  const sim::StepCounter init_steps = scope.steps();

  detail::panel_sweep(machine, detail::mcp_sweep_config(machine, graph, options), lanes,
                      visit);

  Result result;
  {
    PPA_SPAN(options.observer, "unload", &machine);
    result = detail::mcp_lane_result(lanes.front(), init_steps);
  }
  scope.settle(graph, {&result, 1});
  return result;
}

}  // namespace ppa::mcp
