#include "mcp/batch.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "mcp/relax_core.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Word;

/// The batched sweep's visit (panel_sweep.hpp): k lanes share each weight
/// panel. The shared load is the W panel alone — p beats, one charge for
/// the whole batch, hideable by the ledger. Each live lane then pays its
/// own beats inside the relax phase, never hidden: 1 fragment beat, the
/// candidate step of the shared core, a FUSED bit-serial min/argmin, and 2
/// readback beats.
///
/// The fused reduction runs h + ceil(log2(blocks * p)) wired-OR elimination
/// rounds MSB-first over the candidate value bits and then the global
/// column-index bits, with the controller reconstructing both results from
/// the per-row OR lines (an OR round that finds a 0 pins that bit of the
/// minimum to 0 and narrows the candidate set). One survivor per row
/// remains — the minimum with the smallest global index — matching
/// panel_row_reduce's tie-break bit for bit while skipping its
/// routing/spread broadcasts. See docs/batching.md.
class FusedVisit : public detail::McpVisit {
 public:
  FusedVisit(ppc::Context& ctx, const graph::WeightMatrix& graph, BroadcastScheme scheme)
      : McpVisit(ctx, graph, scheme),
        shared_beats(p_),
        h_(static_cast<int>(ctx.machine().field().bits())),
        // Index elimination rounds: enough bits for the largest global
        // column index any panel carries (padding columns of the last block
        // included — they hold infinity candidates and lose every value
        // round unless the whole row is at infinity, where the smallest
        // index still wins).
        idx_bits_(static_cast<int>(std::bit_width(blocks_ * p_ - 1))),
        some_col_(p_) {
    // Global column-index bit planes per column block, MSB-first: PE (r, c)
    // of block bj holds bit j of bj*p + c. Host flags (no field arithmetic,
    // so padding indices never clamp), built once per batch.
    std::vector<sim::Flag> flags(p_ * p_);
    index_bits_.resize(blocks_);
    for (std::size_t bj = 0; bj < blocks_; ++bj) {
      for (int j = idx_bits_ - 1; j >= 0; --j) {
        for (std::size_t r = 0; r < p_; ++r) {
          for (std::size_t c = 0; c < p_; ++c) {
            flags[r * p_ + c] =
                static_cast<sim::Flag>(((bj * p_ + c) >> static_cast<std::size_t>(j)) & 1u);
          }
        }
        index_bits_[bj].emplace_back(ctx, flags);
      }
    }
  }

  const std::uint64_t shared_beats;
  static constexpr std::uint64_t lane_beats = 3;

  void load(std::size_t bi, std::size_t bj,
            const std::vector<detail::SweepLane<Cell>>& /*lanes*/) {
    load_weights(bi, bj);
  }

  void relax(detail::SweepLane<Cell>& lane, std::size_t /*bi*/, std::size_t bj, Cell* out,
             std::size_t bh) {
    // ---- lane fragment: 1 PanelIo row, then the shared candidate step.
    Pint sow(ctx_, fragment(lane, bj));
    machine_.charge_panel_io(1);
    candidates(sow);

    // ---- fused min/argmin elimination with host readback. The controller
    // reads each round's per-row OR line off column 0 (the row cluster
    // spans the whole row, so any column works): a round with no
    // surviving 0 pins that result bit to 1.
    std::fill(out, out + bh, Cell{});
    Pbool enable(ctx_, true);
    for (int j = h_ - 1; j >= 0; --j) {
      const Pbool probe = enable & !sow.bit(j);
      const Pbool some = ppc::bus_or(probe, Direction::West, row_end_);
      some.column(0, {some_col_.data(), bh});
      for (std::size_t r = 0; r < bh; ++r) {
        if (some_col_[r] == 0) out[r].min |= Word{1} << j;
      }
      ppc::where(ctx_, some, [&] { enable = probe; });
    }
    for (int j = idx_bits_ - 1; j >= 0; --j) {
      const Pbool probe =
          enable & !index_bits_[bj][static_cast<std::size_t>(idx_bits_ - 1 - j)];
      const Pbool some = ppc::bus_or(probe, Direction::West, row_end_);
      some.column(0, {some_col_.data(), bh});
      for (std::size_t r = 0; r < bh; ++r) {
        if (some_col_[r] == 0) out[r].arg |= Word{1} << j;
      }
      ppc::where(ctx_, some, [&] { enable = probe; });
    }
    // ---- lane readback: min + argmin columns, 2 PanelIo rows.
    machine_.charge_panel_io(2);
  }

 private:
  int h_, idx_bits_;
  std::vector<std::vector<Pbool>> index_bits_;
  std::vector<sim::Flag> some_col_;  // column-0 readback scratch
};

/// One batched group on `machine`: every destination rides one shared
/// sweep (the full array is the 1-block case). Host-side convergence: a
/// lane freezes when its own row stops changing, and the pass ends when
/// all have. Steps, masking and fault events are the group's, shared by
/// every member Result (docs/batching.md).
std::vector<Result> run_batched(sim::Machine& machine, const graph::WeightMatrix& graph,
                                const std::vector<graph::Vertex>& destinations,
                                const Options& options) {
  const std::size_t n = graph.size();
  PPA_REQUIRE(machine.n() >= 1 && machine.n() <= n,
              "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  PPA_REQUIRE(machine.field().representable(n - 1),
              "vertex indices must be representable in the h-bit field");
  for (const graph::Vertex d : destinations) {
    PPA_REQUIRE(d < n, "destination out of range");
  }

  obs::Collector* const observer = options.observer;
  detail::SolveScope scope(machine, options, "solve_batch",
                           static_cast<std::int64_t>(destinations.size()));
  ppc::Context ctx(machine);
  if (observer != nullptr) {
    observer->metrics().counter(obs::metric::kSolverBatches).add(1);
    observer->metrics().counter(obs::metric::kSolverBatchWidth).add(destinations.size());
  }

  auto init_span = std::make_optional(obs::open_span(observer, "init", &machine));
  std::vector<detail::SweepLane<detail::MinArg>> lanes = detail::mcp_lanes(graph, destinations);
  FusedVisit visit(ctx, graph, options.broadcast_scheme);
  init_span.reset();
  const sim::StepCounter init_steps = scope.steps();

  detail::panel_sweep(machine, detail::mcp_sweep_config(machine, graph, options), lanes,
                      visit);

  std::vector<Result> results;
  results.reserve(lanes.size());
  for (detail::SweepLane<detail::MinArg>& lane : lanes) {
    results.push_back(detail::mcp_lane_result(lane, init_steps));
  }
  scope.settle(graph, results);
  return results;
}

}  // namespace

std::vector<Result> solve_batch_on(sim::Machine& machine,
                                   std::unique_ptr<sim::Machine>& oracle,
                                   const graph::WeightMatrix& graph,
                                   const std::vector<graph::Vertex>& destinations,
                                   const Options& options) {
  std::vector<Result> out;
  out.reserve(destinations.size());
  const std::size_t width = options.batch_width;

  for (std::size_t start = 0; start < destinations.size();) {
    const std::size_t stop =
        width <= 1 ? start + 1 : std::min(start + width, destinations.size());
    if (stop - start == 1) {
      // Degenerate group: the per-destination engine IS the batch.
      out.push_back(solve_with_recovery(machine, oracle, graph, destinations[start],
                                        options));
      start = stop;
      continue;
    }
    const std::vector<graph::Vertex> group(destinations.begin() +
                                               static_cast<std::ptrdiff_t>(start),
                                           destinations.begin() +
                                               static_cast<std::ptrdiff_t>(stop));
    // A fault that aborts the shared pass degrades every member together;
    // then each failed member retries ALONE on the shared fault-free
    // oracle — the rest of the batch keeps its first-pass rows untouched.
    for (Result& first : detail::attempt(machine, graph, group, [&] {
           return run_batched(machine, graph, group, options);
         })) {
      out.push_back(detail::recover(machine, oracle, graph, std::move(first), options));
    }
    start = stop;
  }
  return out;
}

std::vector<Result> solve_batch(const graph::WeightMatrix& graph,
                                const std::vector<graph::Vertex>& destinations,
                                const Options& options) {
  if (destinations.empty()) return {};
  sim::Machine machine(detail::solver_machine_config(graph, options));
  if (!options.faults.empty()) machine.inject_faults(options.faults);
  std::unique_ptr<sim::Machine> oracle;
  return solve_batch_on(machine, oracle, graph, destinations, options);
}

}  // namespace ppa::mcp
