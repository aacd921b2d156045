// E8 — extension experiments (beyond the paper's own evaluation):
//
//   (a) transitive closure / reachability: the boolean-semiring DP
//       replaces the O(h) bit-serial minimum with ONE wired-OR cycle per
//       iteration, so reachability is O(p) steps — independent of h.
//       Compared against the min-plus DP on the same graphs, this
//       measures exactly what the h factor in O(p·h) buys.
//   (b) all-pairs MCP and diameter via n single-destination runs — the
//       O(n·p̄·h) aggregate, plus the O(h) on-machine eccentricity
//       reduction.
#include "bench_common.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/closure.hpp"

namespace {

using namespace ppa;

void print_reachability_table() {
  bench::print_header("E8 — extensions: boolean vs min-plus DP; all-pairs aggregates",
                      "reachability needs 1 bus-OR cycle per iteration (h-independent); "
                      "MCP needs 2h of them");

  util::Table table("E8a: same graphs, reachability vs MCP (per-iteration steps)",
                    {"n", "h", "iters", "reach steps/iter", "mcp steps/iter", "mcp/reach"});
  for (const std::size_t n : {8u, 16u, 32u}) {
    for (const int h : {8, 16, 32}) {
      util::Rng rng(n * 7 + static_cast<std::uint64_t>(h));
      const auto g = graph::random_reachable_digraph(
          n, h, 2.0 / static_cast<double>(n), {1, 20}, 0, rng);
      const auto reach = mcp::solve_reachability(g, 0);
      const auto shortest = mcp::solve(g, 0);
      const double reach_cost =
          bench::per_iteration_steps(reach.total_steps.total(), reach.init_steps.total(),
                                     reach.iterations);
      const double mcp_cost = bench::per_iteration_steps(
          shortest.total_steps.total(), shortest.init_steps.total(), shortest.iterations);
      table.add_row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(h),
                     static_cast<std::int64_t>(shortest.iterations), reach_cost, mcp_cost,
                     mcp_cost / reach_cost});
    }
  }
  bench::emit(table);
  std::printf(
      "Reading: reachability per-iteration cost is constant in h AND n; the MCP column\n"
      "grows linearly in h — the measured price of carrying h-bit costs instead of one\n"
      "reachability bit.\n\n");
}

void print_allpairs_table() {
  util::Table table("E8b: all-pairs MCP (n runs, one reused machine)",
                    {"n", "total iters", "total steps", "steps/destination", "diameter"});
  for (const std::size_t n : {8u, 16u, 24u, 32u}) {
    util::Rng rng(n * 13);
    const auto g = graph::random_reachable_digraph(
        n, 16, 2.0 / static_cast<double>(n), {1, 20}, 0, rng);
    const auto ap = mcp::all_pairs(g);
    table.add_row({static_cast<std::int64_t>(n),
                   static_cast<std::int64_t>(ap.total_iterations),
                   static_cast<std::int64_t>(ap.total_steps.total()),
                   static_cast<double>(ap.total_steps.total()) / static_cast<double>(n),
                   static_cast<std::int64_t>(ap.diameter)});
  }
  bench::emit(table);
}

}  // namespace

int main() {
  print_reachability_table();
  print_allpairs_table();
  return 0;
}
