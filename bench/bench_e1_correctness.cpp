// E1 — "The proposed algorithm ... has been validated through simulation."
//
// Reproduction: a randomized validation campaign. For every (n, h, family)
// cell we generate seeded graphs, run the PPA MCP on the simulator and
// verify the full solution (costs AND traced paths) against Dijkstra.
// The paper reports no numbers for this; the reproduced artifact is the
// zero-mismatch table plus the observed iteration/step statistics.
#include "baseline/sequential.hpp"
#include "bench_common.hpp"
#include "graph/path.hpp"

namespace {

using namespace ppa;

struct CampaignCell {
  std::size_t n;
  int bits;
  const char* family;
  std::size_t graphs = 0;
  std::size_t mismatches = 0;
  double mean_iterations = 0;
  double mean_steps = 0;
};

graph::WeightMatrix make_family(const char* family, std::size_t n, int bits, util::Rng& rng) {
  if (std::string_view(family) == "random") {
    return graph::random_digraph(n, bits, 4.0 / static_cast<double>(n), {1, 30}, rng);
  }
  if (std::string_view(family) == "reachable") {
    return graph::random_reachable_digraph(n, bits, 2.0 / static_cast<double>(n), {1, 30},
                                           0, rng);
  }
  return graph::banded(n, bits, 3, {1, 30}, rng);
}

CampaignCell run_cell(std::size_t n, int bits, const char* family, int trials) {
  CampaignCell cell{n, bits, family};
  util::Rng rng(std::uint64_t{0x9E1} * n + static_cast<std::uint64_t>(bits));
  double iter_sum = 0;
  double step_sum = 0;
  for (int t = 0; t < trials; ++t) {
    const auto g = make_family(family, n, bits, rng);
    const graph::Vertex d = rng.below(n);
    const auto result = mcp::solve(g, d);
    const auto reference = baseline::dijkstra_to(g, d);
    const auto verdict = graph::verify_solution(g, result.solution, reference.cost);
    cell.graphs++;
    if (!verdict.ok) cell.mismatches++;
    iter_sum += static_cast<double>(result.iterations);
    step_sum += static_cast<double>(result.total_steps.total());
  }
  cell.mean_iterations = iter_sum / static_cast<double>(cell.graphs);
  cell.mean_steps = step_sum / static_cast<double>(cell.graphs);
  return cell;
}

void print_tables() {
  bench::print_header("E1 — correctness campaign (PPA MCP vs Dijkstra)",
                      "the PPA algorithm computes exact minimum cost paths (validated "
                      "through simulation)");

  util::Table table("E1: verified solutions per (n, h, family)",
                    {"n", "h", "family", "graphs", "mismatches", "mean iters", "mean steps"});
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    for (const int bits : {8, 16, 24}) {
      for (const char* family : {"random", "reachable", "banded"}) {
        const auto cell = run_cell(n, bits, family, n >= 32 ? 4 : 10);
        table.add_row({static_cast<std::int64_t>(cell.n), static_cast<std::int64_t>(cell.bits),
                       std::string(cell.family), static_cast<std::int64_t>(cell.graphs),
                       static_cast<std::int64_t>(cell.mismatches), cell.mean_iterations,
                       cell.mean_steps});
      }
    }
  }
  bench::emit(table);
  std::printf("Paper: \"validated through simulation\" (no numbers given).\n");
  std::printf("Measured: every cell must show 0 mismatches.\n\n");
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
