// E4 — the reconfiguration advantage: per-iteration SIMD cost is
// independent of the array side n on the PPA ("it shortens, with respect
// to the simple mesh, the distance between the nodes that have to
// communicate by short-circuiting all the intermediate nodes"), while the
// plain mesh pays Θ(n) per iteration for the same DP.
//
// Reproduction: sweep n at fixed h and fixed p, measure per-iteration
// steps for PPA and mesh, fit the mesh against n (linear) and check the
// PPA series is flat.
#include "analysis/fit.hpp"
#include "baseline/mesh_mcp.hpp"
#include "bench_common.hpp"

namespace {

using namespace ppa;

constexpr int kBits = 16;
constexpr std::size_t kP = 3;

void print_tables() {
  bench::print_header("E4 — per-iteration SIMD steps vs array side n",
                      "PPA per-iteration cost is O(h), independent of n; the plain mesh "
                      "pays Theta(n)");

  util::Table table("E4: h=16, p=3, chain-with-direct workload",
                    {"n", "ppa steps/iter", "mesh steps/iter", "mesh/ppa ratio"});
  analysis::Series ppa_series{"ppa", {}, {}};
  analysis::Series mesh_series{"mesh", {}, {}};
  for (const std::size_t n : {6u, 8u, 12u, 16u, 24u, 32u, 48u, 64u}) {
    const auto g = bench::chain_with_direct(n, kP, kBits);
    const auto ppa_result = mcp::solve(g, 0);
    const auto mesh_result = baseline::mesh_solve(g, 0);
    const double ppa_cost = bench::per_iteration_steps(
        ppa_result.total_steps.total(), ppa_result.init_steps.total(), ppa_result.iterations);
    const double mesh_cost =
        bench::per_iteration_steps(mesh_result.total_steps.total(),
                                   mesh_result.init_steps.total(), mesh_result.iterations);
    table.add_row({static_cast<std::int64_t>(n), ppa_cost, mesh_cost, mesh_cost / ppa_cost});
    ppa_series.add(static_cast<double>(n), ppa_cost);
    mesh_series.add(static_cast<double>(n), mesh_cost);
  }
  bench::emit(table);

  const auto mesh_fit = mesh_series.fit();
  std::printf("PPA spread (max/min per-iteration steps): %.3f — flat, n-independent.\n",
              analysis::spread_ratio(ppa_series.y));
  std::printf("Mesh fit: steps/iter = %.1f + %.2f*n, R^2 = %.6f — Theta(n).\n\n",
              mesh_fit.intercept, mesh_fit.slope, mesh_fit.r_squared);
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
