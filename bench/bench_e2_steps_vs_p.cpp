// E2 — "The complexity of MCP in PPA is O(p·h), where p is the maximum
// length of the MCPs to the destination vertex d" (paper Sections 3/4;
// the concluding section's "O(p log h)" is treated as a typo — see E3).
//
// Reproduction: fix n = 32 and h = 16, sweep p with the chain_with_direct
// workload (p is exact by construction), and show that total SIMD steps
// are affine in p with an essentially perfect linear fit.
#include "analysis/fit.hpp"
#include "bench_common.hpp"

namespace {

using namespace ppa;

constexpr std::size_t kN = 32;
constexpr int kBits = 16;

void print_tables() {
  bench::print_header("E2 — SIMD steps vs p (max MCP length)",
                      "MCP costs O(p*h) SIMD steps: linear in p at fixed h and n");

  util::Table table("E2: n=32, h=16, chain-with-direct workload",
                    {"p", "iterations", "total steps", "steps/iter", "bus_or cycles"});
  analysis::Series steps_vs_p{"steps(p)", {}, {}};
  for (std::size_t p = 1; p <= 28; p += 3) {
    const auto g = bench::chain_with_direct(kN, p, kBits);
    PPA_REQUIRE(graph::max_mcp_edges(g, 0) == p, "workload p is exact by construction");
    const auto r = mcp::solve(g, 0);
    table.add_row({static_cast<std::int64_t>(p), static_cast<std::int64_t>(r.iterations),
                   static_cast<std::int64_t>(r.total_steps.total()),
                   bench::per_iteration_steps(r.total_steps.total(), r.init_steps.total(),
                                              r.iterations),
                   static_cast<std::int64_t>(r.total_steps.count(sim::StepCategory::BusOr))});
    steps_vs_p.add(static_cast<double>(p), static_cast<double>(r.total_steps.total()));
  }
  bench::emit(table);

  const auto fit = steps_vs_p.fit();
  std::printf("Linear fit: steps = %.1f + %.1f * p, R^2 = %.6f\n", fit.intercept, fit.slope,
              fit.r_squared);
  std::printf("Paper: O(p * h) — expect R^2 ~ 1 (measured above) and slope ~ const * h.\n");
  std::printf("Slope / h = %.2f SIMD steps per (p, bit) unit.\n\n", fit.slope / kBits);
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
