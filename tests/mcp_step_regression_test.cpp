// Step-count regression guard. The SIMD step totals of the MCP algorithm
// are a pure function of the workload (graph + destination + options) —
// they must not move when the host-side implementation changes (new
// backend, new sweeps, refactors). These are the E6 benchmark workloads
// (random_reachable_digraph seeded with n, density 2/n, h = 16, dest 0);
// the constants were produced by the seed implementation and any change
// to them is a semantic change to the simulated machine, not a perf
// regression — it must be deliberate and explained in the commit.
#include <gtest/gtest.h>

#include <ostream>

#include "graph/generators.hpp"
#include "mcp/mcp.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

struct Pinned {
  std::size_t n;
  std::size_t iterations;
  std::uint64_t total_steps;
  const char* summary;
};

// gtest prints a parameter into the ctest name; print the workload size,
// not the struct's bytes (its `summary` pointer differs between builds).
void PrintTo(const Pinned& pin, std::ostream* os) { *os << "n" << pin.n; }

graph::WeightMatrix bench_graph(std::size_t n) {
  util::Rng rng(n);
  return graph::random_reachable_digraph(n, 16, 2.0 / static_cast<double>(n), {1, 30}, 0,
                                         rng);
}

class McpStepRegression : public ::testing::TestWithParam<Pinned> {};

TEST_P(McpStepRegression, CanonicalCountsHold) {
  const Pinned& pin = GetParam();
  const auto g = bench_graph(pin.n);
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    mcp::Options options;
    options.backend = backend;
    const mcp::Result r = mcp::solve(g, 0, options);
    const char* name = backend == sim::ExecBackend::BitPlane ? "bitplane" : "word";
    EXPECT_EQ(r.iterations, pin.iterations) << "n=" << pin.n << " backend=" << name;
    EXPECT_EQ(r.total_steps.total(), pin.total_steps) << "n=" << pin.n << " backend=" << name;
    EXPECT_EQ(r.total_steps.summary(), pin.summary) << "n=" << pin.n << " backend=" << name;
  }
}

// Per-iteration cost depends only on h (each iteration is a fixed
// instruction sequence), so n = 64 and n = 128 — which happen to converge
// in the same 8 iterations — pin the SAME totals; the n = 128 row is the
// single-destination workload of the E6 backend table.
INSTANTIATE_TEST_SUITE_P(
    BenchWorkloads, McpStepRegression,
    ::testing::Values(
        Pinned{32, 4, 1045, "steps=1045 alu=883 bus_bcast=30 bus_or=128 global_or=4"},
        Pinned{64, 8, 2069, "steps=2069 alu=1747 bus_bcast=58 bus_or=256 global_or=8"},
        Pinned{128, 8, 2069, "steps=2069 alu=1747 bus_bcast=58 bus_or=256 global_or=8"}));

}  // namespace
}  // namespace ppa
