// The paper's minimum_cost_path() — hand-checked graphs, edge cases, step
// accounting and convergence behaviour.
#include "mcp/mcp.hpp"

#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ppa::mcp {
namespace {

using graph::Vertex;
using graph::WeightMatrix;

TEST(Mcp, TinyGraphExactSolution) {
  const auto g = test::tiny_graph();
  const Result r = solve(g, 3);
  EXPECT_EQ(r.solution.cost, (std::vector<graph::Weight>{5, 3, 1, 0}));
  EXPECT_EQ(r.solution.next, (std::vector<Vertex>{1, 3, 3, 3}));
  test::expect_solves(g, r.solution, "tiny");
}

TEST(Mcp, EveryDestinationOfTinyGraph) {
  const auto g = test::tiny_graph();
  for (Vertex d = 0; d < 4; ++d) {
    const Result r = solve(g, d);
    test::expect_solves(g, r.solution, "tiny d=" + std::to_string(d));
  }
}

TEST(Mcp, SingleVertexGraph) {
  const WeightMatrix g(1, 8);
  const Result r = solve(g, 0);
  EXPECT_EQ(r.solution.cost, std::vector<graph::Weight>{0});
  EXPECT_EQ(r.solution.next, std::vector<Vertex>{0});
  EXPECT_EQ(r.iterations, 1u);
}

TEST(Mcp, EdgelessGraphEverythingUnreachable) {
  const WeightMatrix g(5, 8);
  const Result r = solve(g, 2);
  for (Vertex i = 0; i < 5; ++i) {
    EXPECT_EQ(r.solution.cost[i], i == 2 ? 0u : g.infinity());
  }
  EXPECT_EQ(r.iterations, 1u);  // nothing ever changes
}

TEST(Mcp, PartiallyUnreachable) {
  WeightMatrix g(5, 8);
  g.set(0, 1, 2);
  g.set(1, 2, 2);
  // vertices 3, 4 are isolated from 2.
  g.set(4, 3, 1);
  const Result r = solve(g, 2);
  EXPECT_EQ(r.solution.cost[0], 4u);
  EXPECT_EQ(r.solution.cost[1], 2u);
  EXPECT_EQ(r.solution.cost[2], 0u);
  EXPECT_EQ(r.solution.cost[3], g.infinity());
  EXPECT_EQ(r.solution.cost[4], g.infinity());
  test::expect_solves(g, r.solution, "partial");
}

TEST(Mcp, TwoVertexBothDirections) {
  WeightMatrix g(2, 8);
  g.set(0, 1, 9);
  const Result to1 = solve(g, 1);
  EXPECT_EQ(to1.solution.cost, (std::vector<graph::Weight>{9, 0}));
  const Result to0 = solve(g, 0);
  EXPECT_EQ(to0.solution.cost[1], g.infinity());
}

TEST(Mcp, ZeroWeightEdges) {
  WeightMatrix g(4, 8);
  g.set(0, 1, 0);
  g.set(1, 2, 0);
  g.set(2, 3, 0);
  g.set(0, 3, 1);
  const Result r = solve(g, 3);
  EXPECT_EQ(r.solution.cost, (std::vector<graph::Weight>{0, 0, 0, 0}));
  test::expect_solves(g, r.solution, "zero-weights");
}

TEST(Mcp, ZeroWeightCyclePointersTerminate) {
  WeightMatrix g(4, 8);
  g.set(0, 1, 0);
  g.set(1, 0, 0);
  g.set(0, 3, 2);
  g.set(1, 3, 2);
  const Result r = solve(g, 3);
  test::expect_solves(g, r.solution, "zero-cycle");
}

TEST(Mcp, SaturatedPathsReportInfinity) {
  // Path cost exceeds the 4-bit field: saturates to infinity, i.e.
  // "unreachable" within the machine's number system.
  WeightMatrix g(3, 4);  // infinity = 15
  g.set(0, 1, 10);
  g.set(1, 2, 10);
  const Result r = solve(g, 2);
  EXPECT_EQ(r.solution.cost[1], 10u);
  EXPECT_EQ(r.solution.cost[0], g.infinity());
}

TEST(Mcp, SelfLoopsInInputAreIgnored) {
  WeightMatrix g(3, 8);
  g.set(0, 0, 9);  // self loop — the machine forces the diagonal to 0
  g.set(0, 2, 4);
  g.set(2, 2, 5);
  const Result r = solve(g, 2);
  EXPECT_EQ(r.solution.cost[0], 4u);
  EXPECT_EQ(r.solution.cost[2], 0u);
}

TEST(Mcp, RingWorstCaseIterations) {
  util::Rng rng(4);
  const auto g = graph::directed_ring(8, 16, {1, 5}, rng);
  const Result r = solve(g, 0);
  test::expect_solves(g, r.solution, "ring");
  // p = 7; the DP needs p-1 improving iterations after the 1-edge init,
  // plus one no-change iteration to detect convergence.
  EXPECT_EQ(r.iterations, 7u);
}

TEST(Mcp, IterationsTrackBellmanFordRounds) {
  util::Rng rng(11);
  for (int t = 0; t < 8; ++t) {
    const std::size_t n = 4 + rng.below(14);
    const Vertex d = rng.below(n);
    const auto g = graph::random_reachable_digraph(n, 16, 0.15, {1, 20}, d, rng);
    const auto bf = baseline::bellman_ford_to(g, d);
    const Result r = solve(g, d);
    // The PPA loop runs the same synchronous relaxation: rounds that
    // change something, plus the final no-change detection pass.
    EXPECT_EQ(r.iterations, bf.rounds + 1) << "n=" << n << " d=" << d;
  }
}

TEST(Mcp, IterationTraceRecordsChanges) {
  util::Rng rng(4);
  const auto g = graph::directed_ring(6, 16, {1, 5}, rng);
  Options options;
  options.record_iterations = true;
  const Result r = solve(g, 0, options);
  ASSERT_EQ(r.iteration_trace.size(), r.iterations);
  // On a ring toward 0: each iteration settles exactly one more vertex.
  for (std::size_t k = 0; k + 1 < r.iteration_trace.size(); ++k) {
    EXPECT_EQ(r.iteration_trace[k].changed, 1u) << "iteration " << k;
    EXPECT_GT(r.iteration_trace[k].steps.total(), 0u);
  }
  EXPECT_EQ(r.iteration_trace.back().changed, 0u);
}

TEST(Mcp, StepAccountingIsConsistent) {
  const auto g = test::tiny_graph();
  const Result r = solve(g, 3);
  EXPECT_GT(r.init_steps.total(), 0u);
  EXPECT_GT(r.total_steps.total(), r.init_steps.total());
  EXPECT_EQ(r.total_steps.count(sim::StepCategory::GlobalOr), r.iterations);
}

TEST(Mcp, PerIterationCostIndependentOfDestination) {
  // Same graph, different d: the per-iteration step cost is the same SIMD
  // program, so equal iteration counts give equal step totals.
  util::Rng rng(9);
  const auto g = graph::complete(10, 16, {1, 30}, rng);
  const Result r0 = solve(g, 0);
  const Result r7 = solve(g, 7);
  ASSERT_EQ(r0.iterations, r7.iterations);
  EXPECT_EQ(r0.total_steps.total(), r7.total_steps.total());
}

TEST(Mcp, OrProbeVariantSameCostsFewerBroadcasts) {
  util::Rng rng(13);
  const auto g = graph::random_reachable_digraph(12, 16, 0.2, {1, 25}, 4, rng);
  Options probe;
  probe.min_variant = MinVariant::OrProbe;
  const Result paper = solve(g, 4);
  const Result orprobe = solve(g, 4, probe);
  EXPECT_EQ(paper.solution.cost, orprobe.solution.cost);
  EXPECT_EQ(paper.solution.next, orprobe.solution.next);
  EXPECT_GT(paper.total_steps.count(sim::StepCategory::BusBroadcast),
            orprobe.total_steps.count(sim::StepCategory::BusBroadcast));
}

TEST(Mcp, MachineReuseAccumulatesButReportsPerCall) {
  const auto g = test::tiny_graph(16);
  sim::MachineConfig cfg;
  cfg.n = 4;
  cfg.bits = 16;
  sim::Machine machine(cfg);
  const Result first = minimum_cost_path(machine, g, 3);
  const auto after_first = machine.steps().total();
  const Result second = minimum_cost_path(machine, g, 3);
  EXPECT_EQ(first.total_steps, second.total_steps);
  EXPECT_EQ(machine.steps().total(), 2 * after_first);
}

TEST(Mcp, ContractViolations) {
  const auto g = test::tiny_graph();
  EXPECT_THROW((void)solve(g, 4), util::ContractError);  // destination oob

  sim::MachineConfig cfg;
  cfg.n = 5;  // wrong size
  cfg.bits = 8;
  sim::Machine wrong_size(cfg);
  EXPECT_THROW((void)minimum_cost_path(wrong_size, g, 0), util::ContractError);

  cfg.n = 4;
  cfg.bits = 16;  // wrong field
  sim::Machine wrong_bits(cfg);
  EXPECT_THROW((void)minimum_cost_path(wrong_bits, g, 0), util::ContractError);
}

TEST(Mcp, LinearBusesAreRejectedNotSilentlyWrong) {
  // DESIGN.md §2: the algorithm's broadcasts rely on ring wrap-around.
  // With Linear buses the very first init broadcast leaves part of the
  // array floating, and the machine REFUSES (ContractError) instead of
  // computing garbage.
  const auto g = test::tiny_graph(16);
  sim::MachineConfig cfg;
  cfg.n = 4;
  cfg.bits = 16;
  cfg.topology = sim::BusTopology::Linear;
  sim::Machine machine(cfg);
  EXPECT_THROW((void)minimum_cost_path(machine, g, 2), util::ContractError);
}

TEST(Mcp, TwoSidedSchemeSolvesOnLinearBuses) {
  // The same DP ports to linear buses: every broadcast issued in both
  // directions, OR-probe minima. Exact agreement with Dijkstra.
  util::Rng rng(71);
  for (int t = 0; t < 8; ++t) {
    const std::size_t n = 2 + rng.below(14);
    const Vertex d = rng.below(n);
    const auto g = graph::random_digraph(n, 16, 0.3, {0, 20}, rng);
    sim::MachineConfig cfg;
    cfg.n = n;
    cfg.bits = 16;
    cfg.topology = sim::BusTopology::Linear;
    sim::Machine machine(cfg);
    Options options;
    options.broadcast_scheme = BroadcastScheme::TwoSidedLinear;
    const Result r = minimum_cost_path(machine, g, d, options);
    test::expect_solves(g, r.solution, "two-sided t=" + std::to_string(t));
  }
}

TEST(Mcp, TwoSidedSchemeCostsTwiceTheBroadcasts) {
  util::Rng rng(72);
  const auto g = graph::random_reachable_digraph(10, 16, 0.2, {1, 20}, 3, rng);

  Options ring_options;
  ring_options.min_variant = MinVariant::OrProbe;  // same minima as two-sided
  const Result ring = solve(g, 3, ring_options);

  sim::MachineConfig cfg;
  cfg.n = 10;
  cfg.bits = 16;
  cfg.topology = sim::BusTopology::Linear;
  sim::Machine machine(cfg);
  Options linear_options;
  linear_options.broadcast_scheme = BroadcastScheme::TwoSidedLinear;
  const Result linear = minimum_cost_path(machine, g, 3, linear_options);

  EXPECT_EQ(linear.solution.cost, ring.solution.cost);
  EXPECT_EQ(linear.solution.next, ring.solution.next);
  ASSERT_EQ(linear.iterations, ring.iterations);
  EXPECT_EQ(linear.total_steps.count(sim::StepCategory::BusBroadcast),
            2 * ring.total_steps.count(sim::StepCategory::BusBroadcast));
  EXPECT_EQ(linear.total_steps.count(sim::StepCategory::BusOr),
            ring.total_steps.count(sim::StepCategory::BusOr));
}

TEST(Mcp, TwoSidedSchemeAlsoWorksOnRing) {
  const auto g = test::tiny_graph(16);
  sim::MachineConfig cfg;
  cfg.n = 4;
  cfg.bits = 16;
  sim::Machine machine(cfg);
  Options options;
  options.broadcast_scheme = BroadcastScheme::TwoSidedLinear;
  const Result r = minimum_cost_path(machine, g, 3, options);
  EXPECT_EQ(r.solution.cost, (std::vector<graph::Weight>{5, 3, 1, 0}));
}

TEST(Mcp, DestinationRowConventions) {
  const auto g = test::tiny_graph();
  const Result r = solve(g, 3);
  EXPECT_EQ(r.solution.cost[3], 0u);
  EXPECT_EQ(r.solution.next[3], 3u);
  EXPECT_EQ(r.solution.destination, 3u);
}

}  // namespace
}  // namespace ppa::mcp
