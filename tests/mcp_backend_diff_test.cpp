// Differential fuzzing of the two execution backends on the full MCP
// algorithm: for every generated workload the bit-plane run must produce
// a bit-identical solution (SOW costs AND PTN pointers) and an IDENTICAL
// step counter (componentwise, including the max_segment logs) to the
// word-backend run — the word backend is the oracle. Failures print the
// generator parameters, so any case reproduces from the log line alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/mcp.hpp"
#include "mcp/tiled.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::Word;

/// Runs solve() under both backends with otherwise identical options and
/// asserts full observable equality.
void expect_backends_identical(const graph::WeightMatrix& g, graph::Vertex destination,
                               mcp::Options options, const std::string& label) {
  options.backend = sim::ExecBackend::Words;
  const mcp::Result word = mcp::solve(g, destination, options);
  options.backend = sim::ExecBackend::BitPlane;
  const mcp::Result plane = mcp::solve(g, destination, options);

  ASSERT_EQ(plane.solution.cost, word.solution.cost) << label;
  ASSERT_EQ(plane.solution.next, word.solution.next) << label;
  ASSERT_EQ(plane.iterations, word.iterations) << label;
  ASSERT_TRUE(plane.init_steps == word.init_steps) << label;
  ASSERT_TRUE(plane.total_steps == word.total_steps)
      << label << ": step counters diverged (word " << word.total_steps.summary()
      << " vs bitplane " << plane.total_steps.summary() << ")";
  // The word backend itself is validated against Dijkstra here, so the
  // chain oracle -> plane is anchored to ground truth too.
  test::expect_solves(g, word.solution, label + " (word oracle)");
}

TEST(McpBackendDiff, RandomGraphsAcrossSizesAndWidths) {
  // Sides straddle the 64-lane plane-word boundary; widths cover the
  // 1..32-bit field range. Density sweeps from near-empty (mostly
  // unreachable, SOW pinned at infinity) to dense.
  struct Case {
    std::size_t n;
    int bits;
    double density;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {1, 8, 0.5, 1},   {2, 4, 0.5, 2},   {3, 2, 0.9, 3},    {7, 6, 0.3, 4},
      {13, 16, 0.2, 5}, {16, 8, 0.05, 6}, {24, 12, 0.15, 7}, {33, 6, 0.1, 8},
      {63, 8, 0.04, 9}, {64, 8, 0.04, 10}, {65, 8, 0.04, 11}, {70, 16, 0.03, 12},
  };
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    const Word hi = std::max<Word>(1, std::min<Word>(30, (1u << c.bits) - 2));
    const auto g = graph::random_digraph(c.n, c.bits, c.density, {1, hi}, rng);
    std::ostringstream label;
    label << "random n=" << c.n << " bits=" << c.bits << " density=" << c.density
          << " seed=" << c.seed;
    const graph::Vertex dest = c.n > 1 ? static_cast<graph::Vertex>(rng.below(c.n)) : 0;
    expect_backends_identical(g, dest, {}, label.str());
  }
}

TEST(McpBackendDiff, SaturatingWeightsNearInfinity) {
  // Edge weights one step below the field's infinity: nearly every 2-edge
  // path saturates, exercising the add carry chain and the infinity
  // conventions identically on both backends.
  for (const int bits : {4, 5, 8}) {
    const Word inf = (1u << bits) - 1;
    for (const std::uint64_t seed : {21u, 22u}) {
      util::Rng rng(seed);
      const auto g = graph::random_digraph(9, bits, 0.4, {inf - 1, inf - 1}, rng);
      std::ostringstream label;
      label << "maxint bits=" << bits << " seed=" << seed;
      expect_backends_identical(g, 0, {}, label.str());
    }
  }
}

TEST(McpBackendDiff, StructuredFamilies) {
  util::Rng rng(99);
  const graph::WeightRange range{1, 20};
  const auto ring = graph::directed_ring(17, 8, range, rng);
  expect_backends_identical(ring, 5, {}, "ring n=17 seed=99");
  const auto grid = graph::grid_mesh(5, 5, 8, range, rng);
  expect_backends_identical(grid, 12, {}, "grid 5x5 seed=99");
  const auto band = graph::banded(21, 8, 3, range, rng);
  expect_backends_identical(band, 20, {}, "banded n=21 seed=99");
  const auto geo = graph::geometric(18, 10, 0.4, range, rng);
  expect_backends_identical(geo, 0, {}, "geometric n=18 seed=99");
  const auto full = graph::complete(12, 12, range, rng);
  expect_backends_identical(full, 3, {}, "complete n=12 seed=99");
  const auto reachable = graph::random_reachable_digraph(40, 16, 0.05, {1, 30}, 0, rng);
  expect_backends_identical(reachable, 0, {}, "reachable n=40 seed=99");
  // Side 33 (a ragged plane word), full array and tiled on an 8x8 array.
  util::Rng rng33(83);
  const auto odd = graph::random_reachable_digraph(33, 8, 0.15, {1, 20}, 6, rng33);
  expect_backends_identical(odd, 6, {}, "reachable n=33 seed=83");
  mcp::Options tiled;
  tiled.array_side = 8;
  expect_backends_identical(odd, 6, tiled, "reachable n=33 seed=83 side=8");
}

TEST(McpBackendDiff, ReadZeroPolicyOnLinearBuses) {
  // UndrivenPolicy::ReadZero on LINEAR buses: undriven reads return 0
  // instead of throwing, so the policy's masking takes a code path the
  // default Error policy never reaches — it must still be bit-identical
  // across backends. Machines are built by hand because solve() always
  // configures Ring + Error.
  util::Rng rng(41);
  const auto g = graph::random_reachable_digraph(14, 8, 0.25, {1, 20}, 3, rng);
  const auto run = [&](sim::ExecBackend backend) {
    sim::MachineConfig config;
    config.n = g.size();
    config.bits = g.field().bits();
    config.topology = sim::BusTopology::Linear;
    config.undriven = sim::UndrivenPolicy::ReadZero;
    config.backend = backend;
    sim::Machine machine(config);
    mcp::Options options;
    options.broadcast_scheme = mcp::BroadcastScheme::TwoSidedLinear;
    return mcp::minimum_cost_path(machine, g, 3, options);
  };
  const mcp::Result word = run(sim::ExecBackend::Words);
  const mcp::Result plane = run(sim::ExecBackend::BitPlane);
  ASSERT_EQ(plane.solution.cost, word.solution.cost);
  ASSERT_EQ(plane.solution.next, word.solution.next);
  ASSERT_EQ(plane.iterations, word.iterations);
  ASSERT_TRUE(plane.total_steps == word.total_steps)
      << "ReadZero linear: step counters diverged (word " << word.total_steps.summary()
      << " vs bitplane " << plane.total_steps.summary() << ")";
  test::expect_solves(g, word.solution, "ReadZero linear (word oracle)");
}

TEST(McpBackendDiff, AlgorithmVariants) {
  // Both row-minimum variants and both broadcast schemes, with the
  // per-iteration trace on (it reads changed.count() every iteration, an
  // extra host observation that must not disturb either backend).
  util::Rng rng(7);
  const auto g = graph::random_reachable_digraph(19, 8, 0.2, {1, 25}, 2, rng);
  for (const auto variant : {mcp::MinVariant::Paper, mcp::MinVariant::OrProbe}) {
    for (const auto scheme :
         {mcp::BroadcastScheme::SingleRing, mcp::BroadcastScheme::TwoSidedLinear}) {
      mcp::Options options;
      options.min_variant = variant;
      options.broadcast_scheme = scheme;
      options.record_iterations = true;
      std::ostringstream label;
      label << "variant=" << (variant == mcp::MinVariant::Paper ? "paper" : "orprobe")
            << " scheme="
            << (scheme == mcp::BroadcastScheme::SingleRing ? "ring" : "two-sided");
      expect_backends_identical(g, 2, options, label.str());
    }
  }
}

}  // namespace
}  // namespace ppa
