// A sanitizer-sized sibling of ActivePanels.HugeSparseGraphBitIdentical-
// AndStrictlyCheaper (mcp_active_panels_test.cpp): n = 512 on a 64 x 64
// array, 8^2 weight and adjacency panels per sweep, so `ctest --preset
// asan` runs the panel-image loads of both schedules on both backends in
// seconds. Same assertions as the n = 4096 original, plus the tiled
// reachability on the same graph.
#include <gtest/gtest.h>

#include <cstdint>

#include "active_panels.hpp"
#include "graph/generators.hpp"
#include "mcp/closure.hpp"
#include "sim/step_counter.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::StepCategory;
using test::expect_same_rows;
using test::run_tiled;
using test::ScheduledRun;

TEST(ActivePanelsSanitize, SparseGraphBitIdenticalAndStrictlyCheaper) {
  const std::size_t n = 512;
  const std::size_t p = 64;
  util::Rng rng(512);
  const auto g = graph::power_law(n, 16, 2, 0.1, {1, 30}, rng);
  const graph::Vertex destination = 0;

  const ScheduledRun dense_word = run_tiled(g, destination, p, sim::ExecBackend::Words, false);
  const ScheduledRun active_word = run_tiled(g, destination, p, sim::ExecBackend::Words, true);
  const ScheduledRun dense_plane =
      run_tiled(g, destination, p, sim::ExecBackend::BitPlane, false);
  const ScheduledRun active_plane =
      run_tiled(g, destination, p, sim::ExecBackend::BitPlane, true);

  expect_same_rows(dense_word.result, active_word.result, "word: dense vs active");
  expect_same_rows(dense_word.result, dense_plane.result, "dense: word vs plane");
  expect_same_rows(active_word.result, active_plane.result, "active: word vs plane");
  ASSERT_TRUE(dense_word.result.total_steps == dense_plane.result.total_steps);
  ASSERT_TRUE(active_word.result.total_steps == active_plane.result.total_steps);
  EXPECT_EQ(dense_word.result.outcome, mcp::SolveOutcome::Unchecked);

  const std::uint64_t blocks = (n + p - 1) / p;
  const std::uint64_t formula = static_cast<std::uint64_t>(dense_word.result.iterations) *
                                blocks * blocks * (p + 3);
  const std::uint64_t active_io = active_word.result.total_steps.count(StepCategory::PanelIo);
  EXPECT_EQ(dense_word.result.total_steps.count(StepCategory::PanelIo), formula);
  EXPECT_LT(active_io, formula);
  EXPECT_EQ(active_io + active_word.saved, formula);
  EXPECT_EQ(active_word.visited + active_word.skipped,
            static_cast<std::uint64_t>(active_word.result.iterations) * blocks * blocks);
  EXPECT_GT(active_word.skipped, 0u);
  EXPECT_EQ(dense_word.skipped, 0u);
}

TEST(ActivePanelsSanitize, TiledReachabilityBitIdenticalAcrossSchedulesAndBackends) {
  const std::size_t n = 512;
  util::Rng rng(512);
  const auto g = graph::power_law(n, 16, 2, 0.1, {1, 30}, rng);
  const graph::Vertex destination = 0;

  mcp::ClosureOptions options;
  options.array_side = 64;
  options.active_panels = false;
  const mcp::ReachabilityResult dense = mcp::solve_reachability(g, destination, options);
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    for (const bool active : {false, true}) {
      options.backend = backend;
      options.active_panels = active;
      const mcp::ReachabilityResult run = mcp::solve_reachability(g, destination, options);
      EXPECT_EQ(run.reachable, dense.reachable) << "active=" << active;
      EXPECT_EQ(run.iterations, dense.iterations) << "active=" << active;
      EXPECT_EQ(run.total_steps.count(StepCategory::PanelIo) + run.panel_io_saved,
                dense.total_steps.count(StepCategory::PanelIo));
    }
  }
}

}  // namespace
}  // namespace ppa
