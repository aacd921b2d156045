// Active-panel scheduling (docs/tiling.md "Active panels"): the ISSUE's
// acceptance gate. A huge sparse graph — n = 4096 vertices virtualized on
// a 64 x 64 physical array, 64^2 = 4096 weight panels per sweep — must
// produce bit-identical rows, iteration counts and outcomes whether the
// tiled sweep visits every panel (active_panels = false, the dense
// schedule) or only the dirty ones, on BOTH execution backends; the dense
// run charges exactly I * ceil(n/p)^2 * (p+3) PanelIo beats, the active
// run strictly fewer on a sparse graph, and the ledger closes the gap:
// charged + saved == the dense formula, beat for beat.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "active_panels.hpp"
#include "graph/generators.hpp"
#include "sim/step_counter.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::StepCategory;
using test::expect_same_rows;
using test::run_tiled;
using test::ScheduledRun;

TEST(ActivePanels, HugeSparseGraphBitIdenticalAndStrictlyCheaper) {
  // 4096 vertices on a 64 x 64 array. The power-law family keeps the
  // iteration count low (hub-dominated diameter) and the activity sparse,
  // so the dense schedule's 4096 panel visits per sweep are mostly waste.
  const std::size_t n = 4096;
  const std::size_t p = 64;
  util::Rng rng(4096);
  const auto g = graph::power_law(n, 16, 2, 0.1, {1, 30}, rng);
  const graph::Vertex destination = 0;

  const ScheduledRun dense_word =
      run_tiled(g, destination, p, sim::ExecBackend::Words, false);
  const ScheduledRun active_word =
      run_tiled(g, destination, p, sim::ExecBackend::Words, true);
  const ScheduledRun dense_plane =
      run_tiled(g, destination, p, sim::ExecBackend::BitPlane, false);
  const ScheduledRun active_plane =
      run_tiled(g, destination, p, sim::ExecBackend::BitPlane, true);

  // Bit-identical rows, iterations and outcomes across schedules and
  // backends; bit-identical step counters across backends per schedule.
  expect_same_rows(dense_word.result, active_word.result, "word: dense vs active");
  expect_same_rows(dense_word.result, dense_plane.result, "dense: word vs plane");
  expect_same_rows(active_word.result, active_plane.result, "active: word vs plane");
  ASSERT_TRUE(dense_word.result.total_steps == dense_plane.result.total_steps)
      << "dense schedule diverged across backends";
  ASSERT_TRUE(active_word.result.total_steps == active_plane.result.total_steps)
      << "active schedule diverged across backends";
  EXPECT_EQ(dense_word.result.outcome, mcp::SolveOutcome::Unchecked);

  // The dense schedule pins the exact formula; the active one must charge
  // STRICTLY less here and close its ledger against the formula.
  const std::uint64_t blocks = (n + p - 1) / p;
  const std::uint64_t formula = static_cast<std::uint64_t>(dense_word.result.iterations) *
                                blocks * blocks * (p + 3);
  const std::uint64_t dense_io = dense_word.result.total_steps.count(StepCategory::PanelIo);
  const std::uint64_t active_io =
      active_word.result.total_steps.count(StepCategory::PanelIo);
  EXPECT_EQ(dense_io, formula);
  EXPECT_LT(active_io, formula) << "a sparse graph must skip and hide panel beats";
  EXPECT_EQ(active_io + active_word.saved, formula)
      << "the ledger must account for every avoided beat";
  EXPECT_EQ(active_word.visited + active_word.skipped,
            static_cast<std::uint64_t>(active_word.result.iterations) * blocks * blocks);
  EXPECT_GT(active_word.skipped, 0u);
  EXPECT_EQ(dense_word.visited,
            static_cast<std::uint64_t>(dense_word.result.iterations) * blocks * blocks);
  EXPECT_EQ(dense_word.skipped, 0u);
  EXPECT_EQ(dense_word.saved, 0u);
}

TEST(ActivePanels, RingOfCliquesIsTheLocalizedBestCase) {
  // 16 cliques of 8 vertices on an 8 x 8 array: clique k IS column block
  // k/1... with clique_size == p each clique occupies exactly one block,
  // and the relaxation wavefront crosses one gateway per iteration — so
  // after the first sweeps only O(1) of the 16 column blocks stay dirty
  // and the skip ratio approaches (blocks - O(1)) / blocks.
  const std::size_t cliques = 16;
  const std::size_t p = 8;
  util::Rng rng(99);
  const auto g = graph::ring_of_cliques(cliques, p, 12, {1, 20}, rng);
  const graph::Vertex destination = 3;

  const ScheduledRun dense = run_tiled(g, destination, p, sim::ExecBackend::Words, false);
  const ScheduledRun active = run_tiled(g, destination, p, sim::ExecBackend::Words, true);
  expect_same_rows(dense.result, active.result, "ring-of-cliques dense vs active");

  const std::uint64_t blocks = cliques;  // n = cliques * p, exactly one block each
  const std::uint64_t all_panels =
      static_cast<std::uint64_t>(active.result.iterations) * blocks * blocks;
  EXPECT_EQ(active.visited + active.skipped, all_panels);
  // The wavefront keeps at most a handful of blocks dirty per iteration;
  // the dense schedule visits all 256. Half is a very loose floor.
  EXPECT_GT(active.skipped, all_panels / 2)
      << "localized activity must skip most panel visits";

  const std::uint64_t formula =
      static_cast<std::uint64_t>(dense.result.iterations) * blocks * blocks * (p + 3);
  EXPECT_EQ(dense.result.total_steps.count(StepCategory::PanelIo), formula);
  EXPECT_EQ(active.result.total_steps.count(StepCategory::PanelIo) + active.saved,
            formula);
}

TEST(ActivePanels, DoubleBufferingAloneStaysExactWhenNothingSkips) {
  // A dense random graph keeps every column block dirty until the last
  // sweep, so almost nothing skips — the saving then comes from the
  // double-buffered loads (beats hidden behind the previous panel's relax
  // phase), and the ledger must still close exactly.
  util::Rng rng(7);
  const std::size_t n = 24;
  const std::size_t p = 6;
  const auto g = graph::random_digraph(n, 8, 0.6, {1, 15}, rng);
  const ScheduledRun dense = run_tiled(g, 5, p, sim::ExecBackend::Words, false);
  const ScheduledRun active = run_tiled(g, 5, p, sim::ExecBackend::Words, true);
  expect_same_rows(dense.result, active.result, "dense-graph dense vs active");

  const std::uint64_t blocks = (n + p - 1) / p;
  const std::uint64_t formula =
      static_cast<std::uint64_t>(dense.result.iterations) * blocks * blocks * (p + 3);
  const std::uint64_t active_io =
      active.result.total_steps.count(StepCategory::PanelIo);
  EXPECT_EQ(dense.result.total_steps.count(StepCategory::PanelIo), formula);
  EXPECT_LT(active_io, formula) << "overlap must hide load beats even with no skips";
  EXPECT_EQ(active_io + active.saved, formula);
}

}  // namespace
}  // namespace ppa
