// Shared helpers of the active-panel schedule tests: one tiled solve with
// its panel counters, and the row comparison the schedules must pass.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "mcp/mcp.hpp"
#include "obs/collector.hpp"

namespace ppa::test {

struct ScheduledRun {
  mcp::Result result;
  std::uint64_t visited = 0;
  std::uint64_t skipped = 0;
  std::uint64_t saved = 0;
};

inline ScheduledRun run_tiled(const graph::WeightMatrix& g, graph::Vertex destination,
                              std::size_t p, sim::ExecBackend backend, bool active) {
  obs::Collector collector;
  mcp::Options options;
  options.backend = backend;
  options.array_side = p;
  options.active_panels = active;
  options.observer = &collector;
  ScheduledRun run;
  run.result = mcp::solve(g, destination, options);
  // The skip/saved counters only exist on an active-schedule run; read
  // them as zero when absent so dense runs flow through the same struct.
  const auto& counters = collector.metrics().counters();
  const auto value = [&](std::string_view name) -> std::uint64_t {
    const auto it = counters.find(std::string(name));
    return it == counters.end() ? 0u : it->second.value();
  };
  run.visited = value(obs::metric::kSolverPanels);
  run.skipped = value(obs::metric::kSolverPanelsSkipped);
  run.saved = value(obs::metric::kSolverPanelIoSaved);
  return run;
}

inline void expect_same_rows(const mcp::Result& a, const mcp::Result& b,
                             const std::string& label) {
  ASSERT_EQ(a.solution.cost, b.solution.cost) << label;
  ASSERT_EQ(a.solution.next, b.solution.next) << label;
  ASSERT_EQ(a.iterations, b.iterations) << label;
  ASSERT_EQ(a.outcome, b.outcome) << label;
}

}  // namespace ppa::test
