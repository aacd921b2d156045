// Shared workload builders and run helpers for the experiment benches.
//
// Every bench binary prints the experiment table(s) that reproduce one
// paper claim: deterministic, seeded workloads, SIMD step counts from the
// simulator. The wall-ms columns some tables print are single-run
// illustrations; the repository's wall-clock measurement is perfbench/
// (docs/performance.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mcp/mcp.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ppa::bench {

/// The E2 workload: n vertices, destination 0; vertices 1..p form a chain
/// 1 -> 0, 2 -> 1, ... (unit weights), and every vertex above p has a
/// direct unit edge to 0. The maximum MCP length is exactly p, at a fixed
/// machine size n — which is what lets E2 sweep p in isolation.
inline graph::WeightMatrix chain_with_direct(std::size_t n, std::size_t p, int bits) {
  PPA_REQUIRE(p >= 1 && p < n, "need 1 <= p < n");
  graph::WeightMatrix g(n, bits);
  for (std::size_t v = 1; v <= p; ++v) g.set(v, v - 1, 1);
  for (std::size_t v = p + 1; v < n; ++v) g.set(v, 0, 1);
  return g;
}

/// Steps spent per relaxation iteration, excluding the init phase.
inline double per_iteration_steps(std::uint64_t total, std::uint64_t init,
                                  std::size_t iterations) {
  return iterations == 0 ? 0.0
                         : static_cast<double>(total - init) / static_cast<double>(iterations);
}

/// Prints the table and, when the environment variable PPA_BENCH_CSV
/// names a file, appends its CSV form there (one '# <title>' comment line
/// followed by the header + rows), so experiment sweeps are scriptable.
inline void emit(const util::Table& table) {
  table.print(std::cout);
  if (const char* path = std::getenv("PPA_BENCH_CSV"); path != nullptr && *path != '\0') {
    std::ofstream csv(path, std::ios::app);
    if (csv) csv << "# " << table.title() << '\n' << table.to_csv() << '\n';
  }
}

inline void print_header(const char* id, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("Claim under test: %s\n", claim);
  std::printf("==============================================================\n\n");
}

}  // namespace ppa::bench
