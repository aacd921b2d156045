// The benchmark's workloads: their inputs (generated from the seed), the
// set-up that runs before timing, and one request's call into the program
// together with the check of its output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/sequential.hpp"
#include "common.hpp"
#include "graph/weight_matrix.hpp"
#include "obs/collector.hpp"
#include "sim/step_counter.hpp"

namespace perfbench {

enum class Kind { Solve, AllPairs, Reach };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t n;
  std::size_t array_side;   // 0 = the full array (one PE per matrix cell)
  std::size_t batch_width;  // all-pairs destinations per machine pass
  std::size_t workers;      // all-pairs host threads
  bool power_law;           // graph family: power-law, else E6 random reachable
  std::size_t graphs;       // graphs per seed
  // Destinations over all graphs (solve, reachability). All-pairs has one
  // request per graph and leaves it 0.
  std::size_t destinations;

  /// Requests per pass over the request list.
  [[nodiscard]] std::size_t requests() const {
    return kind == Kind::AllPairs ? graphs : destinations;
  }
};

/// The workload named `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Graph `index` of the E6 random reachable family for `seed` (n vertices,
/// h = 16, weights 1..30, every vertex reaches vertex 0).
[[nodiscard]] ppa::graph::WeightMatrix e6_graph(std::size_t n, std::uint64_t seed,
                                                std::uint64_t index = 0);

/// The workload's graphs for `seed`.
[[nodiscard]] std::vector<ppa::graph::WeightMatrix> generate(const Workload& workload,
                                                             std::uint64_t seed);

/// Everything set-up produces: the graphs, the seed's request list, the
/// oracle answers and the differential-check findings.
struct Instance {
  std::vector<ppa::graph::WeightMatrix> graphs;
  std::vector<std::size_t> graph_of;              // per request
  std::vector<ppa::graph::Vertex> destinations;   // per request; all-pairs: the
                                                  // differential check's pair
  std::vector<ppa::graph::McpSolution> oracle;    // Dijkstra, per request
  std::vector<ppa::baseline::AllPairs> floyd;     // all-pairs oracle, per graph
  std::vector<double> dijkstra_s;                 // Dijkstra wall per request
  // Share of the requests whose relaxation goes well beyond the first
  // iteration's full sweep (see pick_destinations); 0 for all-pairs.
  double deep_share = 0;
  std::size_t checks = 0;                         // set-up checks run ...
  std::size_t checks_failed = 0;                  // ... and those that failed
  std::vector<std::string> mismatches;            // what the failed ones found
};

/// Builds the instance: graph generation, destinations, oracle answers, the
/// word-vs-bit-plane differential check and one warm-up request.
[[nodiscard]] Instance set_up(const Workload& workload, std::uint64_t seed, Tracer* tracer);

/// What one request did, reduced to what the benchmark checks and counts.
struct Outcome {
  bool ok = true;
  std::string detail;                 // first mismatch, when !ok
  double seconds = 0;                 // wall of the call into the program only
  std::size_t destinations = 0;       // destinations solved by the request
  ppa::sim::StepCounter steps;
  std::uint64_t iterations = 0;
  // Reachability only: it has no observer option, so its request reads
  // these off its result and its machine; the solvers report them to the
  // observer.
  std::uint64_t panels_visited = 0;
  std::uint64_t panels_skipped = 0;
  std::uint64_t panel_io_saved = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
};

/// Runs request `index` of the instance (its spans carry `request_id`) and
/// checks its output against the oracle outside the timed call. `observer`
/// (may be null) is attached through Options::observer, or as the machine's
/// trace sink for reachability, which has no observer option.
[[nodiscard]] Outcome run_request(const Workload& workload, const Instance& instance,
                                  std::size_t index, std::int64_t request_id,
                                  ppa::obs::Collector* observer, Tracer* tracer);

}  // namespace perfbench
