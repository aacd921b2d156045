#include "workloads.hpp"

#include <algorithm>
#include <array>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/batch.hpp"
#include "mcp/closure.hpp"
#include "mcp/verify.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ppa;

// Why each workload is here is recorded in BENCHMARK.json; in short:
//  solve_n128        the paper's kernel on a machine sized to the graph
//  tiled_n256_p32    the virtualized panel sweep with active panels
//  allpairs_n128_k16 batched all-pairs over the host thread pool
//  reach_n256_p32    the same sweep and bus on one plane (boolean semiring)
constexpr std::array<Workload, 4> kWorkloads{{
    {"solve_n128", Kind::Solve, 128, 0, 1, 1, false, 32, 64},
    {"tiled_n256_p32", Kind::Solve, 256, 32, 1, 1, true, 32, 48},
    {"allpairs_n128_k16", Kind::AllPairs, 128, 0, 16, 2, false, 24, 0},
    {"reach_n256_p32", Kind::Reach, 256, 32, 1, 1, true, 32, 48},
}};

constexpr int kBits = 16;
constexpr graph::WeightRange kWeights{1, 30};

mcp::Options solve_options(const Workload& w) {
  mcp::Options options;
  options.backend = sim::ExecBackend::BitPlane;
  options.array_side = w.array_side;
  options.batch_width = w.batch_width;
  options.active_panels = true;
  return options;
}

sim::MachineConfig reach_machine(const Workload& w, sim::ExecBackend backend) {
  sim::MachineConfig config;
  config.n = w.array_side == 0 ? w.n : w.array_side;
  config.bits = kBits;
  config.backend = backend;
  return config;
}

mcp::ClosureOptions reach_options(const Workload& w, sim::ExecBackend backend) {
  mcp::ClosureOptions options;
  options.backend = backend;
  options.array_side = w.array_side;
  options.active_panels = true;
  return options;
}

/// A solve outcome the caller may use: unchecked runs, verified runs and
/// runs that masking carried are successes.
bool success(mcp::SolveOutcome outcome) {
  return outcome == mcp::SolveOutcome::Unchecked || outcome == mcp::SolveOutcome::Verified ||
         outcome == mcp::SolveOutcome::MaskedFaults;
}

/// Checks one destination's row: costs equal to Dijkstra's, and the
/// (cost, next) pair accepted by the host certificate checker.
bool check_row(const graph::WeightMatrix& g, const graph::McpSolution& got,
               const graph::McpSolution& oracle, std::string& detail, Tracer* tracer,
               std::int64_t request_id) {
  {
    const auto span = Tracer::open(tracer, "baseline.compare", request_id);
    if (got.cost != oracle.cost) {
      for (std::size_t i = 0; i < got.cost.size(); ++i) {
        if (i >= oracle.cost.size() || got.cost[i] != oracle.cost[i]) {
          detail = "destination " + std::to_string(oracle.destination) + ": cost of vertex " +
                   std::to_string(i) + " differs from Dijkstra";
          return false;
        }
      }
      detail = "destination " + std::to_string(oracle.destination) + ": cost row length differs";
      return false;
    }
  }
  const auto span = Tracer::open(tracer, "mcp.check_certificate", request_id);
  const mcp::CertificateReport report = mcp::check_certificate(g, got);
  if (!report) {
    detail = "destination " + std::to_string(oracle.destination) + ": certificate rejected: " +
             report.detail;
    return false;
  }
  return true;
}

/// Word backend against bit-plane backend on the first request's
/// destination(s): identical rows and identical SIMD steps.
void differential_check(const Workload& w, Instance& inst, Tracer* tracer) {
  const auto span = Tracer::open(tracer, "setup.differential", -1);
  const auto mismatch = [&](const std::string& what) {
    inst.mismatches.push_back(std::string(w.name) + " differential: " + what);
  };
  const graph::WeightMatrix& g = inst.graphs[inst.graph_of.front()];
  switch (w.kind) {
    case Kind::Solve: {
      const graph::Vertex d = inst.destinations.front();
      mcp::Options options = solve_options(w);
      const mcp::Result plane = mcp::solve(g, d, options);
      options.backend = sim::ExecBackend::Words;
      const mcp::Result word = mcp::solve(g, d, options);
      if (plane.solution.cost != word.solution.cost || plane.solution.next != word.solution.next) {
        mismatch("rows differ between backends");
      }
      if (!(plane.total_steps == word.total_steps) || plane.iterations != word.iterations) {
        mismatch("steps differ: bitplane " + plane.total_steps.summary() + " vs word " +
                 word.total_steps.summary());
      }
      break;
    }
    case Kind::AllPairs: {
      // Two destinations, so the batched engine runs rather than solve().
      const std::vector<graph::Vertex> pair(inst.destinations.begin(),
                                            inst.destinations.begin() + 2);
      mcp::Options options = solve_options(w);
      const std::vector<mcp::Result> plane = mcp::solve_batch(g, pair, options);
      options.backend = sim::ExecBackend::Words;
      const std::vector<mcp::Result> word = mcp::solve_batch(g, pair, options);
      for (std::size_t m = 0; m < pair.size(); ++m) {
        if (plane[m].solution.cost != word[m].solution.cost ||
            plane[m].solution.next != word[m].solution.next) {
          mismatch("batched rows differ between backends");
        }
        if (!(plane[m].total_steps == word[m].total_steps)) {
          mismatch("batched steps differ: bitplane " + plane[m].total_steps.summary() +
                   " vs word " + word[m].total_steps.summary());
        }
      }
      break;
    }
    case Kind::Reach: {
      const graph::Vertex d = inst.destinations.front();
      sim::Machine plane_machine(reach_machine(w, sim::ExecBackend::BitPlane));
      const mcp::ReachabilityResult plane = mcp::reachability(
          plane_machine, g, d, reach_options(w, sim::ExecBackend::BitPlane));
      sim::Machine word_machine(reach_machine(w, sim::ExecBackend::Words));
      const mcp::ReachabilityResult word = mcp::reachability(
          word_machine, g, d, reach_options(w, sim::ExecBackend::Words));
      if (plane.reachable != word.reachable) mismatch("reachable sets differ between backends");
      if (!(plane.total_steps == word.total_steps) || plane.iterations != word.iterations) {
        mismatch("steps differ: bitplane " + plane.total_steps.summary() + " vs word " +
                 word.total_steps.summary());
      }
      break;
    }
  }
}

/// The relaxation toward one destination, replayed on the host over the
/// sparse graph in the machine's Jacobi order: the column blocks the
/// active-panel schedule would visit, summed over iterations (a block is
/// visited when one of its vertices changed in the previous iteration; the
/// first iteration visits all). On the full array a block is the whole
/// row, so the sum counts iterations. It predicts a request's cost without
/// running it.
std::size_t replay(const std::vector<std::vector<graph::Edge>>& into, graph::Vertex d,
                  std::size_t block) {
  const std::size_t n = into.size();
  const std::size_t blocks = (n + block - 1) / block;
  constexpr std::uint64_t kInf = ~std::uint64_t{0};
  std::vector<std::uint64_t> cost(n, kInf);
  cost[d] = 0;
  std::vector<graph::Vertex> changed;
  for (const graph::Edge& e : into[d]) {
    cost[e.from] = e.weight;
    changed.push_back(e.from);
  }
  std::size_t block_visits = blocks;
  std::vector<std::uint64_t> next = cost;
  std::vector<std::uint8_t> marked(n, 0), dirty(blocks, 0);
  while (!changed.empty()) {
    std::size_t dirty_blocks = 0;
    for (const graph::Vertex v : changed) {
      if (!dirty[v / block]) {
        dirty[v / block] = 1;
        ++dirty_blocks;
      }
    }
    std::fill(dirty.begin(), dirty.end(), 0);
    block_visits += dirty_blocks;
    std::vector<graph::Vertex> now;
    for (const graph::Vertex v : changed) {
      for (const graph::Edge& e : into[v]) {
        if (e.from != d && cost[v] + e.weight < next[e.from]) {
          next[e.from] = cost[v] + e.weight;
          if (!marked[e.from]) {
            marked[e.from] = 1;
            now.push_back(e.from);
          }
        }
      }
    }
    for (const graph::Vertex u : now) marked[u] = 0;
    cost = next;
    changed.swap(now);
  }
  return block_visits;
}

/// Draws the request list from the seed, stratified by predicted cost (see
/// replay) so that its cost mix follows the graphs rather than the luck of
/// a small draw: candidates drawn from the seed on every graph are pooled,
/// sorted by predicted cost, and the requests are taken at evenly spaced
/// ranks. Also records the share of deep requests, those whose relaxation
/// revisits more than a quarter of the column blocks after the first sweep.
void pick_destinations(const Workload& w, std::uint64_t seed, Instance& inst, Tracer* tracer) {
  const std::size_t block = w.array_side == 0 ? w.n : w.array_side;
  const std::size_t blocks = (w.n + block - 1) / block;
  struct Candidate {
    std::size_t cost;
    std::size_t graph;
    graph::Vertex vertex;
    bool operator<(const Candidate& o) const {
      if (cost != o.cost) return cost < o.cost;
      return graph != o.graph ? graph < o.graph : vertex < o.vertex;
    }
  };
  std::vector<Candidate> pool;
  for (std::size_t gi = 0; gi < inst.graphs.size(); ++gi) {
    std::vector<std::vector<graph::Edge>> into(w.n);
    for (const graph::Edge& e : inst.graphs[gi].edges()) {
      if (e.from != e.to) into[e.to].push_back(e);
    }
    util::Rng pick = util::Rng(seed).fork(2).fork(gi);
    for (const std::size_t d :
         util::sample_without_replacement(pick, w.n, std::min<std::size_t>(w.n, 256))) {
      pool.push_back({replay(into, d, block), gi, d});
    }
  }
  std::sort(pool.begin(), pool.end());
  std::size_t deep = 0;
  for (std::size_t k = 0; k < w.destinations; ++k) {
    const Candidate& c = pool[(2 * k + 1) * pool.size() / (2 * w.destinations)];
    deep += c.cost > blocks + blocks / 4;
    inst.destinations.push_back(c.vertex);
    inst.graph_of.push_back(c.graph);
    const auto span = Tracer::open(tracer, "baseline.dijkstra_to", -1);
    const Clock::time_point start = Clock::now();
    inst.oracle.push_back(baseline::dijkstra_to(inst.graphs[c.graph], c.vertex));
    inst.dijkstra_s.push_back(seconds_since(start));
  }
  inst.deep_share = static_cast<double>(deep) / static_cast<double>(w.destinations);
}

/// Counts one set-up check, failed when it added mismatches.
void count_check(Instance& inst, std::size_t mismatches_before) {
  ++inst.checks;
  if (inst.mismatches.size() > mismatches_before) ++inst.checks_failed;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

graph::WeightMatrix e6_graph(std::size_t n, std::uint64_t seed, std::uint64_t index) {
  util::Rng rng = util::Rng(seed).fork(1 + index);
  return graph::random_reachable_digraph(n, kBits, 2.0 / static_cast<double>(n), kWeights, 0,
                                         rng);
}

std::vector<graph::WeightMatrix> generate(const Workload& w, std::uint64_t seed) {
  std::vector<graph::WeightMatrix> graphs;
  for (std::size_t i = 0; i < w.graphs; ++i) {
    if (w.power_law) {
      util::Rng rng = util::Rng(seed).fork(1 + i);
      graphs.push_back(graph::power_law(w.n, kBits, 2, 0.1, kWeights, rng));
    } else {
      graphs.push_back(e6_graph(w.n, seed, i));
    }
  }
  return graphs;
}

Instance set_up(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  Instance inst;
  {
    const auto span = Tracer::open(tracer, "graph.generate", -1);
    inst.graphs = generate(w, seed);
  }
  if (w.kind == Kind::AllPairs) {
    const std::size_t before = inst.mismatches.size();
    util::Rng pick = util::Rng(seed).fork(2);
    for (const std::size_t d : util::sample_without_replacement(pick, w.n, 2)) {
      inst.destinations.push_back(d);
    }
    for (const graph::WeightMatrix& g : inst.graphs) {
      inst.graph_of.push_back(inst.floyd.size());
      {
        const auto span = Tracer::open(tracer, "baseline.floyd_warshall", -1);
        inst.floyd.push_back(baseline::floyd_warshall(g));
      }
      // The host-relative column compares one all-pairs request with
      // Dijkstra toward every destination of the same graph.
      const auto span = Tracer::open(tracer, "baseline.dijkstra_to", -1);
      const Clock::time_point start = Clock::now();
      std::size_t rows = 0;
      for (graph::Vertex d = 0; d < w.n; ++d) rows += !baseline::dijkstra_to(g, d).cost.empty();
      inst.dijkstra_s.push_back(seconds_since(start));
      if (rows != w.n) inst.mismatches.push_back("Dijkstra returned an empty row");
    }
    count_check(inst, before);
  } else {
    pick_destinations(w, seed, inst, tracer);
  }

  std::size_t before = inst.mismatches.size();
  differential_check(w, inst, tracer);
  count_check(inst, before);
  before = inst.mismatches.size();
  const Outcome warm = run_request(w, inst, 0, -1, nullptr, tracer);
  if (!warm.ok) inst.mismatches.push_back(std::string(w.name) + " warm-up: " + warm.detail);
  count_check(inst, before);
  return inst;
}

Outcome run_request(const Workload& w, const Instance& inst, std::size_t index,
                    std::int64_t request_id, obs::Collector* observer, Tracer* tracer) {
  const graph::WeightMatrix& g = inst.graphs[inst.graph_of[index]];
  Outcome out;
  switch (w.kind) {
    case Kind::Solve: {
      const graph::Vertex d = inst.destinations[index];
      mcp::Options options = solve_options(w);
      options.observer = observer;
      mcp::Result result;
      {
        const auto span = Tracer::open(tracer, "mcp.solve", request_id);
        const Clock::time_point start = Clock::now();
        result = mcp::solve(g, d, options);
        out.seconds = seconds_since(start);
      }
      out.destinations = 1;
      out.steps = result.total_steps;
      out.iterations = result.iterations;
      if (!success(result.outcome)) {
        out.ok = false;
        out.detail = std::string("outcome ") + mcp::name_of(result.outcome);
      } else {
        out.ok = check_row(g, result.solution, inst.oracle[index], out.detail, tracer,
                           request_id);
      }
      break;
    }
    case Kind::AllPairs: {
      mcp::AllPairsOptions options;
      options.mcp = solve_options(w);
      options.mcp.observer = observer;
      options.workers = w.workers;
      mcp::AllPairsResult result;
      {
        const auto span = Tracer::open(tracer, "mcp.all_pairs", request_id);
        const Clock::time_point start = Clock::now();
        result = mcp::all_pairs(g, options);
        out.seconds = seconds_since(start);
      }
      out.destinations = w.n;
      out.steps = result.total_steps;
      out.iterations = result.total_iterations;
      if (result.failed_destinations() != 0) {
        out.ok = false;
        out.detail = std::to_string(result.failed_destinations()) + " destinations failed";
        break;
      }
      for (graph::Vertex d = 0; d < w.n && out.ok; ++d) {
        graph::McpSolution column;
        column.destination = d;
        for (graph::Vertex i = 0; i < w.n; ++i) {
          column.cost.push_back(result.dist_at(i, d));
          column.next.push_back(result.next_at(i, d));
        }
        out.ok = check_row(g, column, inst.floyd[index].toward(d), out.detail, tracer,
                           request_id);
      }
      break;
    }
    case Kind::Reach: {
      const graph::Vertex d = inst.destinations[index];
      mcp::ReachabilityResult result;
      {
        const auto span = Tracer::open(tracer, "mcp.reachability", request_id);
        const Clock::time_point start = Clock::now();
        sim::Machine machine(reach_machine(w, sim::ExecBackend::BitPlane));
        machine.set_trace(observer);
        result = mcp::reachability(machine, g, d,
                                   reach_options(w, sim::ExecBackend::BitPlane));
        out.seconds = seconds_since(start);
        out.plan_hits = machine.plan_cache_stats().hits;
        out.plan_misses = machine.plan_cache_stats().misses;
      }
      out.destinations = 1;
      out.steps = result.total_steps;
      out.iterations = result.iterations;
      out.panels_visited = result.panels_visited;
      out.panels_skipped = result.panels_skipped;
      out.panel_io_saved = result.panel_io_saved;
      const auto span = Tracer::open(tracer, "baseline.compare", request_id);
      const graph::McpSolution& oracle = inst.oracle[index];
      for (std::size_t i = 0; i < w.n; ++i) {
        const bool expect = oracle.cost[i] != g.infinity();
        if (result.reachable[i] != expect) {
          out.ok = false;
          out.detail = "destination " + std::to_string(d) + ": reachability of vertex " +
                       std::to_string(i) + " differs from Dijkstra";
          break;
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace perfbench
