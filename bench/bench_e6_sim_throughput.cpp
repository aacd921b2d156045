// E6 — simulator throughput and host-parallel scaling.
//
// Not a paper claim but a property of this reproduction: the SIMD
// simulator applies every instruction to n^2 PEs, so host wall-clock per
// SIMD step scales with the array area. Host threads run whole
// destinations (all-pairs workers), one machine each, without changing
// any result (determinism is covered by the test suite; here we measure
// the speed).
#include <thread>

#include "bench_common.hpp"
#include "mcp/allpairs.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace ppa;

struct Throughput {
  double seconds = 0;
  std::uint64_t steps = 0;
  std::uint64_t panel_io = 0;  // PanelIo category steps (tiled runs)
};

const char* backend_name(sim::ExecBackend backend) {
  return backend == sim::ExecBackend::BitPlane ? "bitplane" : "word";
}

Throughput run_once(std::size_t n, sim::ExecBackend backend) {
  util::Rng rng(n);
  const auto g =
      graph::random_reachable_digraph(n, 16, 2.0 / static_cast<double>(n), {1, 30}, 0, rng);
  sim::MachineConfig cfg;
  cfg.n = n;
  cfg.bits = 16;
  cfg.backend = backend;
  sim::Machine machine(cfg);
  util::Stopwatch watch;
  const auto result = mcp::minimum_cost_path(machine, g, 0);
  Throughput t;
  t.seconds = watch.seconds();
  t.steps = result.total_steps.total();
  return t;
}

Throughput run_all_pairs(std::size_t n, std::size_t workers,
                         sim::ExecBackend backend = sim::ExecBackend::Words,
                         std::size_t batch_width = 1) {
  util::Rng rng(n);
  const auto g =
      graph::random_reachable_digraph(n, 16, 2.0 / static_cast<double>(n), {1, 30}, 0, rng);
  mcp::AllPairsOptions options;
  options.workers = workers;
  options.mcp.backend = backend;
  options.mcp.batch_width = batch_width;
  util::Stopwatch watch;
  const auto result = mcp::all_pairs(g, options);
  Throughput t;
  t.seconds = watch.seconds();
  t.steps = result.total_steps.total();
  return t;
}

/// Huge-graph virtualization (docs/tiling.md): n = 4096 vertices on a
/// 64 x 64 physical array, a power-law sparse graph, with the activity-
/// driven panel schedule on or off. PE-ops count the PHYSICAL array
/// (side^2), which is what the simulator actually sweeps per step.
Throughput run_tiled(std::size_t n, std::size_t side, bool active,
                     sim::ExecBackend backend) {
  util::Rng rng(n);
  const auto g = graph::power_law(n, 16, 2, 0.1, {1, 30}, rng);
  mcp::Options options;
  options.backend = backend;
  options.array_side = side;
  options.active_panels = active;
  util::Stopwatch watch;
  const auto result = mcp::solve(g, 0, options);
  Throughput t;
  t.seconds = watch.seconds();
  t.steps = result.total_steps.total();
  t.panel_io = result.total_steps.count(sim::StepCategory::PanelIo);
  return t;
}

void print_tables() {
  bench::print_header("E6 — simulator throughput & host-parallel scaling",
                      "simulation artifact metric: wall-clock per SIMD step and host "
                      "thread speedup");

  // Backend comparison: the same workload (identical SIMD steps by
  // construction) executed by the word backend and the bit-plane backend.
  // The bit-plane backend packs 64 PE lanes into each uint64_t, so every
  // host instruction of an ALU sweep or bus cycle advances 64 PEs at once.
  util::Table backends("E6: word vs bit-plane backend (single destination MCP, h=16)",
                       {"n", "backend", "SIMD steps", "wall ms", "speedup vs word"});
  for (const std::size_t n : {64u, 128u}) {
    double word_seconds = 0;
    for (const sim::ExecBackend backend :
         {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
      const auto t = run_once(n, backend);
      if (backend == sim::ExecBackend::Words) word_seconds = t.seconds;
      backends.add_row({static_cast<std::int64_t>(n), backend_name(backend),
                        static_cast<std::int64_t>(t.steps), t.seconds * 1e3,
                        word_seconds / t.seconds});
    }
  }
  bench::emit(backends);
  std::printf(
      "Both rows of each pair execute the identical SIMD instruction stream (same step\n"
      "count, bit-identical results — tests/mcp_backend_diff_test.cpp); only the host\n"
      "representation differs. The bit-plane backend's advantage grows with n until a\n"
      "row of 64-PE lanes saturates the sweep.\n\n");

  // Coarse-grained scaling: whole destination runs (not PE sweeps) are the
  // unit of work, so the thread pool's hand-off cost is amortized over a
  // full MCP run and the speedup is near-linear until workers ~ cores.
  util::Table scaling("E6: threaded all-pairs (coarse destination-level parallelism, n=32)",
                      {"backend", "workers", "SIMD steps", "wall ms", "speedup vs 1"});
  for (const sim::ExecBackend backend :
       {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    // Both backends sweep the worker counts: destination-level chunking
    // and the bit-plane representation compose, so the trajectory file
    // tracks the product speedup per worker count, not just the extremes.
    double base_seconds = 0;
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const auto t = run_all_pairs(32, workers, backend);
      if (workers == 1) base_seconds = t.seconds;
      scaling.add_row({backend_name(backend), static_cast<std::int64_t>(workers),
                       static_cast<std::int64_t>(t.steps), t.seconds * 1e3,
                       base_seconds / t.seconds});
    }
  }
  bench::emit(scaling);
  std::printf(
      "Destination runs are independent and a worker grabs a whole chunk of them, so the\n"
      "only synchronization is one pool hand-off per chunk — speedup tracks the host's\n"
      "core count (this host reports %u). SIMD steps are identical for every worker\n"
      "count by construction; see tests/mcp_allpairs_parallel_test.cpp.\n\n",
      std::thread::hardware_concurrency());

  // Multi-destination plane batching (docs/batching.md): k destinations
  // share every weight-panel load and bus configuration of one machine
  // pass, so the bit-plane all-pairs cost amortizes across the batch.
  // Rows, iteration counts and outcomes are bit-identical to width 1
  // (tests/mcp_batch_test.cpp); only wall clock and the step profile move.
  util::Table batching("E6: multi-destination plane batching (bit-plane all-pairs, n=128)",
                       {"batch width", "SIMD steps", "wall ms", "speedup vs width 1"});
  {
    const std::size_t n = 128;
    double base_seconds = 0;
    for (const std::size_t width : {1u, 4u, 16u}) {
      const auto t = run_all_pairs(n, 1, sim::ExecBackend::BitPlane, width);
      if (width == 1) base_seconds = t.seconds;
      batching.add_row({static_cast<std::int64_t>(width), static_cast<std::int64_t>(t.steps),
                        t.seconds * 1e3, base_seconds / t.seconds});
    }
  }
  bench::emit(batching);
  std::printf(
      "Width 1 is exactly the per-destination engine; wider batches load each weight\n"
      "panel once per sweep for the whole group and keep convergence host-side, so the\n"
      "speedup comes from amortized panel I/O and broadcast setup, not from changed\n"
      "results (bit-identical rows are pinned in tests/mcp_batch_test.cpp).\n\n");

  // Active-panel scheduling on a huge graph (docs/tiling.md): n = 4096 on
  // a 64 x 64 array — 64^2 = 4096 weight panels per relaxation sweep. The
  // dense schedule visits all of them; the activity-driven schedule skips
  // every panel whose source column block saw no SOW change and hides load
  // beats behind the previous panel's relax phase. Results are
  // bit-identical either way (tests/mcp_active_panels_test.cpp); only the
  // PanelIo charge and the wall clock move.
  util::Table active_table(
      "E6: active-panel scheduling (tiled MCP, n=4096 on 64x64, power-law graph)",
      {"schedule", "SIMD steps", "PanelIo steps", "wall ms", "speedup vs dense"});
  {
    const std::size_t n = 4096;
    const std::size_t side = 64;
    double dense_seconds = 0;
    for (const bool active : {false, true}) {
      const auto t = run_tiled(n, side, active, sim::ExecBackend::BitPlane);
      if (!active) dense_seconds = t.seconds;
      active_table.add_row({active ? "active" : "dense",
                            static_cast<std::int64_t>(t.steps),
                            static_cast<std::int64_t>(t.panel_io), t.seconds * 1e3,
                            dense_seconds / t.seconds});
    }
  }
  bench::emit(active_table);
  std::printf(
      "The dense row charges exactly I*ceil(n/p)^2*(p+3) PanelIo beats; the active row\n"
      "charges strictly less on this sparse graph (the skipped + overlap-hidden beats\n"
      "are pinned to close the formula exactly in tests/mcp_active_panels_test.cpp).\n\n");
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
