// E7 — the paper's comparison claim (Sections 1 and 4): the PPA MCP
// "delivers the same performance, in terms of computational complexity,
// as the hypercube interconnection network of the Connection Machine, and
// as the Gated Connection Network", while beating the simple mesh.
//
// Reproduction: run the SAME dynamic program on all four machine models
// over the same seeded graphs and report
//   (a) end-to-end unit-cost SIMD steps and per-iteration costs,
//   (b) the communication-operation counts that carry the asymptotics
//       (bus cycles for PPA/GCN — Theta(h) per iteration; route steps for
//       the hypercube — Theta(log n); shifts for the mesh — Theta(n)),
//   (c) E7b: the PPA totals re-costed under the three bus settle-delay
//       models (Unit / Log / Linear) — the ablation of the "a bus cycle
//       costs O(1)" hardware assumption of ref [2].
#include "baseline/gcn.hpp"
#include "baseline/hypercube.hpp"
#include "baseline/mesh_mcp.hpp"
#include "bench_common.hpp"

namespace {

using namespace ppa;

constexpr int kBits = 16;

void print_comparison() {
  bench::print_header("E7 — model comparison: PPA vs GCN vs CM-hypercube vs plain mesh",
                      "PPA matches the CM hypercube and the GCN in complexity; the simple "
                      "mesh pays Theta(n) per iteration");

  util::Table table("E7a: end-to-end unit-cost SIMD steps (same graphs, same DP)",
                    {"n", "iters", "PPA", "GCN", "hypercube", "mesh", "mesh/PPA"});
  util::Table per_iter("E7a': per-iteration communication ops",
                       {"n", "PPA bus cycles", "GCN bus cycles", "HC routes", "mesh shifts"});
  for (const std::size_t n : {8u, 16u, 24u, 32u, 48u, 64u}) {
    util::Rng rng(n * 1009);
    const auto g = graph::random_reachable_digraph(
        n, kBits, 2.0 / static_cast<double>(n), {1, 30}, 0, rng);

    const auto ppa_r = mcp::solve(g, 0);
    const auto gcn_r = baseline::gcn::solve(g, 0);
    const auto hc_r = baseline::hypercube::minimum_cost_path(g, 0);
    const auto mesh_r = baseline::mesh_solve(g, 0);

    table.add_row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(ppa_r.iterations),
                   static_cast<std::int64_t>(ppa_r.total_steps.total()),
                   static_cast<std::int64_t>(gcn_r.total_steps.total()),
                   static_cast<std::int64_t>(hc_r.total_steps.total()),
                   static_cast<std::int64_t>(mesh_r.total_steps.total()),
                   static_cast<double>(mesh_r.total_steps.total()) /
                       static_cast<double>(ppa_r.total_steps.total())});

    const double iters = static_cast<double>(ppa_r.iterations);
    per_iter.add_row(
        {static_cast<std::int64_t>(n),
         static_cast<double>(ppa_r.total_steps.count(sim::StepCategory::BusOr) +
                             ppa_r.total_steps.count(sim::StepCategory::BusBroadcast)) /
             iters,
         static_cast<double>(gcn_r.total_steps.count(sim::StepCategory::BusOr) +
                             gcn_r.total_steps.count(sim::StepCategory::BusBroadcast)) /
             iters,
         static_cast<double>(hc_r.total_steps.count(sim::StepCategory::Shift)) /
             static_cast<double>(hc_r.iterations),
         static_cast<double>(mesh_r.total_steps.count(sim::StepCategory::Shift)) /
             static_cast<double>(mesh_r.iterations)});
  }
  bench::emit(table);
  bench::emit(per_iter);
  std::printf(
      "Reading: PPA and GCN per-iteration bus cycles are constant in n (Theta(h) = %d-bit\n"
      "serial minima); hypercube routes grow as 6*log2(N); mesh shifts grow linearly in n.\n"
      "\"Same complexity\" holds for PPA vs GCN vs CM (n-independent vs log n — both tiny),\n"
      "while the mesh loses by the n/h factor the paper's motivation predicts.\n\n",
      kBits);
}

void print_delay_ablation() {
  util::Table table("E7b: PPA total cost under bus settle-delay models (ablation)",
                    {"n", "Unit (paper)", "Log", "Linear", "Linear/Unit"});
  for (const std::size_t n : {8u, 16u, 32u, 64u}) {
    util::Rng rng(n * 31);
    const auto g = graph::random_reachable_digraph(
        n, kBits, 2.0 / static_cast<double>(n), {1, 30}, 0, rng);
    const auto r = mcp::solve(g, 0);
    const auto unit = r.total_steps.total_under(sim::BusDelayModel::Unit);
    const auto log_cost = r.total_steps.total_under(sim::BusDelayModel::Log);
    const auto linear = r.total_steps.total_under(sim::BusDelayModel::Linear);
    table.add_row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(unit),
                   static_cast<std::int64_t>(log_cost), static_cast<std::int64_t>(linear),
                   static_cast<double>(linear) / static_cast<double>(unit)});
  }
  bench::emit(table);
  std::printf(
      "If the bus did NOT settle in O(1) (ref [2]'s hardware claim), the Linear column shows\n"
      "the advantage over the mesh eroding — the reconfigurable-bus win depends on it.\n\n");
}

}  // namespace

int main() {
  print_comparison();
  print_delay_ablation();
  return 0;
}
