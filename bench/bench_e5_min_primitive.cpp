// E5 — the min()/selected_min() primitives in isolation.
//
// "The minimum among the values of all the elements of a parallel integer
// object of size h bits can be computed and made available to all the
// processors in a cluster in O(h) time."
//
// Reproduction: exact SIMD step counts of one pmin/selected_min call as a
// function of h (linear, slope = steps-per-bit) and of n (flat), plus the
// paper-min vs OR-probe-min ablation. (perfbench times these primitives as
// its ppc.pmin / ppc.selected_min probes.)
#include "analysis/fit.hpp"
#include "bench_common.hpp"
#include "ppc/primitives.hpp"

namespace {

using namespace ppa;
using ppc::Pbool;
using ppc::Pint;

sim::StepCounter one_pmin(std::size_t n, int bits, bool orprobe) {
  sim::MachineConfig cfg;
  cfg.n = n;
  cfg.bits = bits;
  sim::Machine m(cfg);
  ppc::Context ctx(m);
  util::Rng rng(n * 131 + static_cast<std::uint64_t>(bits));
  std::vector<sim::Word> data(n * n);
  for (auto& v : data) v = static_cast<sim::Word>(rng.below(m.field().infinity() + 1ull));
  const Pint src(ctx, data);
  const Pbool anchor = (ppc::col_of(ctx) == static_cast<sim::Word>(n - 1));
  const auto before = m.steps();
  if (orprobe) {
    (void)ppc::pmin_orprobe(src, sim::Direction::West, anchor);
  } else {
    (void)ppc::pmin(src, sim::Direction::West, anchor);
  }
  return m.steps().since(before);
}

void print_tables() {
  bench::print_header("E5 — min()/selected_min() primitive cost",
                      "the cluster minimum costs O(h) bus cycles, independent of the "
                      "cluster length");

  util::Table by_h("E5a: steps of one row-min (n=8) vs h",
                   {"h", "total steps", "bus_or", "bus_bcast", "steps (orprobe)"});
  analysis::Series series{"pmin(h)", {}, {}};
  // n = 8 keeps the smallest h legal (the array side must fit in the
  // h-bit field: n - 1 <= 2^h - 2).
  for (const int h : {4, 6, 8, 12, 16, 20, 24, 28, 32}) {
    const auto cost = one_pmin(8, h, false);
    const auto probe = one_pmin(8, h, true);
    by_h.add_row({static_cast<std::int64_t>(h), static_cast<std::int64_t>(cost.total()),
                  static_cast<std::int64_t>(cost.count(sim::StepCategory::BusOr)),
                  static_cast<std::int64_t>(cost.count(sim::StepCategory::BusBroadcast)),
                  static_cast<std::int64_t>(probe.total())});
    series.add(h, static_cast<double>(cost.total()));
  }
  bench::emit(by_h);
  const auto fit = series.fit();
  std::printf("Fit: steps = %.1f + %.2f*h, R^2 = %.6f (exactly affine).\n\n", fit.intercept,
              fit.slope, fit.r_squared);

  util::Table by_n("E5b: steps of one row-min (h=16) vs n — cluster length",
                   {"n", "total steps"});
  std::vector<double> totals;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const auto cost = one_pmin(n, 16, false);
    by_n.add_row(
        {static_cast<std::int64_t>(n), static_cast<std::int64_t>(cost.total())});
    totals.push_back(static_cast<double>(cost.total()));
  }
  bench::emit(by_n);
  std::printf("Spread over n: %.3f — the bus makes the cost cluster-length independent.\n\n",
              analysis::spread_ratio(totals));
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
