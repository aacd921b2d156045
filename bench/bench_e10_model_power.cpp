// E10 — the power hierarchy of the paper's concluding remarks, measured.
//
// "The row/column only PPA is a less powerful model with respect to the
// Reconfigurable Mesh [1], the Gated Connection Network [5] and the
// PARBS [6] ... Nevertheless it is hardware implementable and enjoys the
// programming efficiency as the MCP algorithm shows."
//
// Demonstration problem: counting / parity of n bits.
//   * PARBS: the staircase bus exits at row == popcount — O(1) bus steps
//     regardless of n (arbitrary bus SHAPES are the extra power).
//   * PPA: row/column sub-buses cannot bend, so the best reduction is a
//     segmented-bus XOR fold — Θ(log n) steps (implemented below with the
//     public ppc API).
// The flip side — what the restriction buys — is the rest of this repo:
// the PPA remains sufficient for the O(p·h) MCP while being buildable.
#include "baseline/parbs.hpp"
#include "bench_common.hpp"
#include "ppc/primitives.hpp"
#include "util/bits.hpp"

namespace {

using namespace ppa;
using ppc::Pbool;
using ppc::Pint;

/// Parity of n bits on the PPA: pairwise XOR fold along row 0 using
/// segmented broadcasts (receivers at even multiples of the stride hear
/// the nearest sender to their east). Θ(log n) SIMD steps.
struct PpaParity {
  bool parity = false;
  sim::StepCounter steps;
};

PpaParity ppa_parity(const std::vector<bool>& bits) {
  const std::size_t n = bits.size();
  sim::MachineConfig cfg;
  cfg.n = n;
  cfg.bits = std::max(2, util::bit_width_of(n - 1) + 1);
  sim::Machine machine(cfg);
  const auto at_entry = machine.steps();
  ppc::Context ctx(machine);

  std::vector<sim::Flag> flags(machine.pe_count(), 0);
  for (std::size_t c = 0; c < n; ++c) flags[c] = bits[c] ? 1 : 0;
  Pbool acc(ctx, flags);

  for (std::size_t stride = 1; stride < n; stride *= 2) {
    // Senders sit at odd multiples of `stride`; each even multiple with a
    // live partner absorbs its sender's accumulated parity.
    std::vector<sim::Flag> sender_bits(machine.pe_count(), 0);
    std::vector<sim::Flag> partner_bits(machine.pe_count(), 0);
    for (std::size_t c = stride; c < n; c += 2 * stride) sender_bits[c] = 1;
    for (std::size_t c = 0; c + stride < n; c += 2 * stride) partner_bits[c] = 1;
    const Pbool senders(ctx, sender_bits);
    const Pbool has_partner(ctx, partner_bits);
    // A receiver hears the nearest sender to its east (ring wrap is
    // harmless: the store is masked to receivers with a real partner).
    const Pbool incoming = ppc::broadcast(acc, sim::Direction::West, senders);
    ppc::where(ctx, has_partner, [&] { acc = acc ^ incoming; });
  }

  PpaParity result;
  result.parity = acc.at(0, 0);
  result.steps = machine.steps().since(at_entry);
  return result;
}

void print_tables() {
  bench::print_header("E10 — model power: PARBS O(1) counting vs PPA Theta(log n) parity",
                      "the PPA is 'less powerful' than PARBS (arbitrary bus shapes) but "
                      "'hardware implementable' — paper Section 4");

  util::Table table("E10: parity of n bits",
                    {"n", "PARBS steps", "PARBS bus cycles", "PPA steps", "agree"});
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    util::Rng rng(n * 37);
    std::vector<bool> bits(n);
    std::size_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
      bits[i] = rng.chance(0.5);
      ones += bits[i];
    }
    const auto parbs_result = baseline::parbs::count_ones(bits);
    const auto ppa_result = ppa_parity(bits);
    PPA_REQUIRE(parbs_result.count == ones, "PARBS count must be exact");
    table.add_row(
        {static_cast<std::int64_t>(n),
         static_cast<std::int64_t>(parbs_result.steps.total()),
         static_cast<std::int64_t>(
             parbs_result.steps.count(sim::StepCategory::BusBroadcast)),
         static_cast<std::int64_t>(ppa_result.steps.total()),
         std::string(parbs_result.parity == ppa_result.parity ? "yes" : "NO")});
  }
  bench::emit(table);
  std::printf(
      "Reading: PARBS counts n bits in O(1) steps by bending ONE bus through the array\n"
      "(and gets the full popcount, not just parity); the PPA's straight sub-buses need a\n"
      "Theta(log n) fold. That is the measured content of the paper's hierarchy remark —\n"
      "and the MCP experiments E1-E7 are the measured content of 'nevertheless\n"
      "sufficient'.\n\n");
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
