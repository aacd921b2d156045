// Differential fuzzing of the bus engine: random arrays, switch settings,
// directions and topologies, checked against an independently written
// brute-force reference model (per-receiver upstream scan), not against
// the engine's own walk.
#include <gtest/gtest.h>

#include <optional>

#include "bus_reference.hpp"
#include "sim/bus.hpp"
#include "util/rng.hpp"

namespace ppa::sim {
namespace {

struct LinePos {
  std::size_t pe;
};

/// Positions of one line in flow order, matching the engine's geometry
/// conventions (East/South ascending, West/North descending).
std::vector<std::size_t> line_in_flow_order(std::size_t n, Direction dir, std::size_t line) {
  std::vector<std::size_t> pes(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t q =
        (dir == Direction::West || dir == Direction::North) ? n - 1 - k : k;
    pes[k] = (axis_of(dir) == Axis::Row) ? line * n + q : q * n + line;
  }
  return pes;
}

/// Reference broadcast: receiver k reads the nearest Open position
/// STRICTLY before it in flow order (wrapping on a Ring), found by a
/// plain backward scan.
std::optional<std::size_t> reference_driver(const std::vector<std::size_t>& pes,
                                            std::span<const Flag> open, BusTopology topology,
                                            std::size_t k) {
  const std::size_t n = pes.size();
  for (std::size_t back = 1; back <= n; ++back) {
    if (topology == BusTopology::Linear && back > k) break;
    const std::size_t j = (k + n - back) % n;
    if (open[pes[j]]) return j;
  }
  return std::nullopt;
}

/// Reference wired-OR: the segment of position k is the maximal set of
/// positions sharing k's "at-or-before nearest Open" anchor (or the head
/// segment); the result is the OR of the segment members' sources.
std::optional<std::size_t> reference_anchor(const std::vector<std::size_t>& pes,
                                            std::span<const Flag> open, BusTopology topology,
                                            std::size_t k) {
  const std::size_t n = pes.size();
  for (std::size_t back = 0; back <= n - 1; ++back) {
    if (topology == BusTopology::Linear && back > k) break;
    const std::size_t j = (k + n - back) % n;
    if (open[pes[j]]) return j;
  }
  return std::nullopt;  // head segment (or open-free ring line)
}

struct FuzzCase {
  std::size_t n;
  std::uint64_t seed;
  double open_density;
};

class BusFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(BusFuzz, BroadcastMatchesBruteForce) {
  const auto [n, seed, density] = GetParam();
  util::Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    std::vector<Word> src(n * n);
    std::vector<Flag> open(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = static_cast<Word>(rng.below(1000));
      open[pe] = rng.chance(density) ? Flag{1} : Flag{0};
    }
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    const auto dir = static_cast<Direction>(rng.below(4));

    const BusResult got = bus_broadcast(n, topology, dir, src, open);
    for (std::size_t line = 0; line < n; ++line) {
      const auto pes = line_in_flow_order(n, dir, line);
      for (std::size_t k = 0; k < n; ++k) {
        const auto driver = reference_driver(pes, open, topology, k);
        if (driver) {
          ASSERT_EQ(got.driven[pes[k]], 1)
              << "n=" << n << " dir=" << name_of(dir) << " line=" << line << " k=" << k;
          ASSERT_EQ(got.values[pes[k]], src[pes[*driver]]);
        } else {
          ASSERT_EQ(got.driven[pes[k]], 0);
        }
      }
    }
  }
}

TEST_P(BusFuzz, WiredOrMatchesBruteForce) {
  const auto [n, seed, density] = GetParam();
  util::Rng rng(seed ^ 0xF00D);
  for (int round = 0; round < 20; ++round) {
    std::vector<Flag> src(n * n);
    std::vector<Flag> open(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = rng.chance(0.3) ? Flag{1} : Flag{0};
      open[pe] = rng.chance(density) ? Flag{1} : Flag{0};
    }
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    const auto dir = static_cast<Direction>(rng.below(4));

    const BusResult got = bus_wired_or(n, topology, dir, src, open);
    for (std::size_t line = 0; line < n; ++line) {
      const auto pes = line_in_flow_order(n, dir, line);
      // Anchor of every position, then OR per anchor group.
      std::vector<std::optional<std::size_t>> anchor(n);
      for (std::size_t k = 0; k < n; ++k) {
        anchor[k] = reference_anchor(pes, open, topology, k);
      }
      for (std::size_t k = 0; k < n; ++k) {
        Flag expected = 0;
        for (std::size_t m = 0; m < n; ++m) {
          if (anchor[m] == anchor[k] && src[pes[m]]) expected = 1;
        }
        ASSERT_EQ(got.values[pes[k]], expected)
            << "n=" << n << " dir=" << name_of(dir) << " line=" << line << " k=" << k;
        ASSERT_EQ(got.driven[pes[k]], 1);
      }
    }
  }
}

// The production engine resolves clusters with a prefix/suffix scan; the
// retained naive per-position walk (bus_reference.cpp) must agree with it
// on values, driven flags AND max_segment for every randomized pattern —
// including the all-Open / all-Short extremes the densities above rarely
// hit.
TEST_P(BusFuzz, ScanMatchesNaiveReference) {
  const auto [n, seed, density] = GetParam();
  util::Rng rng(seed ^ 0xBEEF);
  for (int round = 0; round < 20; ++round) {
    std::vector<Word> src(n * n);
    std::vector<Flag> bits(n * n);
    std::vector<Flag> open(n * n);
    // Rounds 0/1 pin the extremes; later rounds are random at `density`.
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = static_cast<Word>(rng.below(1000));
      bits[pe] = rng.chance(0.3) ? Flag{1} : Flag{0};
      if (round == 0) {
        open[pe] = 0;
      } else if (round == 1) {
        open[pe] = 1;
      } else {
        open[pe] = rng.chance(density) ? Flag{1} : Flag{0};
      }
    }
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    const auto dir = static_cast<Direction>(rng.below(4));

    const BusResult got = bus_broadcast(n, topology, dir, src, open);
    const BusResult want = reference::bus_broadcast(n, topology, dir, src, open);
    ASSERT_EQ(got.values, want.values)
        << "n=" << n << " dir=" << name_of(dir) << " round=" << round;
    ASSERT_EQ(got.driven, want.driven);
    ASSERT_EQ(got.max_segment, want.max_segment);

    const BusResult got_or = bus_wired_or(n, topology, dir, bits, open);
    const BusResult want_or = reference::bus_wired_or(n, topology, dir, bits, open);
    ASSERT_EQ(got_or.values, want_or.values)
        << "n=" << n << " dir=" << name_of(dir) << " round=" << round;
    ASSERT_EQ(got_or.driven, want_or.driven);
    ASSERT_EQ(got_or.max_segment, want_or.max_segment);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BusFuzz,
                         ::testing::Values(FuzzCase{1, 1, 0.5}, FuzzCase{2, 2, 0.5},
                                           FuzzCase{3, 3, 0.3}, FuzzCase{5, 4, 0.2},
                                           FuzzCase{8, 5, 0.15}, FuzzCase{8, 6, 0.6},
                                           FuzzCase{13, 7, 0.1}, FuzzCase{16, 8, 0.05},
                                           FuzzCase{16, 9, 0.9}));

}  // namespace
}  // namespace ppa::sim
