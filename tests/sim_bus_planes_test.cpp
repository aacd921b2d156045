// Differential fuzzing of the bit-plane bus kernels against the word
// engine (bus.cpp) as oracle: for random switch settings, directions and
// topologies the packed kernels must reproduce the oracle's values, driven
// flags AND max_segment — the latter is load-bearing for the step-counter
// contract between the two execution backends. Sides straddle the 64-lane
// word boundary on purpose (63 / 64 / 65, 130 = 2 words + 2 lanes, and
// 256 = 4 full words, so row carries chain across words).
#include <gtest/gtest.h>

#include <vector>

#include "sim/bus.hpp"
#include "sim/bus_planes.hpp"
#include "util/rng.hpp"

namespace ppa::sim {
namespace {

struct FuzzCase {
  std::size_t n;
  std::uint64_t seed;
  double open_density;
};

class BusPlaneFuzz : public ::testing::TestWithParam<FuzzCase> {};

/// Pads past column n-1 must stay zero in every produced plane.
void expect_pads_zero(const PlaneGeometry& g, const PlaneWord* plane, const char* what) {
  for (std::size_t r = 0; r < g.n; ++r) {
    for (std::size_t w = 0; w < g.row_words; ++w) {
      ASSERT_EQ(plane[r * g.row_words + w] & ~g.word_mask(w), 0u)
          << what << ": pad bits set in row " << r << " word " << w;
    }
  }
}

/// Random src values for `planes` planes (planes may be 32, the register
/// maximum, so values span the whole Word).
std::vector<Word> random_words(util::Rng& rng, std::size_t count, int planes) {
  std::vector<Word> src(count);
  for (auto& v : src) {
    v = static_cast<Word>(rng.next() & ((std::uint64_t{1} << planes) - 1));
  }
  return src;
}

/// One broadcast through the word oracle and the plane kernel (on a fresh
/// scratch block unless one is given): values, driven flags, max_segment
/// and pad bits must all agree.
void expect_broadcast_matches(std::size_t n, BusTopology topology, Direction dir, int planes,
                              const std::vector<Word>& src, const std::vector<Flag>& open,
                              PlaneBusScratch* scratch = nullptr) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " dir=" << name_of(dir) << " topology="
                                    << (topology == BusTopology::Ring ? "ring" : "linear")
                                    << " planes=" << planes);
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const auto plane_count = static_cast<std::size_t>(planes);
  std::vector<Word> want_values(n * n);
  std::vector<Flag> want_driven(n * n);
  const std::size_t want_segment =
      bus_broadcast_into(n, topology, dir, src, open, want_values, want_driven);

  std::vector<PlaneWord> src_planes(pw * plane_count);
  std::vector<PlaneWord> open_plane(pw);
  std::vector<PlaneWord> out_planes(pw * plane_count, ~PlaneWord{0});  // must be overwritten
  std::vector<PlaneWord> driven_plane(pw, ~PlaneWord{0});
  pack_words(g, src, planes, src_planes.data());
  pack_flags(g, open, open_plane.data());
  PlaneBusScratch fresh;
  const std::size_t got_segment =
      plane_broadcast_into(g, topology, dir, src_planes.data(), planes, open_plane.data(),
                           out_planes.data(), driven_plane.data(),
                           scratch != nullptr ? *scratch : fresh);

  ASSERT_EQ(got_segment, want_segment);
  std::vector<Word> got_values(n * n);
  std::vector<Flag> got_driven(n * n);
  unpack_words(g, out_planes.data(), planes, got_values);
  unpack_flags(g, driven_plane.data(), got_driven);
  ASSERT_EQ(got_driven, want_driven);
  // Both engines define undriven receivers as value 0, so whole-array
  // equality is exact.
  ASSERT_EQ(got_values, want_values);
  for (int j = 0; j < planes; ++j) {
    expect_pads_zero(g, out_planes.data() + static_cast<std::size_t>(j) * pw, "broadcast");
  }
  expect_pads_zero(g, driven_plane.data(), "broadcast driven");
}

/// Random open flags: rounds 0/1 pin the all-Short / all-Open extremes.
std::vector<Flag> random_open(util::Rng& rng, std::size_t n, int round, double density) {
  std::vector<Flag> open(n * n);
  for (auto& f : open) {
    f = round == 0 ? Flag{0} : round == 1 ? Flag{1} : (rng.chance(density) ? Flag{1} : Flag{0});
  }
  return open;
}

/// One wired-OR cycle through the word oracle and the plane kernel (on a
/// fresh scratch block unless one is given): values, max_segment and pad
/// bits must agree.
void expect_wired_or_matches(std::size_t n, BusTopology topology, Direction dir,
                             const std::vector<Flag>& src, const std::vector<Flag>& open,
                             PlaneBusScratch* scratch = nullptr) {
  SCOPED_TRACE(::testing::Message() << "wired-or n=" << n << " dir=" << name_of(dir));
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  std::vector<Flag> want_values(n * n);
  const std::size_t want_segment = bus_wired_or_into(n, topology, dir, src, open, want_values);

  std::vector<PlaneWord> src_plane(pw);
  std::vector<PlaneWord> open_plane(pw);
  std::vector<PlaneWord> out_plane(pw, ~PlaneWord{0});
  pack_flags(g, src, src_plane.data());
  pack_flags(g, open, open_plane.data());
  PlaneBusScratch fresh;
  const std::size_t got_segment =
      plane_wired_or_into(g, topology, dir, src_plane.data(), open_plane.data(), out_plane.data(),
                          scratch != nullptr ? *scratch : fresh);

  ASSERT_EQ(got_segment, want_segment);
  std::vector<Flag> got_values(n * n);
  unpack_flags(g, out_plane.data(), got_values);
  ASSERT_EQ(got_values, want_values);
  expect_pads_zero(g, out_plane.data(), "wired-or");
}

TEST_P(BusPlaneFuzz, BroadcastMatchesWordEngine) {
  const auto [n, seed, density] = GetParam();
  const int planes = 11;  // deliberately not a power of two
  util::Rng rng(seed);

  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    std::vector<Word> src(n * n);
    std::vector<Flag> open(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = static_cast<Word>(rng.below(1u << planes));
      // Rounds 0/1 pin the all-Short / all-Open extremes.
      open[pe] = round == 0 ? Flag{0}
                 : round == 1
                     ? Flag{1}
                     : (rng.chance(density) ? Flag{1} : Flag{0});
    }
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    const auto dir = static_cast<Direction>(rng.below(4));
    expect_broadcast_matches(n, topology, dir, planes, src, open);
    if (HasFatalFailure()) return;
  }
}

// A single plane, a 16-bit register and a full 32-plane register on every
// topology and direction.
TEST_P(BusPlaneFuzz, BroadcastPlaneCountsMatchWordEngine) {
  const auto [n, seed, density] = GetParam();
  util::Rng rng(seed ^ 0x5EED);
  for (int planes : {1, 16, 32}) {
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(::testing::Message() << "round=" << round);
      const std::vector<Word> src = random_words(rng, n * n, planes);
      const std::vector<Flag> open = random_open(rng, n, round, density);
      for (BusTopology topology : {BusTopology::Ring, BusTopology::Linear}) {
        for (int d = 0; d < 4; ++d) {
          expect_broadcast_matches(n, topology, static_cast<Direction>(d), planes, src, open);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// The row shapes the minimum-cost-path solver produces: ~13% Open switches
// (route_and_spread's enables), one Open switch per row (the row_end
// delimiter; a whole-row wrap on a ring) and Open-free rows. Rounds 0..2
// give the whole array one shape, so max_segment is that shape's alone;
// later rounds mix the shapes row by row.
TEST_P(BusPlaneFuzz, BroadcastSolverRowShapesMatchWordEngine) {
  const auto [n, seed, density] = GetParam();
  (void)density;
  util::Rng rng(seed ^ 0x50F7);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    std::vector<Flag> open(n * n, Flag{0});
    for (std::size_t r = 0; r < n; ++r) {
      const int shape = round < 3 ? round : static_cast<int>(rng.below(3));
      if (shape == 0) {
        for (std::size_t c = 0; c < n; ++c) open[r * n + c] = rng.chance(0.13) ? 1 : 0;
      } else if (shape == 1) {
        open[r * n + rng.below(static_cast<std::uint32_t>(n))] = 1;
      }
    }
    for (int planes : {1, 16, 32}) {
      const std::vector<Word> src = random_words(rng, n * n, planes);
      for (BusTopology topology : {BusTopology::Ring, BusTopology::Linear}) {
        for (Direction dir : {Direction::East, Direction::West}) {
          expect_broadcast_matches(n, topology, dir, planes, src, open);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_P(BusPlaneFuzz, WiredOrMatchesWordEngine) {
  const auto [n, seed, density] = GetParam();
  util::Rng rng(seed ^ 0xF00D);
  PlaneBusScratch scratch;  // persists across rounds, like a machine's

  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    std::vector<Flag> src(n * n);
    std::vector<Flag> open(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = rng.chance(0.3) ? Flag{1} : Flag{0};
      open[pe] = round == 0 ? Flag{0}
                 : round == 1
                     ? Flag{1}
                     : (rng.chance(density) ? Flag{1} : Flag{0});
    }
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    const auto dir = static_cast<Direction>(rng.below(4));
    expect_wired_or_matches(n, topology, dir, src, open);
    if (HasFatalFailure()) return;
    expect_wired_or_matches(n, topology, dir, src, open, &scratch);
    if (HasFatalFailure()) return;
  }
}

TEST_P(BusPlaneFuzz, ShiftMatchesBruteForce) {
  const auto [n, seed, density] = GetParam();
  (void)density;
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const int planes = 9;
  util::Rng rng(seed ^ 0xCAFE);

  for (int round = 0; round < 8; ++round) {
    std::vector<Word> src(n * n);
    for (auto& v : src) v = static_cast<Word>(rng.below(1u << planes));
    const auto dir = static_cast<Direction>(rng.below(4));
    const Word fill = static_cast<Word>(rng.below(1u << planes));

    // Brute-force: each PE reads its flow-order upstream neighbour, edge
    // lanes read `fill` (matching Machine::shift semantics).
    std::vector<Word> want(n * n, fill);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        std::size_t sr = r;
        std::size_t sc = c;
        bool inside = true;
        switch (dir) {
          case Direction::East: inside = c > 0; sc = c - 1; break;
          case Direction::West: inside = c + 1 < n; sc = c + 1; break;
          case Direction::South: inside = r > 0; sr = r - 1; break;
          case Direction::North: inside = r + 1 < n; sr = r + 1; break;
        }
        if (inside) want[r * n + c] = src[sr * n + sc];
      }
    }

    std::vector<PlaneWord> src_planes(pw * planes);
    std::vector<PlaneWord> dst_planes(pw * planes, ~PlaneWord{0});
    pack_words(g, src, planes, src_planes.data());
    plane_shift(g, dir, src_planes.data(), planes, fill, dst_planes.data());

    std::vector<Word> got(n * n);
    unpack_words(g, dst_planes.data(), planes, got);
    ASSERT_EQ(got, want) << "n=" << n << " dir=" << name_of(dir) << " fill=" << fill;
    for (int j = 0; j < planes; ++j) {
      expect_pads_zero(g, dst_planes.data() + static_cast<std::size_t>(j) * pw, "shift");
    }
  }
}

// The broadcast plan cache only engages through a persistent scratch
// block, only for column broadcasts, and only for configurations seen more
// than once: replaying each random configuration several times with fresh
// data walks one South call through the plain, recording and cached paths
// in turn (East, which has one path, must ignore the scratch) — every
// replay must match the cold resolver (a fresh scratch, so always the
// plain path) in values, driven flags and max_segment.
TEST_P(BusPlaneFuzz, CachedBroadcastMatchesColdOnRepeats) {
  const auto [n, seed, density] = GetParam();
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const int planes = 7;
  util::Rng rng(seed ^ 0xBEEF);
  PlaneBusScratch scratch;  // persists across all configurations below

  for (int config = 0; config < 6; ++config) {
    std::vector<Flag> open(n * n);
    for (auto& f : open) f = rng.chance(density) ? Flag{1} : Flag{0};
    std::vector<PlaneWord> open_plane(pw);
    pack_flags(g, open, open_plane.data());
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    for (Direction dir : {Direction::East, Direction::South}) {
      for (int replay = 0; replay < 4; ++replay) {
        std::vector<Word> src(n * n);
        for (auto& v : src) v = static_cast<Word>(rng.below(1u << planes));
        std::vector<PlaneWord> src_planes(pw * planes);
        pack_words(g, src, planes, src_planes.data());

        std::vector<PlaneWord> want_out(pw * planes);
        std::vector<PlaneWord> want_driven(pw);
        PlaneBusScratch cold;
        const std::size_t want_segment =
            plane_broadcast_into(g, topology, dir, src_planes.data(), planes,
                                 open_plane.data(), want_out.data(), want_driven.data(), cold);

        std::vector<PlaneWord> out(pw * planes, ~PlaneWord{0});
        std::vector<PlaneWord> driven(pw, ~PlaneWord{0});
        const std::size_t got_segment =
            plane_broadcast_into(g, topology, dir, src_planes.data(), planes,
                                 open_plane.data(), out.data(), driven.data(), scratch);

        ASSERT_EQ(got_segment, want_segment)
            << "n=" << n << " dir=" << name_of(dir) << " config=" << config
            << " replay=" << replay;
        ASSERT_EQ(out, want_out) << "n=" << n << " dir=" << name_of(dir)
                                 << " config=" << config << " replay=" << replay;
        ASSERT_EQ(driven, want_driven) << "n=" << n << " dir=" << name_of(dir)
                                       << " config=" << config << " replay=" << replay;
      }
    }
  }
  // Every configuration was replayed 4x per direction: first sight runs
  // plain, second records, the rest hit.
  EXPECT_GE(scratch.broadcast_plans.hits, 2u);
}

// Pin of the second-chance policy: call 1 runs the plain resolver (first
// sight), call 2 records a plan, calls 3..5 hit it.
TEST(BroadcastPlanCache, CountsHitsAfterSecondSight) {
  const std::size_t n = 16;
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const int planes = 3;
  std::vector<PlaneWord> src(pw * planes), open(pw), out(pw * planes), driven(pw);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = i * 0x9E3779B97F4A7C15ull;
  for (std::size_t w = 0; w < g.row_words; ++w) open[5 * g.row_words + w] = g.word_mask(w);
  PlaneBusScratch scratch;
  for (int call = 0; call < 5; ++call) {
    plane_broadcast_into(g, BusTopology::Ring, Direction::South, src.data(), planes,
                         open.data(), out.data(), driven.data(), scratch);
  }
  EXPECT_EQ(scratch.broadcast_plans.hits, 3u);
  EXPECT_EQ(scratch.broadcast_plans.misses, 2u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BusPlaneFuzz,
                         ::testing::Values(FuzzCase{1, 1, 0.5}, FuzzCase{2, 2, 0.5},
                                           FuzzCase{5, 3, 0.2}, FuzzCase{8, 4, 0.15},
                                           FuzzCase{63, 5, 0.05}, FuzzCase{64, 6, 0.05},
                                           FuzzCase{65, 7, 0.05}, FuzzCase{96, 8, 0.02},
                                           FuzzCase{130, 9, 0.02}, FuzzCase{256, 10, 0.13}));

}  // namespace
}  // namespace ppa::sim
