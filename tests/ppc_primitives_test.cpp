// The communication and combination primitives, including the paper's
// bit-serial min()/selected_min() against host-computed cluster minima.
#include "ppc/primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "util/rng.hpp"

namespace ppa::ppc {
namespace {

using sim::Direction;

sim::MachineConfig config_of(std::size_t n, int bits) {
  sim::MachineConfig c;
  c.n = n;
  c.bits = bits;
  return c;
}

TEST(Shift, MovesValuesWithFill) {
  sim::Machine m(config_of(3, 8));
  Context ctx(m);
  const Pint c = col_of(ctx);
  const Pint east = shift(c, Direction::East, 77);
  EXPECT_EQ(east.at(0, 0), 77u);
  EXPECT_EQ(east.at(0, 1), 0u);
  EXPECT_EQ(east.at(0, 2), 1u);
  const Pbool diag = (row_of(ctx) == col_of(ctx));
  const Pbool south = shift(diag, Direction::South, false);
  EXPECT_FALSE(south.at(0, 0));
  EXPECT_TRUE(south.at(1, 0));
  EXPECT_TRUE(south.at(2, 1));
}

TEST(Broadcast, RowDToAllRows) {
  // The MCP statement-10 pattern: open on row d, direction South.
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  const Word d = 2;
  const Pint payload = select((row_of(ctx) == d), col_of(ctx) + Word{10}, Pint(ctx, 0));
  const Pbool row_d = (row_of(ctx) == d);
  const Pint got = broadcast(payload, Direction::South, row_d);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(got.at(r, c), 10u + c) << r << "," << c;
    }
  }
  EXPECT_TRUE(got.fully_driven());
}

TEST(Broadcast, DiagonalToRowD) {
  // The MCP statement-16 pattern: open on the diagonal, direction South;
  // works for every d only because the buses wrap (Ring).
  sim::Machine m(config_of(5, 8));
  Context ctx(m);
  const Pbool diag = (row_of(ctx) == col_of(ctx));
  const Pint payload = select(diag, col_of(ctx) + Word{20}, Pint(ctx, 0));
  const Pint got = broadcast(payload, Direction::South, diag);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(got.at(r, c), 20u + c);
    }
  }
}

TEST(Broadcast, PropagatesTaintOfReinjectedValues) {
  // A floating read driven back onto a bus taints everything it drives;
  // shift and bus_or still refuse tainted sources outright.
  auto cfg = config_of(3, 8);
  cfg.topology = sim::BusTopology::Linear;
  sim::Machine m(cfg);
  Context ctx(m);
  const Pbool open_col0 = (col_of(ctx) == Word{0});
  const Pint tainted = broadcast(Pint(ctx, 7), Direction::East, open_col0);
  ASSERT_FALSE(tainted.fully_driven());  // column 0 reads its own floating stub
  // Re-inject down the columns from row 0: column 0's driver is tainted,
  // so all of column 0 stays tainted; columns 1, 2 become driven rows > 0.
  const Pbool open_row0 = (row_of(ctx) == Word{0});
  const Pint again = broadcast(tainted, Direction::South, open_row0);
  ASSERT_FALSE(again.fully_driven());
  const Pbool ok = driven_mask(again);
  for (std::size_t r = 1; r < 3; ++r) {
    EXPECT_FALSE(ok.at(r, 0)) << "column 0 carries the taint";
    EXPECT_TRUE(ok.at(r, 1));
    EXPECT_TRUE(ok.at(r, 2));
    EXPECT_EQ(again.at(r, 1), 7u);
  }
  EXPECT_THROW((void)shift(tainted, Direction::East), util::ContractError);
}

TEST(Broadcast, TwoSidedReachesBothSidesOnLinear) {
  auto cfg = config_of(5, 8);
  cfg.topology = sim::BusTopology::Linear;
  sim::Machine m(cfg);
  Context ctx(m);
  // Open at column 2 of every row: a one-sided East broadcast misses
  // columns 0..2; the two-sided version reaches everything except the
  // driver itself.
  const Pbool open = (col_of(ctx) == Word{2});
  const Pint payload = row_of(ctx) + Word{10};
  const Pint got = two_sided_broadcast(payload, Direction::East, open);
  const Pbool ok = driven_mask(got);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      if (c == 2) {
        EXPECT_FALSE(ok.at(r, c)) << "a driver never hears itself on a linear bus";
      } else {
        EXPECT_TRUE(ok.at(r, c));
        EXPECT_EQ(got.at(r, c), 10u + r);
      }
    }
  }
}

TEST(Broadcast, TwoSidedOnRingMatchesSingle) {
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  const Pbool open = (col_of(ctx) == Word{1});
  const Pint payload = row_of(ctx) + Word{3};
  const Pint single = broadcast(payload, Direction::East, open);
  const Pint doubled = two_sided_broadcast(payload, Direction::East, open);
  for (std::size_t pe = 0; pe < 16; ++pe) {
    EXPECT_EQ(single.at(pe), doubled.at(pe));
  }
  EXPECT_TRUE(doubled.fully_driven());
}

TEST(BusOr, ClusterWideOr) {
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  const Pbool anchor = (col_of(ctx) == Word{3});
  const Pbool pull = (row_of(ctx) == Word{1}) & (col_of(ctx) == Word{0});
  const Pbool result = bus_or(pull, Direction::West, anchor);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_FALSE(result.at(0, c));
    EXPECT_TRUE(result.at(1, c));
  }
}

TEST(Any, GlobalOrLine) {
  sim::Machine m(config_of(3, 8));
  Context ctx(m);
  EXPECT_FALSE(any(Pbool(ctx, false)));
  EXPECT_TRUE(any(Pbool(ctx, true)));
  const Pbool one = (row_of(ctx) == Word{2}) & (col_of(ctx) == Word{2});
  EXPECT_TRUE(any(one));
  EXPECT_EQ(m.steps().count(sim::StepCategory::GlobalOr), 3u);
}

// ---------------------------------------------------------------------------
// pmin / selected_min — randomized against host-computed row minima.
// ---------------------------------------------------------------------------

struct MinCase {
  std::size_t n;
  // 64-bit so the struct has no padding: gtest names each case by the
  // raw bytes of the struct, and padding bytes are uninitialized.
  std::int64_t bits;
  std::uint64_t seed;
};

class MinSweep : public ::testing::TestWithParam<MinCase> {};

TEST_P(MinSweep, PminMatchesHostRowMinimum) {
  const auto [n, bits, seed] = GetParam();
  sim::Machine m(config_of(n, static_cast<int>(bits)));
  Context ctx(m);
  util::Rng rng(seed);

  std::vector<Word> data(n * n);
  for (auto& v : data) v = static_cast<Word>(rng.below(m.field().infinity() + 1ull));
  const Pint src(ctx, data);
  const Pbool row_end = (col_of(ctx) == static_cast<Word>(n - 1));

  const Pint result = pmin(src, Direction::West, row_end);
  const Pint probe = pmin_orprobe(src, Direction::West, row_end);

  for (std::size_t r = 0; r < n; ++r) {
    const Word expected =
        *std::min_element(data.begin() + static_cast<std::ptrdiff_t>(r * n),
                          data.begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_EQ(result.at(r, c), expected) << "pmin row " << r << " col " << c;
      ASSERT_EQ(probe.at(r, c), expected) << "orprobe row " << r << " col " << c;
    }
  }
}

TEST_P(MinSweep, SelectedMinMatchesHostArgmin) {
  const auto [n, bits, seed] = GetParam();
  sim::Machine m(config_of(n, static_cast<int>(bits)));
  Context ctx(m);
  util::Rng rng(seed ^ 0xBEEF);

  std::vector<Word> data(n * n);
  for (auto& v : data) v = static_cast<Word>(rng.below(8));  // many ties
  const Pint src(ctx, data);
  const Pbool row_end = (col_of(ctx) == static_cast<Word>(n - 1));

  const Pint row_minimum = pmin(src, Direction::West, row_end);
  Pint stored(ctx, 0);
  stored.store_all(row_minimum);
  const Pbool is_min = (stored == src);
  const Pint arg = selected_min(col_of(ctx), Direction::West, row_end, is_min);
  const Pint arg_probe = selected_min_orprobe(col_of(ctx), Direction::West, row_end, is_min);

  for (std::size_t r = 0; r < n; ++r) {
    // Host argmin: smallest column attaining the row minimum.
    Word best = m.field().infinity();
    std::size_t best_col = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (data[r * n + c] < best) {
        best = data[r * n + c];
        best_col = c;
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_EQ(arg.at(r, c), best_col) << "row " << r;
      ASSERT_EQ(arg_probe.at(r, c), best_col) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MinSweep,
    ::testing::Values(MinCase{2, 4, 1}, MinCase{3, 8, 2}, MinCase{5, 8, 3}, MinCase{8, 6, 4},
                      MinCase{8, 16, 5}, MinCase{13, 12, 6}, MinCase{16, 10, 7},
                      MinCase{16, 32, 8}, MinCase{31, 8, 9}));

TEST(Pmin, StepsLinearInWordWidthIndependentOfN) {
  // The paper's complexity claim for min(): O(h), no n dependence.
  const auto cost_of = [](std::size_t n, int bits) {
    sim::Machine m(config_of(n, bits));
    Context ctx(m);
    const Pint src = col_of(ctx);
    const Pbool anchor = (col_of(ctx) == static_cast<Word>(n - 1));
    const auto before = m.steps();
    (void)pmin(src, Direction::West, anchor);
    return m.steps().since(before);
  };

  // Same h, different n: identical instruction counts under the paper's
  // unit-cost model. (The Log/Linear settle-delay re-costings DO grow with
  // n — longer segments — which is the E7b ablation, so compare the
  // unit-model totals and per-category counts, not the full counters.)
  const auto c8 = cost_of(8, 12);
  const auto c16 = cost_of(16, 12);
  const auto c31 = cost_of(31, 12);
  EXPECT_EQ(c8.total(), c16.total());
  EXPECT_EQ(c8.total(), c31.total());
  for (const auto cat :
       {sim::StepCategory::Alu, sim::StepCategory::Shift, sim::StepCategory::BusBroadcast,
        sim::StepCategory::BusOr, sim::StepCategory::GlobalOr}) {
    EXPECT_EQ(c8.count(cat), c16.count(cat));
    EXPECT_EQ(c8.count(cat), c31.count(cat));
  }
  EXPECT_GT(c31.total_under(sim::BusDelayModel::Linear),
            c8.total_under(sim::BusDelayModel::Linear));

  // Doubling h doubles the wired-OR cycles exactly.
  const auto h8 = cost_of(16, 8);
  const auto h16 = cost_of(16, 16);
  const auto h32 = cost_of(16, 32);
  EXPECT_EQ(h8.count(sim::StepCategory::BusOr), 8u);
  EXPECT_EQ(h16.count(sim::StepCategory::BusOr), 16u);
  EXPECT_EQ(h32.count(sim::StepCategory::BusOr), 32u);
  // And total steps are affine in h.
  EXPECT_EQ(h32.total() - h16.total(), 2 * (h16.total() - h8.total()));
}

TEST(Pmin, OrProbeUsesFewerBroadcasts) {
  sim::Machine m1(config_of(8, 16));
  sim::Machine m2(config_of(8, 16));
  Context ctx1(m1);
  Context ctx2(m2);
  const Pbool anchor1 = (col_of(ctx1) == Word{7});
  const Pbool anchor2 = (col_of(ctx2) == Word{7});
  (void)pmin(col_of(ctx1), Direction::West, anchor1);
  (void)pmin_orprobe(col_of(ctx2), Direction::West, anchor2);
  EXPECT_EQ(m1.steps().count(sim::StepCategory::BusOr),
            m2.steps().count(sim::StepCategory::BusOr));
  EXPECT_GT(m1.steps().count(sim::StepCategory::BusBroadcast),
            m2.steps().count(sim::StepCategory::BusBroadcast));
  EXPECT_EQ(m2.steps().count(sim::StepCategory::BusBroadcast), 0u);
}

TEST(SelectedMin, EmptySelectionOrProbeYieldsInfinity) {
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  const Pbool anchor = (col_of(ctx) == Word{3});
  const Pbool none(ctx, false);
  const Pint result = selected_min_orprobe(col_of(ctx), Direction::West, anchor, none);
  for (std::size_t pe = 0; pe < 16; ++pe) EXPECT_EQ(result.at(pe), m.field().infinity());
}

TEST(Pmin, RespectsAmbientMaskOnlyForStores) {
  // Running pmin inside where(ROW != 1) must still produce correct minima
  // for the active rows (the bus is physical).
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  std::vector<Word> data(16);
  for (std::size_t pe = 0; pe < 16; ++pe) data[pe] = static_cast<Word>((pe * 7 + 3) % 50);
  const Pint src(ctx, data);
  const Pbool anchor = (col_of(ctx) == Word{3});
  Pint out(ctx, 0);
  const Pbool active = (row_of(ctx) != Word{1});
  where(ctx, active, [&] { out = pmin(src, Direction::West, anchor); });
  for (std::size_t r = 0; r < 4; ++r) {
    const Word expected =
        *std::min_element(data.begin() + static_cast<std::ptrdiff_t>(r * 4),
                          data.begin() + static_cast<std::ptrdiff_t>((r + 1) * 4));
    for (std::size_t c = 0; c < 4; ++c) {
      if (r == 1) {
        EXPECT_EQ(out.at(r, c), 0u);  // masked off: untouched
      } else {
        EXPECT_EQ(out.at(r, c), expected);
      }
    }
  }
}

TEST(Pmin, ColumnOrientation) {
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  std::vector<Word> data(16);
  for (std::size_t pe = 0; pe < 16; ++pe) data[pe] = static_cast<Word>((pe * 11 + 5) % 90);
  const Pint src(ctx, data);
  const Pbool anchor = (row_of(ctx) == Word{0});
  const Pint result = pmin(src, Direction::South, anchor);
  for (std::size_t c = 0; c < 4; ++c) {
    Word expected = m.field().infinity();
    for (std::size_t r = 0; r < 4; ++r) expected = std::min(expected, data[r * 4 + c]);
    for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(result.at(r, c), expected);
  }
}

}  // namespace
}  // namespace ppa::ppc
