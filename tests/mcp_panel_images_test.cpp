// Panel images (docs/tiling.md "Panel images"): loading a pre-packed image
// must give the register the host-data constructor gives — bit for bit,
// on both backends — and charge the same steps and kernel sweeps. The
// reference host views below are the per-panel cell vectors the visits
// used to build for every load; the images replace them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/panel_images.hpp"
#include "ppc/parallel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using ppc::PanelImage;
using ppc::Pbool;
using ppc::Pint;
using sim::Flag;
using sim::Word;

constexpr sim::ExecBackend kBackends[] = {sim::ExecBackend::Words,
                                          sim::ExecBackend::BitPlane};

const char* name_of(sim::ExecBackend backend) {
  return backend == sim::ExecBackend::BitPlane ? "bitplane" : "word";
}

sim::Machine make_machine(std::size_t p, int bits, sim::ExecBackend backend) {
  sim::MachineConfig config;
  config.n = p;
  config.bits = bits;
  config.backend = backend;
  return sim::Machine(config);
}

/// n = 2p + 7: three column blocks per axis, the last holding 7 graph rows
/// and columns and p - 7 padding ones.
graph::WeightMatrix padded_graph(std::size_t p) {
  util::Rng rng(p);
  return graph::random_reachable_digraph(2 * p + 7, 16, 0.2, {1, 30}, 0, rng);
}

/// Reference host view of panel (bi, bj): cell(gi, gj) inside the graph,
/// `pad` on padding rows and columns.
template <class T, class CellFn>
std::vector<T> host_view(const graph::WeightMatrix& g, std::size_t p, std::size_t bi,
                         std::size_t bj, T pad, CellFn cell) {
  std::vector<T> cells(p * p, pad);
  for (std::size_t r = 0; r < p && bi * p + r < g.size(); ++r) {
    for (std::size_t c = 0; c < p && bj * p + c < g.size(); ++c) {
      cells[r * p + c] = cell(bi * p + r, bj * p + c);
    }
  }
  return cells;
}

/// Builds one register from host data and one from an image and checks
/// storage, step delta and sweep billing all agree.
template <class Reg, class T>
void expect_same_load(ppc::Context& ctx, const std::vector<T>& host, const PanelImage& image,
                      const std::string& label) {
  sim::Machine& machine = ctx.machine();
  const sim::StepCounter at_host = machine.steps();
  const sim::plane_kernels::SweepStats sweeps_at_host = machine.sweep_stats();
  const Reg from_host(ctx, std::span<const T>(host));
  const sim::StepCounter host_steps = machine.steps().since(at_host);
  const sim::plane_kernels::SweepStats host_sweeps =
      machine.sweep_stats().since(sweeps_at_host);

  const sim::StepCounter at_image = machine.steps();
  const sim::plane_kernels::SweepStats sweeps_at_image = machine.sweep_stats();
  const Reg from_image(ctx, image);
  const sim::StepCounter image_steps = machine.steps().since(at_image);
  const sim::plane_kernels::SweepStats image_sweeps =
      machine.sweep_stats().since(sweeps_at_image);

  EXPECT_TRUE(host_steps == image_steps) << label << ": " << host_steps.summary() << " vs "
                                         << image_steps.summary();
  EXPECT_EQ(host_steps.total(), 1u) << label;
  EXPECT_EQ(host_sweeps.dispatches, image_sweeps.dispatches) << label;
  EXPECT_EQ(host_sweeps.words, image_sweeps.words) << label;
  ASSERT_TRUE(std::ranges::equal(from_host.values(), from_image.values())) << label;
  if constexpr (std::is_same_v<Reg, Pint>) {
    ASSERT_TRUE(std::ranges::equal(from_host.planes_view(), from_image.planes_view()))
        << label;
  } else {
    ASSERT_TRUE(std::ranges::equal(from_host.plane_view(), from_image.plane_view())) << label;
  }
  for (std::size_t pe = 0; pe < host.size(); ++pe) {
    if constexpr (std::is_same_v<Reg, Pint>) {
      ASSERT_EQ(from_image.at(pe), host[pe]) << label << " pe=" << pe;
    } else {
      ASSERT_EQ(from_image.at(pe), host[pe] != 0) << label << " pe=" << pe;
    }
  }
}

class PanelImages : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PanelImages, WeightImagesLoadLikeHostViews) {
  const std::size_t p = GetParam();
  const graph::WeightMatrix g = padded_graph(p);
  const std::size_t blocks = (g.size() + p - 1) / p;
  for (const sim::ExecBackend backend : kBackends) {
    sim::Machine machine = make_machine(p, g.field().bits(), backend);
    ppc::Context ctx(machine);
    const std::vector<PanelImage> images = mcp::detail::weight_images(ctx, g);
    ASSERT_EQ(images.size(), blocks * blocks);
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        const std::vector<Word> host =
            host_view<Word>(g, p, bi, bj, g.infinity(), [&](std::size_t gi, std::size_t gj) {
              return gi == gj ? Word{0} : g.at(gi, gj);
            });
        expect_same_load<Pint>(ctx, host, images[bi * blocks + bj],
                               std::string(name_of(backend)) + " W p=" + std::to_string(p) +
                                   " panel " + std::to_string(bi) + "," + std::to_string(bj));
      }
    }
  }
}

TEST_P(PanelImages, AdjacencyImagesLoadLikeHostViews) {
  const std::size_t p = GetParam();
  const graph::WeightMatrix g = padded_graph(p);
  const std::size_t blocks = (g.size() + p - 1) / p;
  for (const sim::ExecBackend backend : kBackends) {
    sim::Machine machine = make_machine(p, g.field().bits(), backend);
    ppc::Context ctx(machine);
    const std::vector<PanelImage> images = mcp::detail::adjacency_images(ctx, g);
    ASSERT_EQ(images.size(), blocks * blocks);
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        const std::vector<Flag> host =
            host_view<Flag>(g, p, bi, bj, Flag{0}, [&](std::size_t gi, std::size_t gj) {
              return static_cast<Flag>(gi == gj || g.has_edge(gi, gj));
            });
        expect_same_load<Pbool>(ctx, host, images[bi * blocks + bj],
                                std::string(name_of(backend)) + " adjacency p=" +
                                    std::to_string(p) + " panel " + std::to_string(bi) + "," +
                                    std::to_string(bj));
      }
    }
  }
}

TEST_P(PanelImages, FragmentsPackOnlyTheCarrierRow) {
  const std::size_t p = GetParam();
  const std::size_t n = 2 * p + 7;
  const std::size_t blocks = (n + p - 1) / p;
  util::Rng rng(p + 1);
  std::vector<Word> costs(n);
  for (Word& c : costs) c = static_cast<Word>(rng.below(1u << 16));  // 0 .. infinity
  std::vector<Flag> reach(n);
  for (Flag& f : reach) f = static_cast<Flag>(rng.below(2));

  for (const sim::ExecBackend backend : kBackends) {
    sim::Machine machine = make_machine(p, 16, backend);
    ppc::Context ctx(machine);
    const Word inf = ctx.field().infinity();
    mcp::detail::CarrierFragment<Word> cost_fragment(ctx, n);
    mcp::detail::CarrierFragment<Flag> reach_fragment(ctx, n);
    // Every block in turn through the same image, the padded last block
    // included: rows 1..p-1 must stay zero across repacks.
    for (std::size_t bj = 0; bj < blocks; ++bj) {
      std::vector<Word> cost_host(p * p, Word{0});
      std::vector<Flag> reach_host(p * p, Flag{0});
      for (std::size_t c = 0; c < p; ++c) {
        const std::size_t gj = bj * p + c;
        cost_host[c] = gj < n ? costs[gj] : inf;
        reach_host[c] = gj < n ? reach[gj] : Flag{0};
      }
      const std::string label =
          std::string(name_of(backend)) + " p=" + std::to_string(p) + " bj=" + std::to_string(bj);
      expect_same_load<Pint>(
          ctx, cost_host,
          cost_fragment.pack(bj, inf, [&](std::size_t gj) { return costs[gj]; }),
          "cost fragment " + label);
      expect_same_load<Pbool>(
          ctx, reach_host,
          reach_fragment.pack(bj, Flag{0}, [&](std::size_t gj) { return reach[gj]; }),
          "reach fragment " + label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, PanelImages, ::testing::Values(33u, 64u, 65u),
                         [](const ::testing::TestParamInfo<std::size_t>& side) {
                           return "p" + std::to_string(side.param);
                         });

TEST(PanelImage, PackRowsKeepsTheHostDataChecks) {
  for (const sim::ExecBackend backend : kBackends) {
    sim::Machine machine = make_machine(5, 4, backend);
    ppc::Context ctx(machine);
    PanelImage ints(ctx, PanelImage::Kind::Int);
    std::vector<Word> row(5, 3);
    row[2] = 16;  // past the 4-bit field's infinity (15)
    EXPECT_THROW(ints.pack_rows(std::span<const Word>(row)), util::ContractError)
        << name_of(backend);
    const std::vector<Word> ragged(7, 1);  // not whole rows
    EXPECT_THROW(ints.pack_rows(std::span<const Word>(ragged)), util::ContractError);
    const std::vector<Flag> flags(5, 1);
    EXPECT_THROW(ints.pack_rows(std::span<const Flag>(flags)), util::ContractError);
    PanelImage bools(ctx, PanelImage::Kind::Bool);
    EXPECT_THROW((void)Pint(ctx, bools), util::ContractError);
  }
}

TEST(PanelImage, ColumnReadsMatchAt) {
  util::Rng rng(77);
  for (const sim::ExecBackend backend : kBackends) {
    for (const std::size_t n : {1u, 33u, 65u, 130u}) {
      sim::Machine machine = make_machine(n, 16, backend);
      ppc::Context ctx(machine);
      std::vector<Word> words(n * n);
      for (Word& w : words) w = static_cast<Word>(rng.below(1u << 16));
      std::vector<Flag> flags(n * n);
      for (Flag& f : flags) f = static_cast<Flag>(rng.below(2));
      const Pint ints(ctx, std::span<const Word>(words));
      const Pbool bools(ctx, std::span<const Flag>(flags));
      for (const std::size_t col : {std::size_t{0}, n / 2, n - 1}) {
        const std::size_t rows = col == 0 ? n : n / 2 + 1;  // whole and partial columns
        std::vector<Word> int_col(rows);
        std::vector<Flag> bool_col(rows);
        ints.column(col, int_col);
        bools.column(col, bool_col);
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(int_col[r], ints.at(r, col)) << name_of(backend) << " n=" << n;
          ASSERT_EQ(bool_col[r] != 0, bools.at(r, col)) << name_of(backend) << " n=" << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppa
