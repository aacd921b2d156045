// The load images of the panel-sweep visits (docs/tiling.md "Panel
// images").
//
// A visit's panel load moves p + 1 rows over the PanelIo channel on the
// array; on the host it is a copy of a pre-packed ppc::PanelImage. The
// static panels — W for the MCP visits, the adjacency for reachability —
// are packed once per call straight from the weight-matrix rows, and the
// state fragment of a visit is packed into its carrier row only (the
// other rows of a fragment image stay zero for the whole call).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/weight_matrix.hpp"
#include "ppc/parallel.hpp"

namespace ppa::mcp::detail {

/// The image kind a host cell type packs into: words into an integer
/// image, flags into a flag image.
template <class T>
inline constexpr ppc::PanelImage::Kind kImageKind =
    std::is_same_v<T, sim::Flag> ? ppc::PanelImage::Kind::Bool : ppc::PanelImage::Kind::Int;

/// The ceil(n/p)^2 panel images of `graph` on the context's p x p array,
/// panel (bi, bj) at index bi * blocks + bj. Local cell (r, c) of the
/// global cell (gi, gj) = (bi*p + r, bj*p + c) holds `diagonal` when
/// gi == gj, cell(w(gi, gj)) elsewhere inside the graph, and `pad` on
/// padding rows and columns.
template <class T, class CellFn>
[[nodiscard]] std::vector<ppc::PanelImage> pack_panels(ppc::Context& ctx,
                                                       const graph::WeightMatrix& graph,
                                                       T diagonal, T pad, CellFn cell) {
  const std::size_t n = graph.size();
  const std::size_t p = ctx.n();
  const std::size_t blocks = (n + p - 1) / p;
  std::vector<ppc::PanelImage> images;
  images.reserve(blocks * blocks);
  std::vector<T> cells(p * p);
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    for (std::size_t bj = 0; bj < blocks; ++bj) {
      const std::size_t base = bj * p;
      const std::size_t width = std::min(p, n - base);
      for (std::size_t r = 0; r < p; ++r) {
        T* const out = cells.data() + r * p;
        const std::size_t gi = bi * p + r;
        if (gi >= n) {
          std::fill(out, out + p, pad);
          continue;
        }
        const graph::Weight* const w = graph.row(gi).data() + base;
        for (std::size_t c = 0; c < width; ++c) out[c] = cell(w[c]);
        std::fill(out + width, out + p, pad);
        if (gi >= base && gi < base + width) out[gi - base] = diagonal;
      }
      images.emplace_back(ctx, kImageKind<T>).pack_rows(std::span<const T>(cells));
    }
  }
  return images;
}

/// The MCP weight panels: w(gi, gj) with the diagonal forced to 0 (the
/// j == i term of the row minimum then preserves SOW_i, exactly like the
/// full-array load) and padding at infinity (it can never win a minimum
/// whose candidates include the diagonal term).
[[nodiscard]] inline std::vector<ppc::PanelImage> weight_images(
    ppc::Context& ctx, const graph::WeightMatrix& graph) {
  return pack_panels<sim::Word>(ctx, graph, sim::Word{0}, graph.infinity(),
                                [](graph::Weight w) { return w; });
}

/// The adjacency panels: hasEdge(gi, gj) with the diagonal true (the
/// j == i term preserves R_i across iterations, mirroring the MCP's zero
/// diagonal) and padding false (it contributes nothing to a wired-OR).
[[nodiscard]] inline std::vector<ppc::PanelImage> adjacency_images(
    ppc::Context& ctx, const graph::WeightMatrix& graph) {
  const graph::Weight inf = graph.infinity();
  return pack_panels<sim::Flag>(ctx, graph, sim::Flag{1}, sim::Flag{0}, [inf](graph::Weight w) {
    return static_cast<sim::Flag>(w != inf);
  });
}

/// A visit's fragment load image: the carrier row (row 0) holds column
/// block bj of a lane's state — value(gj) for vertex gj, `pad` on padding
/// columns — and every other row is zero. Only the p carrier cells are
/// packed per visit.
template <class T>
class CarrierFragment {
 public:
  CarrierFragment(ppc::Context& ctx, std::size_t n)
      : n_(n), row_(ctx.n()), image_(ctx, kImageKind<T>) {}

  template <class ValueFn>
  const ppc::PanelImage& pack(std::size_t bj, T pad, ValueFn value) {
    const std::size_t p = row_.size();
    for (std::size_t c = 0; c < p; ++c) {
      const std::size_t gj = bj * p + c;
      row_[c] = gj < n_ ? value(gj) : pad;
    }
    image_.pack_rows(std::span<const T>(row_));
    return image_;
  }

 private:
  std::size_t n_;
  std::vector<T> row_;
  ppc::PanelImage image_;
};

}  // namespace ppa::mcp::detail
