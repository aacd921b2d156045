// Differential fuzz of every compiled SIMD kernel arm against the
// portable scalar reference in tests/plane_ops.hpp (and sim::pack_words for
// the pack kernel), including split word ranges of the multi-plane
// kernels. Geometries deliberately include ragged tails (n not a
// multiple of 64, plane_words not a multiple of the vector width).
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "plane_ops.hpp"
#include "sim/bit_planes.hpp"
#include "sim/plane_kernels.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::plane_kernels::PlaneKernels;
using sim::plane_kernels::SimdVariant;
using sim::PlaneGeometry;
using sim::PlaneWord;

std::vector<const PlaneKernels*> all_arms() {
  std::vector<const PlaneKernels*> arms{&sim::plane_kernels::scalar_kernels()};
  if (const PlaneKernels* t = sim::plane_kernels::avx2_kernels()) arms.push_back(t);
  if (const PlaneKernels* t = sim::plane_kernels::avx512_kernels()) arms.push_back(t);
  return arms;
}

/// Random plane stack with canonically-zero pad bits past column n-1.
std::vector<PlaneWord> random_planes(util::Rng& rng, const PlaneGeometry& g, int planes) {
  const std::size_t pw = g.plane_words();
  std::vector<PlaneWord> out(pw * static_cast<std::size_t>(planes));
  for (int j = 0; j < planes; ++j) {
    for (std::size_t r = 0; r < g.n; ++r) {
      for (std::size_t w = 0; w < g.row_words; ++w) {
        out[static_cast<std::size_t>(j) * pw + r * g.row_words + w] =
            rng.next() & g.word_mask(w);
      }
    }
  }
  return out;
}

std::vector<PlaneWord> full_plane(const PlaneGeometry& g) {
  std::vector<PlaneWord> full(g.plane_words());
  sim::plane_fill_full(g, full.data());
  return full;
}

const std::size_t kSides[] = {1, 5, 63, 64, 65, 96, 128, 130};

TEST(PlaneKernels, ScalarTableIsAlwaysPresent) {
  const PlaneKernels& t = sim::plane_kernels::scalar_kernels();
  EXPECT_EQ(t.variant, SimdVariant::Scalar);
  EXPECT_NE(t.op_and, nullptr);
  EXPECT_NE(t.add_sat, nullptr);
  EXPECT_NE(t.pack_words, nullptr);
}

TEST(PlaneKernels, ActiveVariantIsOneOfTheArms) {
  const char* name = sim::plane_kernels::variant_name(sim::plane_kernels::active_variant());
  EXPECT_TRUE(name == std::string("scalar") || name == std::string("avx2") ||
              name == std::string("avx512"));
  EXPECT_EQ(sim::plane_kernels::active().variant, sim::plane_kernels::active_variant());
}

TEST(PlaneKernels, ElementwiseMatchScalarReference) {
  util::Rng rng(0xE7'0001);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const auto a = random_planes(rng, g, 1);
      const auto b = random_planes(rng, g, 1);
      std::vector<PlaneWord> want(pw), got(pw);

      ppc::plane_ops::op_and(a.data(), b.data(), want.data(), pw);
      arm->op_and(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " and n=" << n;

      ppc::plane_ops::op_or(a.data(), b.data(), want.data(), pw);
      arm->op_or(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " or n=" << n;

      ppc::plane_ops::op_xor(a.data(), b.data(), want.data(), pw);
      arm->op_xor(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " xor n=" << n;

      ppc::plane_ops::op_andnot(a.data(), b.data(), want.data(), pw);
      arm->op_andnot(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                           << " andnot n=" << n;

      ppc::plane_ops::op_copy(a.data(), want.data(), pw);
      arm->op_copy(a.data(), got.data(), pw);
      EXPECT_EQ(want, got);

      ppc::plane_ops::op_zero(want.data(), pw);
      arm->op_zero(got.data(), pw);
      EXPECT_EQ(want, got);

      const auto mask = random_planes(rng, g, 1);
      auto want_dst = b;
      auto got_dst = b;
      ppc::plane_ops::masked_assign(mask.data(), a.data(), want_dst.data(), pw);
      arm->masked_assign(mask.data(), a.data(), got_dst.data(), pw);
      EXPECT_EQ(want_dst, got_dst) << sim::plane_kernels::variant_name(arm->variant)
                                   << " masked_assign n=" << n;

      ppc::plane_ops::blend(mask.data(), a.data(), b.data(), want.data(), pw);
      arm->blend(mask.data(), a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " blend n=" << n;

      EXPECT_EQ(ppc::plane_ops::all_zero(a.data(), pw), arm->all_zero(a.data(), pw));
      std::vector<PlaneWord> zeros(pw, 0);
      EXPECT_TRUE(arm->all_zero(zeros.data(), pw));
      EXPECT_EQ(ppc::plane_ops::equal(a.data(), b.data(), pw),
                arm->equal(a.data(), b.data(), pw));
      EXPECT_TRUE(arm->equal(a.data(), a.data(), pw));
    }
  }
}

TEST(PlaneKernels, MultiPlaneMatchScalarReference) {
  util::Rng rng(0xE7'0002);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      for (const int h : {1, 2, 7, 16, 32}) {
        const PlaneGeometry g{n};
        const std::size_t pw = g.plane_words();
        const auto full = full_plane(g);
        const auto a = random_planes(rng, g, h);
        const auto b = random_planes(rng, g, h);
        const std::size_t total = pw * static_cast<std::size_t>(h);

        std::vector<PlaneWord> want(total), got(total), carry(pw), ones(pw);
        ppc::plane_ops::add_sat(a.data(), b.data(), h, pw, full.data(), carry.data(),
                                ones.data(), want.data());
        arm->add_sat(a.data(), b.data(), h, pw, full.data(), got.data(), 0, pw);
        EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                             << " add_sat n=" << n << " h=" << h;

        std::vector<PlaneWord> want_lt(pw), want_eq(pw), got_lt(pw), got_eq(pw);
        ppc::plane_ops::compare_lt(a.data(), b.data(), h, pw, full.data(), want_lt.data(),
                                   want_eq.data());
        arm->compare_lt(a.data(), b.data(), h, pw, full.data(), got_lt.data(),
                        got_eq.data(), 0, pw);
        EXPECT_EQ(want_lt, got_lt) << sim::plane_kernels::variant_name(arm->variant)
                                   << " compare_lt n=" << n << " h=" << h;
        EXPECT_EQ(want_eq, got_eq) << sim::plane_kernels::variant_name(arm->variant)
                                   << " compare_lt(eq) n=" << n << " h=" << h;

        ppc::plane_ops::compare_eq(a.data(), b.data(), h, pw, full.data(), want_eq.data());
        arm->compare_eq(a.data(), b.data(), h, pw, full.data(), got_eq.data(), 0, pw);
        EXPECT_EQ(want_eq, got_eq) << sim::plane_kernels::variant_name(arm->variant)
                                   << " compare_eq n=" << n << " h=" << h;

        // Split the word range at every boundary in a coarse grid and check
        // the two halves write exactly the whole sweep's words.
        for (const std::size_t cut : {std::size_t{0}, pw / 3, pw / 2, pw}) {
          std::vector<PlaneWord> chunked(total, 0xDEADBEEFu);
          arm->add_sat(a.data(), b.data(), h, pw, full.data(), chunked.data(), 0, cut);
          arm->add_sat(a.data(), b.data(), h, pw, full.data(), chunked.data(), cut, pw);
          EXPECT_EQ(want, chunked) << "add_sat split at " << cut << " n=" << n << " h=" << h;
        }
      }
    }
  }
}

TEST(PlaneKernels, AddSatClampsToAllOnes) {
  // h=8: 250+10 carries out; 55+200 lands exactly on 2^8-1 (infinity);
  // 100+100 and 7+200 stay below the clamp.
  const PlaneGeometry g{4};
  const std::size_t pw = g.plane_words();
  const int h = 8;
  const auto full = full_plane(g);
  std::vector<sim::Word> av(g.n * g.n, 0), bv(g.n * g.n, 0);
  av[0] = 7;
  bv[0] = 200;
  av[1] = 250;
  bv[1] = 10;
  av[2] = 100;
  bv[2] = 100;
  av[3] = 55;
  bv[3] = 200;
  std::vector<PlaneWord> a(pw * h), b(pw * h);
  sim::pack_words(g, av, h, a.data());
  sim::pack_words(g, bv, h, b.data());
  for (const PlaneKernels* arm : all_arms()) {
    std::vector<PlaneWord> out(pw * h);
    arm->add_sat(a.data(), b.data(), h, pw, full.data(), out.data(), 0, pw);
    std::vector<sim::Word> res(g.n * g.n);
    sim::unpack_words(g, out.data(), h, res);
    EXPECT_EQ(res[0], 207u);
    EXPECT_EQ(res[1], 255u);
    EXPECT_EQ(res[2], 200u);
    EXPECT_EQ(res[3], 255u);
  }
}

TEST(PlaneKernels, PackWordsMatchesSimOracle) {
  util::Rng rng(0xE7'0003);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      for (const int planes : {1, 3, 16, 32}) {
        const PlaneGeometry g{n};
        const std::size_t pw = g.plane_words();
        std::vector<sim::Word> src(g.n * g.n);
        for (auto& v : src) {
          v = static_cast<sim::Word>(rng.next() &
                                     ((planes < 32) ? ((1u << planes) - 1u) : ~0u));
        }
        std::vector<PlaneWord> want(pw * static_cast<std::size_t>(planes));
        sim::pack_words(g, src, planes, want.data());
        std::vector<PlaneWord> got(pw * static_cast<std::size_t>(planes), 0xABABABABu);
        arm->pack_words(g, src.data(), planes, got.data(), 0, g.n);
        EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                             << " pack n=" << n << " planes=" << planes;

        // Row-range splits must compose to the same result.
        std::vector<PlaneWord> split(pw * static_cast<std::size_t>(planes), 0x5555u);
        const std::size_t mid = g.n / 2;
        arm->pack_words(g, src.data(), planes, split.data(), mid, g.n);
        arm->pack_words(g, src.data(), planes, split.data(), 0, mid);
        EXPECT_EQ(want, split);
      }
    }
  }
}

TEST(PlaneKernels, PackFlagsMatchesPerPeFormula) {
  util::Rng rng(0xE7'0005);
  for (const std::size_t n : {1u, 33u, 63u, 64u, 65u, 130u}) {
    const PlaneGeometry g{n};
    const std::size_t pw = g.plane_words();
    std::vector<sim::Flag> src(n * n);
    // Any nonzero byte is set (0x80 and 0xFF included).
    for (auto& f : src) f = static_cast<sim::Flag>(rng.below(2) != 0 ? rng.below(256) : 0);

    // The per-PE formula: PE `pe` sits at row pe / n, column pe % n.
    std::vector<PlaneWord> want(pw, 0);
    for (std::size_t pe = 0; pe < src.size(); ++pe) {
      if (src[pe] != 0) {
        want[(pe / n) * g.row_words + (pe % n) / sim::kLanesPerWord] |=
            PlaneWord{1} << ((pe % n) % sim::kLanesPerWord);
      }
    }
    std::vector<PlaneWord> got(pw, 0xABABABABu);
    sim::pack_flags(g, src, got.data());
    EXPECT_EQ(want, got) << "pack_flags n=" << n;

    std::vector<sim::Flag> back(n * n);
    sim::unpack_flags(g, got.data(), back);
    for (std::size_t pe = 0; pe < src.size(); ++pe) {
      ASSERT_EQ(back[pe], src[pe] != 0 ? 1 : 0) << "round trip n=" << n << " pe=" << pe;
    }

    // pack_flag_rows writes the leading rows it is given and nothing else.
    const std::size_t rows = (n + 1) / 2;
    std::vector<PlaneWord> partial(pw, 0x5555u);
    sim::pack_flag_rows(g, std::span<const sim::Flag>(src).first(rows * n), partial.data());
    for (std::size_t i = 0; i < pw; ++i) {
      ASSERT_EQ(partial[i], i < rows * g.row_words ? want[i] : PlaneWord{0x5555u})
          << "pack_flag_rows n=" << n << " word=" << i;
    }
  }
}

}  // namespace
}  // namespace ppa
