// AVX-512 kernel arm. Compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512dq (see src/ppc/CMakeLists.txt); avx512_kernels() additionally
// checks the CPU for the same feature set before handing the table out.
#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "sim/plane_kernels.hpp"
#include "sim/plane_kernels_detail.hpp"

namespace ppa::sim::plane_kernels {

namespace {

struct VecAvx512 {
  static constexpr std::size_t W = 8;  // 8 x 64-bit lanes
  using reg = __m512i;
  static reg load(const sim::PlaneWord* p) noexcept { return _mm512_loadu_si512(p); }
  static void store(sim::PlaneWord* p, reg v) noexcept { _mm512_storeu_si512(p, v); }
  static reg zero() noexcept { return _mm512_setzero_si512(); }
  static reg and_(reg a, reg b) noexcept { return _mm512_and_si512(a, b); }
  static reg or_(reg a, reg b) noexcept { return _mm512_or_si512(a, b); }
  static reg xor_(reg a, reg b) noexcept { return _mm512_xor_si512(a, b); }
  // _mm512_andnot_si512(a, b) computes ~a & b; our contract is a & ~b.
  static reg andnot(reg a, reg b) noexcept { return _mm512_andnot_si512(b, a); }
  static bool is_zero(reg a) noexcept { return _mm512_test_epi64_mask(a, a) == 0; }
};

/// 64 lanes per group: bit j of each 32-bit PE word is harvested with a
/// vptestm mask — 16 lanes per 512-bit register, up to four registers per
/// plane word. A short group (a row narrower than 64 PEs, or a row's
/// ragged tail) loads only its lanes, through a zero-masked load.
void pack_words_rows_avx512(const sim::PlaneGeometry& g, const sim::Word* src,
                            int planes, sim::PlaneWord* out, std::size_t row_begin,
                            std::size_t row_end) {
  const std::size_t pw = g.plane_words();
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const sim::Word* row = src + r * n;
    for (std::size_t w = 0; w < rw; ++w) {
      const std::size_t lane0 = w * sim::kLanesPerWord;
      const std::size_t lanes = std::min(sim::kLanesPerWord, n - lane0);
      const std::size_t regs = (lanes + 15) / 16;
      __m512i v[4];
      for (std::size_t k = 0; k < regs; ++k) {
        const std::size_t left = lanes - 16 * k;
        const __mmask16 live =
            left >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << left) - 1u);
        v[k] = _mm512_maskz_loadu_epi32(live, row + lane0 + 16 * k);
      }
      const std::size_t idx = r * rw + w;
      for (int j = 0; j < planes; ++j) {
        const __m512i bit = _mm512_set1_epi32(1 << j);
        std::uint64_t m = 0;
        for (std::size_t k = 0; k < regs; ++k) {
          m |= static_cast<std::uint64_t>(_mm512_test_epi32_mask(v[k], bit)) << (16 * k);
        }
        out[static_cast<std::size_t>(j) * pw + idx] = m;
      }
    }
  }
}

}  // namespace

const PlaneKernels* avx512_table() noexcept;  // referenced by plane_kernels.cpp

const PlaneKernels* avx512_table() noexcept {
  static const PlaneKernels table = [] {
    PlaneKernels t;
    t.variant = SimdVariant::Avx512;
    t.op_and = detail::t_op_and<VecAvx512>;
    t.op_or = detail::t_op_or<VecAvx512>;
    t.op_xor = detail::t_op_xor<VecAvx512>;
    t.op_andnot = detail::t_op_andnot<VecAvx512>;
    t.op_copy = detail::t_op_copy<VecAvx512>;
    t.op_zero = detail::t_op_zero<VecAvx512>;
    t.masked_assign = detail::t_masked_assign<VecAvx512>;
    t.blend = detail::t_blend<VecAvx512>;
    t.all_zero = detail::t_all_zero<VecAvx512>;
    t.equal = detail::t_equal<VecAvx512>;
    t.add_sat = detail::t_add_sat<VecAvx512>;
    t.compare_lt = detail::t_compare_lt<VecAvx512>;
    t.compare_eq = detail::t_compare_eq<VecAvx512>;
    t.pack_words = pack_words_rows_avx512;
    return t;
  }();
  return &table;
}

}  // namespace ppa::sim::plane_kernels

#endif  // __AVX512F__
