// Shared kernel bodies for the SIMD arms, templated on a vector trait.
//
// Each arm supplies a trait type V with:
//   V::W                          — words per vector register
//   V::reg                        — register type
//   load / store / zero           — unaligned word access
//   and_ / or_ / xor_ / andnot    — bitwise lanes (andnot(a, b) = a & ~b)
//   is_zero                       — whole-register test
// The bodies below keep all loop-carried state (ripple carry, the
// MSB-first lt/eq pair, the saturation mask) in registers; the only
// memory traffic is the operand planes themselves. Every multi-plane
// kernel iterates the WORD index outermost and the plane index inside,
// so a [begin, end) word sub-range is exact: any split of the range
// writes the same words as one whole sweep.
//
// VecScalar (W = 1) instantiates the same bodies for the scalar table
// and serves as every wider arm's tail loop.
#pragma once

#include <cstddef>

#include "sim/bit_planes.hpp"

namespace ppa::sim::plane_kernels::detail {

using sim::PlaneWord;

struct VecScalar {
  static constexpr std::size_t W = 1;
  using reg = PlaneWord;
  static reg load(const PlaneWord* p) noexcept { return *p; }
  static void store(PlaneWord* p, reg v) noexcept { *p = v; }
  static reg zero() noexcept { return 0; }
  static reg and_(reg a, reg b) noexcept { return a & b; }
  static reg or_(reg a, reg b) noexcept { return a | b; }
  static reg xor_(reg a, reg b) noexcept { return a ^ b; }
  static reg andnot(reg a, reg b) noexcept { return a & ~b; }
  static bool is_zero(reg a) noexcept { return a == 0; }
};

template <class V>
void t_op_and(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::and_(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] & b[i];
}

template <class V>
void t_op_or(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
             std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::or_(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] | b[i];
}

template <class V>
void t_op_xor(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::xor_(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] ^ b[i];
}

template <class V>
void t_op_andnot(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::andnot(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] & ~b[i];
}

template <class V>
void t_op_copy(const PlaneWord* a, PlaneWord* out, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) V::store(out + i, V::load(a + i));
  for (; i < words; ++i) out[i] = a[i];
}

template <class V>
void t_op_zero(PlaneWord* out, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) V::store(out + i, V::zero());
  for (; i < words; ++i) out[i] = 0;
}

template <class V>
void t_masked_assign(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                     std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    const auto d = V::load(dst + i);
    V::store(dst + i, V::xor_(d, V::and_(V::xor_(d, V::load(src + i)), V::load(mask + i))));
  }
  for (; i < words; ++i) dst[i] ^= (dst[i] ^ src[i]) & mask[i];
}

template <class V>
void t_blend(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
             PlaneWord* out, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    const auto vb = V::load(b + i);
    V::store(out + i,
             V::xor_(vb, V::and_(V::xor_(vb, V::load(a + i)), V::load(cond + i))));
  }
  for (; i < words; ++i) out[i] = b[i] ^ ((b[i] ^ a[i]) & cond[i]);
}

template <class V>
bool t_all_zero(const PlaneWord* a, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    if (!V::is_zero(V::load(a + i))) return false;
  }
  for (; i < words; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

template <class V>
bool t_equal(const PlaneWord* a, const PlaneWord* b, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    if (!V::is_zero(V::xor_(V::load(a + i), V::load(b + i)))) return false;
  }
  for (; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

template <class V>
void t_add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
               const PlaneWord* full, PlaneWord* out, std::size_t begin,
               std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto carry = V::zero();
    auto ones = V::load(full + i);
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      const auto va = V::load(a + off);
      const auto vb = V::load(b + off);
      const auto axb = V::xor_(va, vb);
      const auto s = V::xor_(axb, carry);
      carry = V::or_(V::and_(va, vb), V::and_(carry, axb));
      V::store(out + off, s);
      ones = V::and_(ones, s);
    }
    // carry|ones = lanes whose sum reached the clamp; force them all-ones.
    ones = V::or_(ones, carry);
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      V::store(out + off, V::or_(V::load(out + off), ones));
    }
  }
  if constexpr (V::W > 1) {
    if (i < end) t_add_sat<VecScalar>(a, b, h, pw, full, out, i, end);
  }
}

template <class V>
void t_compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* lt, PlaneWord* eq,
                  std::size_t begin, std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto vlt = V::zero();
    auto veq = V::load(full + i);
    for (int j = h - 1; j >= 0; --j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      const auto va = V::load(a + off);
      const auto vb = V::load(b + off);
      vlt = V::or_(vlt, V::and_(veq, V::andnot(vb, va)));
      veq = V::andnot(veq, V::xor_(va, vb));
    }
    V::store(lt + i, vlt);
    V::store(eq + i, veq);
  }
  if constexpr (V::W > 1) {
    if (i < end) t_compare_lt<VecScalar>(a, b, h, pw, full, lt, eq, i, end);
  }
}

template <class V>
void t_compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* eq, std::size_t begin,
                  std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto veq = V::load(full + i);
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      veq = V::andnot(veq, V::xor_(V::load(a + off), V::load(b + off)));
    }
    V::store(eq + i, veq);
  }
  if constexpr (V::W > 1) {
    if (i < end) t_compare_eq<VecScalar>(a, b, h, pw, full, eq, i, end);
  }
}

/// Scalar pack: transpose one 64-lane group at a time through a register
/// accumulator, then store each plane word once — instead of the
/// oracle's per-bit read-modify-write into spread-out plane words.
inline void pack_words_rows_scalar(const sim::PlaneGeometry& g, const sim::Word* src,
                                   int planes, PlaneWord* out, std::size_t row_begin,
                                   std::size_t row_end) {
  const std::size_t pw = g.plane_words();
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const sim::Word* row = src + r * n;
    for (std::size_t w = 0; w < rw; ++w) {
      const std::size_t lane0 = w * sim::kLanesPerWord;
      const std::size_t lanes = std::min(sim::kLanesPerWord, n - lane0);
      PlaneWord acc[32] = {};
      for (std::size_t l = 0; l < lanes; ++l) {
        sim::Word v = row[lane0 + l];
        while (v != 0) {
          const int j = __builtin_ctz(v);
          acc[j] |= PlaneWord{1} << l;
          v &= v - 1;
        }
      }
      const std::size_t idx = r * rw + w;
      for (int j = 0; j < planes; ++j) out[static_cast<std::size_t>(j) * pw + idx] = acc[j];
    }
  }
}

}  // namespace ppa::sim::plane_kernels::detail
