#pragma once

// Portable scalar ALU loops over bit planes: the independent oracle
// tests/ppc_plane_kernels_test.cpp fuzzes every dispatched SIMD arm of
// sim/plane_kernels.hpp against. Linked only into the tests.
//
// Every kernel works on raw PlaneWord ranges under the canonical-pad
// invariant of sim/bit_planes.hpp: pad bits past column n-1 are zero on
// every input and must stay zero on every output. The invariant holds
// structurally: NOT is only ever computed under an AND with a plane whose
// pads are zero (the full-array mask, a where-mask, or another operand),
// so no kernel here needs to re-mask.
//
// Multi-plane (h-bit integer) operands store plane j at offset
// j * plane_words; `pw` is plane_words, `words` is a raw word count
// (callers pass h * pw to apply a bitwise op to all planes at once).

#include <cstddef>

#include "sim/bit_planes.hpp"

namespace ppa::ppc::plane_ops {

using sim::PlaneWord;

inline void op_and(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                   std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] & b[i];
}

inline void op_or(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                  std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] | b[i];
}

inline void op_xor(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                   std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] ^ b[i];
}

/// out = a & ~b (also the masked NOT: op_andnot(full, x) = !x on valid lanes).
inline void op_andnot(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                      std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] & ~b[i];
}

inline void op_copy(const PlaneWord* a, PlaneWord* out, std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i];
}

inline void op_zero(PlaneWord* out, std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = 0;
}

/// dst = mask ? src : dst — the masked write-back of operator=.
inline void masked_assign(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                          std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) dst[i] ^= (dst[i] ^ src[i]) & mask[i];
}

/// out = cond ? a : b, elementwise (select()).
inline void blend(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
                  PlaneWord* out, std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) out[i] = b[i] ^ ((b[i] ^ a[i]) & cond[i]);
}

[[nodiscard]] inline bool all_zero(const PlaneWord* a, std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

[[nodiscard]] inline bool equal(const PlaneWord* a, const PlaneWord* b,
                                std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Fills the h planes of an unmasked scalar: plane j = full where bit j of
/// `value` is set, zero otherwise.
inline void fill_scalar(sim::Word value, int h, std::size_t pw, const PlaneWord* full,
                        PlaneWord* out) noexcept {
  for (int j = 0; j < h; ++j) {
    PlaneWord* plane = out + static_cast<std::size_t>(j) * pw;
    if ((value >> j) & 1u) {
      op_copy(full, plane, pw);
    } else {
      op_zero(plane, pw);
    }
  }
}

/// Saturating h-bit add, matching util::HField::add lane for lane: the
/// result clamps to infinity (all ones) when the true sum is >= 2^h - 1,
/// i.e. on carry-out OR an all-ones sum. Ripple-carry over the planes with
/// two scratch planes; `out` must not alias `a` or `b`.
inline void add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                    const PlaneWord* full, PlaneWord* carry, PlaneWord* ones,
                    PlaneWord* out) noexcept {
  op_zero(carry, pw);
  op_copy(full, ones, pw);
  for (int j = 0; j < h; ++j) {
    const PlaneWord* aj = a + static_cast<std::size_t>(j) * pw;
    const PlaneWord* bj = b + static_cast<std::size_t>(j) * pw;
    PlaneWord* oj = out + static_cast<std::size_t>(j) * pw;
    for (std::size_t i = 0; i < pw; ++i) {
      const PlaneWord s = aj[i] ^ bj[i] ^ carry[i];
      carry[i] = (aj[i] & bj[i]) | (carry[i] & (aj[i] ^ bj[i]));
      oj[i] = s;
      ones[i] &= s;
    }
  }
  // carry|ones = lanes whose sum reached the clamp; force them to all ones.
  for (std::size_t i = 0; i < pw; ++i) ones[i] |= carry[i];
  for (int j = 0; j < h; ++j) {
    op_or(out + static_cast<std::size_t>(j) * pw, ones,
          out + static_cast<std::size_t>(j) * pw, pw);
  }
}

/// lt = (a < b) as a flag plane; eq (when non-null) additionally receives
/// (a == b). MSB-first plane scan; `lt`/`eq_scratch` must not alias inputs.
inline void compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                       const PlaneWord* full, PlaneWord* lt,
                       PlaneWord* eq_scratch) noexcept {
  op_zero(lt, pw);
  op_copy(full, eq_scratch, pw);
  for (int j = h - 1; j >= 0; --j) {
    const PlaneWord* aj = a + static_cast<std::size_t>(j) * pw;
    const PlaneWord* bj = b + static_cast<std::size_t>(j) * pw;
    for (std::size_t i = 0; i < pw; ++i) {
      lt[i] |= eq_scratch[i] & bj[i] & ~aj[i];
      eq_scratch[i] &= ~(aj[i] ^ bj[i]);
    }
  }
}

/// eq = (a == b) as a flag plane.
inline void compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                       const PlaneWord* full, PlaneWord* eq) noexcept {
  op_copy(full, eq, pw);
  for (int j = 0; j < h; ++j) {
    const PlaneWord* aj = a + static_cast<std::size_t>(j) * pw;
    const PlaneWord* bj = b + static_cast<std::size_t>(j) * pw;
    for (std::size_t i = 0; i < pw; ++i) eq[i] &= ~(aj[i] ^ bj[i]);
  }
}

}  // namespace ppa::ppc::plane_ops
