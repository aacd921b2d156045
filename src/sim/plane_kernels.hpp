// Runtime-dispatched SIMD kernel table for the bit-plane ALU.
//
// tests/plane_ops.hpp holds the portable scalar loops — the independent
// differential oracle (tests/ppc_plane_kernels_test.cpp fuzzes every
// table below against them). This header is the production path: a
// table of function pointers filled per SIMD variant (scalar / AVX2 /
// AVX-512), selected
// once per process from what the build compiled in and what the CPU
// reports, plus the PlaneAlu wrapper that bills each sweep.
//
// Dispatch order:
//   1. A PPA_FORCE_SIMD=<arm> build (CMake option) pins the arm at
//      compile time; if the CPU cannot execute the pinned arm the next
//      best one is used and a one-line note goes to stderr (keeps forced
//      CI legs green on heterogeneous runners).
//   2. The PPA_SIMD environment variable (scalar|avx2|avx512) overrides
//      at run time, with the same graceful fallback.
//   3. Otherwise the widest compiled-in variant the CPU supports wins.
//
// The multi-plane kernels (add_sat / compare_*) take a [begin, end) word
// sub-range of every plane: the ripple-carry and MSB-first scans carry
// state across PLANES (j), never across word index (i), so any split of
// the range gives the same words (the layer probes time them on slices).
#pragma once

#include <cstddef>

#include "sim/bit_planes.hpp"

namespace ppa::sim::plane_kernels {

using sim::PlaneWord;

enum class SimdVariant { Scalar, Avx2, Avx512 };

[[nodiscard]] const char* variant_name(SimdVariant v) noexcept;

/// One fully-populated kernel arm. All pointers are non-null.
struct PlaneKernels {
  SimdVariant variant = SimdVariant::Scalar;

  // Elementwise bitwise sweeps over raw word ranges (callers pass pw or
  // h * pw).
  void (*op_and)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) noexcept = nullptr;
  void (*op_or)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                std::size_t words) noexcept = nullptr;
  void (*op_xor)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) noexcept = nullptr;
  void (*op_andnot)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                    std::size_t words) noexcept = nullptr;
  void (*op_copy)(const PlaneWord* a, PlaneWord* out, std::size_t words) noexcept = nullptr;
  void (*op_zero)(PlaneWord* out, std::size_t words) noexcept = nullptr;
  void (*masked_assign)(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                        std::size_t words) noexcept = nullptr;
  void (*blend)(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
                PlaneWord* out, std::size_t words) noexcept = nullptr;
  bool (*all_zero)(const PlaneWord* a, std::size_t words) noexcept = nullptr;
  bool (*equal)(const PlaneWord* a, const PlaneWord* b, std::size_t words) noexcept = nullptr;

  // Multi-plane kernels on the word sub-range [begin, end) of every
  // plane. Semantics match plane_ops exactly (same clamp rule, same
  // MSB-first compare); the scratch planes of the plane_ops signatures
  // are gone — carry/ones/lt/eq live in registers per word block.
  void (*add_sat)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* out, std::size_t begin,
                  std::size_t end) noexcept = nullptr;
  void (*compare_lt)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                     const PlaneWord* full, PlaneWord* lt, PlaneWord* eq,
                     std::size_t begin, std::size_t end) noexcept = nullptr;
  void (*compare_eq)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                     const PlaneWord* full, PlaneWord* eq, std::size_t begin,
                     std::size_t end) noexcept = nullptr;

  /// Packs rows [row_begin, row_end) of per-PE words into `planes` bit
  /// planes (plane j at offset j * plane_words). Fully overwrites the
  /// covered words, pads read 0 — no pre-zeroing needed, and row ranges
  /// write disjoint words.
  void (*pack_words)(const sim::PlaneGeometry& g, const sim::Word* src, int planes,
                     PlaneWord* out, std::size_t row_begin, std::size_t row_end) = nullptr;
};

/// The scalar arm (always compiled; the dispatch fallback).
[[nodiscard]] const PlaneKernels& scalar_kernels() noexcept;

/// The AVX2 / AVX-512 arms, or nullptr when the build did not compile
/// them (non-x86, or compiler without the flags) or the CPU cannot run
/// them. Tests iterate these directly to fuzz every arm.
[[nodiscard]] const PlaneKernels* avx2_kernels() noexcept;
[[nodiscard]] const PlaneKernels* avx512_kernels() noexcept;

/// The dispatched table / its variant (chosen once per process).
[[nodiscard]] const PlaneKernels& active() noexcept;
[[nodiscard]] SimdVariant active_variant() noexcept;

/// SIMD kernel-throughput counters, billed once per dispatched sweep with
/// the sweep's whole word footprint, so the totals are a deterministic
/// function of the program (docs/observability.md). Plain host
/// bookkeeping: never charged as SIMD steps.
struct SweepStats {
  std::uint64_t dispatches = 0;  // kernel sweeps issued
  std::uint64_t words = 0;       // total plane words those sweeps covered

  [[nodiscard]] SweepStats since(const SweepStats& earlier) const noexcept {
    return {dispatches - earlier.dispatches, words - earlier.words};
  }
};

/// The ppc layer's view of one plane sweep: the dispatched kernels over
/// the whole word range, each sweep billed once to `stats`.
class PlaneAlu {
 public:
  PlaneAlu() = default;
  explicit PlaneAlu(const PlaneKernels& kernels, SweepStats* stats = nullptr) noexcept
      : k_(&kernels), stats_(stats) {}

  [[nodiscard]] const PlaneKernels& kernels() const noexcept { return *k_; }

  void op_and(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) const {
    bill(words);
    k_->op_and(a, b, out, words);
  }
  void op_or(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
             std::size_t words) const {
    bill(words);
    k_->op_or(a, b, out, words);
  }
  void op_xor(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) const {
    bill(words);
    k_->op_xor(a, b, out, words);
  }
  void op_andnot(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) const {
    bill(words);
    k_->op_andnot(a, b, out, words);
  }
  void op_copy(const PlaneWord* a, PlaneWord* out, std::size_t words) const {
    bill(words);
    k_->op_copy(a, out, words);
  }
  void op_zero(PlaneWord* out, std::size_t words) const {
    bill(words);
    k_->op_zero(out, words);
  }
  void masked_assign(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                     std::size_t words) const {
    bill(words);
    k_->masked_assign(mask, src, dst, words);
  }
  void blend(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
             PlaneWord* out, std::size_t words) const {
    bill(words);
    k_->blend(cond, a, b, out, words);
  }

  // Early-exit scans are not billed.
  [[nodiscard]] bool all_zero(const PlaneWord* a, std::size_t words) const {
    return k_->all_zero(a, words);
  }
  [[nodiscard]] bool equal(const PlaneWord* a, const PlaneWord* b,
                           std::size_t words) const {
    return k_->equal(a, b, words);
  }

  void fill_scalar(sim::Word value, int h, std::size_t pw, const PlaneWord* full,
                   PlaneWord* out) const {
    for (int j = 0; j < h; ++j) {
      PlaneWord* plane = out + static_cast<std::size_t>(j) * pw;
      if ((value >> j) & 1u) {
        op_copy(full, plane, pw);
      } else {
        op_zero(plane, pw);
      }
    }
  }

  void add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
               const PlaneWord* full, PlaneWord* out) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->add_sat(a, b, h, pw, full, out, 0, pw);
  }
  void compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* lt, PlaneWord* eq) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->compare_lt(a, b, h, pw, full, lt, eq, 0, pw);
  }
  void compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* eq) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->compare_eq(a, b, h, pw, full, eq, 0, pw);
  }

  void pack_words(const sim::PlaneGeometry& g, const sim::Word* src, int planes,
                  PlaneWord* out) const {
    bill(g.plane_words() * static_cast<std::size_t>(planes));
    k_->pack_words(g, src, planes, out, 0, g.n);
  }

 private:
  /// Throughput billing: one dispatch and the sweep's whole word count.
  void bill(std::size_t words) const noexcept {
    if (stats_ != nullptr) {
      ++stats_->dispatches;
      stats_->words += words;
    }
  }

  const PlaneKernels* k_ = &scalar_kernels();
  SweepStats* stats_ = nullptr;
};

}  // namespace ppa::sim::plane_kernels
