// Parallel variables — PPC's `parallel` memorization class as a C++ eDSL.
//
// A Pint is "an array of h-bit integer variables, each element of which is
// associated to a different local memory" (paper Section 2); a Pbool is the
// `parallel logical` used for switch settings and conditions.
//
// SEMANTICS THAT DIFFER FROM PLAIN C++ — read before using:
//
//  * Copy construction / declaration-with-initializer is UNMASKED: it
//    allocates a fresh register in every PE, like a PPC declaration.
//  * ASSIGNMENT (operator=) is MASKED: only PEs active under the current
//    where-mask store the value; inactive PEs keep their old contents.
//    Use store_all() for an explicit unmasked store.
//  * Operators (+, ==, <, &, |, !) are evaluated by ALL PEs regardless of
//    the mask (the array executes every issued instruction; masking gates
//    write-back only). Each operator charges one SIMD ALU step.
//  * Values read from a bus carry a per-PE "driven" flag; consuming an
//    undriven value (storing it on an active PE) triggers the machine's
//    UndrivenPolicy. Values that never touched a floating bus are always
//    fully driven.
//
// Host-side introspection (at(), column(), values()) reads the array
// without charging steps — that is the controller peeking at local
// memories, used for I/O and for assertions in tests.
//
// A PanelImage is host data pre-packed in the register format, so the
// controller can pack a panel once and load it many times (docs/tiling.md
// "Panel images").
#pragma once

#include <span>
#include <vector>

#include "ppc/context.hpp"

namespace ppa::ppc {

class Pbool;
class PanelImage;

/// Parallel h-bit unsigned integer (one per PE).
class Pint {
 public:
  /// Declaration with a scalar initializer — unmasked broadcast fill.
  /// `init` must be representable in the machine's h-bit field.
  Pint(Context& ctx, Word init);

  /// Declaration initialized from host data (the controller loading the
  /// local memories, e.g. the weight matrix W). Unmasked. Every value must
  /// be representable in the field.
  Pint(Context& ctx, std::span<const Word> values);

  /// Declaration initialized from a pre-packed integer image: a straight
  /// copy that charges what the host-data constructor charges. Unmasked.
  Pint(Context& ctx, const PanelImage& image);

  /// Clone — a fresh register unmasked-copied from `other` (buffer drawn
  /// from the context's register arena; charges nothing, like the old
  /// memberwise copy).
  Pint(const Pint& other);
  Pint(Pint&& other) noexcept = default;

  /// Hands the registers back to the context's arena. Moved-from shells
  /// (empty buffers) release nothing.
  ~Pint();

  /// MASKED store (see header comment). Charges one ALU step.
  Pint& operator=(const Pint& rhs);
  Pint& operator=(Pint&& rhs);

  /// Unmasked stores.
  void store_all(const Pint& rhs);
  void store_all(Word value);

  [[nodiscard]] Context& context() const noexcept { return *ctx_; }

  /// Word-backend storage view (empty under the BitPlane backend — use
  /// at() / planes_view() there).
  [[nodiscard]] std::span<const Word> values() const noexcept { return data_; }
  [[nodiscard]] Word at(std::size_t pe) const;
  [[nodiscard]] Word at(std::size_t row, std::size_t col) const;
  /// Rows [0, out.size()) of column `col`, walking each plane once.
  void column(std::size_t col, std::span<Word> out) const;

  /// BitPlane-backend storage: h contiguous planes (empty under Word).
  [[nodiscard]] std::span<const sim::PlaneWord> planes_view() const noexcept {
    return planes_;
  }

  /// True when no element is a floating-bus read.
  [[nodiscard]] bool fully_driven() const noexcept {
    return driven_.empty() && driven_plane_.empty();
  }

  /// Per-PE driven flags; empty span when fully driven.
  [[nodiscard]] std::span<const Flag> driven_view() const noexcept { return driven_; }
  [[nodiscard]] std::span<const sim::PlaneWord> driven_plane_view() const noexcept {
    return driven_plane_;
  }

  /// The j-th bit plane as a parallel logical — the paper's bit(x, j).
  [[nodiscard]] Pbool bit(int j) const;

  /// `this | (flag << j)` — writes a bit plane; used by the bit-serial
  /// primitives to assemble values LSB by LSB.
  [[nodiscard]] Pint or_bit(int j, const Pbool& flag) const;

  // Saturating h-bit arithmetic.
  friend Pint operator+(const Pint& a, const Pint& b);
  friend Pint operator+(const Pint& a, Word b);

  /// Elementwise minimum / maximum (plain ALU ops, not bus reductions).
  friend Pint emin(const Pint& a, const Pint& b);
  friend Pint emax(const Pint& a, const Pint& b);

  // Comparisons — parallel logical results.
  friend Pbool operator==(const Pint& a, const Pint& b);
  friend Pbool operator!=(const Pint& a, const Pint& b);
  friend Pbool operator<(const Pint& a, const Pint& b);
  friend Pbool operator<=(const Pint& a, const Pint& b);
  friend Pbool operator==(const Pint& a, Word b);
  friend Pbool operator!=(const Pint& a, Word b);
  friend Pbool operator<(const Pint& a, Word b);

  /// cond ? a : b, elementwise (unmasked expression).
  friend Pint select(const Pbool& cond, const Pint& a, const Pint& b);

 private:
  friend class detail_access;

  /// Uncharged shell used by detail_access to wrap bus results.
  explicit Pint(Context* ctx) : ctx_(ctx) {}

  Context* ctx_;
  // Exactly one representation is populated, fixed by the machine's
  // ExecBackend: per-PE words (data_/driven_) or h bit planes
  // (planes_/driven_plane_). Programs cannot observe which.
  std::vector<Word> data_;
  // Empty = every element driven; otherwise one flag per PE.
  std::vector<Flag> driven_;
  std::vector<sim::PlaneWord> planes_;
  // Empty = every element driven; otherwise one bit per PE.
  std::vector<sim::PlaneWord> driven_plane_;
};

/// Parallel logical (one flag per PE); doubles as the Open/Short switch
/// setting for the bus primitives (1 = Open).
class Pbool {
 public:
  Pbool(Context& ctx, bool init);
  Pbool(Context& ctx, std::span<const Flag> values);
  /// From a pre-packed flag image (see the Pint twin).
  Pbool(Context& ctx, const PanelImage& image);
  Pbool(const Pbool& other);
  Pbool(Pbool&& other) noexcept = default;
  ~Pbool();

  /// MASKED store. Charges one ALU step.
  Pbool& operator=(const Pbool& rhs);
  Pbool& operator=(Pbool&& rhs);

  void store_all(const Pbool& rhs);
  void store_all(bool value);

  [[nodiscard]] Context& context() const noexcept { return *ctx_; }

  /// Word-backend storage view (empty under the BitPlane backend).
  [[nodiscard]] std::span<const Flag> values() const noexcept { return data_; }
  [[nodiscard]] bool at(std::size_t pe) const;
  [[nodiscard]] bool at(std::size_t row, std::size_t col) const;
  /// Rows [0, out.size()) of column `col` as 0/1 flags.
  void column(std::size_t col, std::span<Flag> out) const;

  /// BitPlane-backend storage: one plane (empty under Word).
  [[nodiscard]] std::span<const sim::PlaneWord> plane_view() const noexcept {
    return plane_;
  }

  [[nodiscard]] bool fully_driven() const noexcept {
    return driven_.empty() && driven_plane_.empty();
  }

  /// Per-PE driven flags; empty span when fully driven.
  [[nodiscard]] std::span<const Flag> driven_view() const noexcept { return driven_; }
  [[nodiscard]] std::span<const sim::PlaneWord> driven_plane_view() const noexcept {
    return driven_plane_;
  }

  /// Number of PEs whose flag is set (host introspection, no step charge).
  [[nodiscard]] std::size_t count() const noexcept;

  // Parallel logic. `!` is logical NOT; `&`, `|`, `^` are elementwise.
  friend Pbool operator!(const Pbool& a);
  friend Pbool operator&(const Pbool& a, const Pbool& b);
  friend Pbool operator|(const Pbool& a, const Pbool& b);
  friend Pbool operator^(const Pbool& a, const Pbool& b);
  friend Pbool operator==(const Pbool& a, const Pbool& b);
  friend Pbool operator!=(const Pbool& a, const Pbool& b);

  /// The flag as a 0/1 parallel integer.
  [[nodiscard]] Pint to_pint() const;

 private:
  friend class detail_access;

  /// Uncharged shell used by detail_access to wrap bus results.
  explicit Pbool(Context* ctx) : ctx_(ctx) {}

  Context* ctx_;
  // One representation populated, per the machine's ExecBackend.
  std::vector<Flag> data_;
  std::vector<Flag> driven_;
  std::vector<sim::PlaneWord> plane_;
  std::vector<sim::PlaneWord> driven_plane_;
};

/// A register's contents packed in the context's storage format: h bit
/// planes (an integer image, loaded into a Pint) or one plane (a flag
/// image, loaded into a Pbool) under the BitPlane backend, per-PE words or
/// flags under Word. A new image is all zero; pack_rows() fills leading
/// rows from host data. Packing issues no instruction — the controller
/// prepares the image off the array — and a load is a copy of it.
class PanelImage {
 public:
  enum class Kind { Int, Bool };

  PanelImage(Context& ctx, Kind kind);

  /// Packs host rows (row-major, ctx.n() cells a row) into the first
  /// cells.size() / ctx.n() rows of an integer image; later rows keep
  /// their contents. Every value must be representable in the field.
  void pack_rows(std::span<const Word> cells);
  /// The flag-image twin (nonzero = set).
  void pack_rows(std::span<const Flag> cells);

 private:
  friend class Pint;
  friend class Pbool;

  Context* ctx_;
  Kind kind_;
  // One representation populated, per the machine's ExecBackend.
  std::vector<sim::PlaneWord> planes_;
  std::vector<Word> words_;
  std::vector<Flag> flags_;
};

/// ROW and COL — the coordinate constants every PPC program can read.
[[nodiscard]] Pint row_of(Context& ctx);
[[nodiscard]] Pint col_of(Context& ctx);

/// The per-PE driven flags of a (possibly bus-read) value as a parallel
/// logical — all-true for fully driven values. On hardware this is the
/// bus sense line every PE can test. One ALU step.
[[nodiscard]] Pbool driven_mask(const Pint& value);
[[nodiscard]] Pbool driven_mask(const Pbool& value);

namespace detail {
/// Internal: builds a Pint/Pbool that carries a driven mask from a bus
/// read. Exposed for primitives.cpp only.
Pint make_bus_pint(Context& ctx, std::vector<Word> values, std::vector<Flag> driven);
Pbool make_bus_pbool(Context& ctx, std::vector<Flag> values, std::vector<Flag> driven);
/// BitPlane-backend twins.
Pint make_bus_pint_planes(Context& ctx, std::vector<sim::PlaneWord> planes,
                          std::vector<sim::PlaneWord> driven);
Pbool make_bus_pbool_plane(Context& ctx, std::vector<sim::PlaneWord> plane,
                           std::vector<sim::PlaneWord> driven);
}  // namespace detail

}  // namespace ppa::ppc
