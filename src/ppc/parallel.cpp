#include "ppc/parallel.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "ppc/flag_sweep.hpp"
#include "util/check.hpp"

namespace ppa::ppc {

using sim::PlaneWord;

namespace {
/// Which comparison a Pint comparison computes (the plane bodies share
/// compare_planes below).
enum class CompareKind { Eq, Ne, Lt, Le };
}  // namespace

/// Private-access backdoor for primitives.cpp: builds parallel values that
/// carry bus-driven masks without charging a store instruction (the bus
/// primitive itself already charged the cycle). It also holds the shared
/// bodies of the elementwise min/max and comparison operators (defined
/// with the operators below).
class detail_access {
 public:
  template <class Op>
  static Pbool compare(const Pint& a, const Pint& b, CompareKind kind, Op op);
  template <class Op>
  static Pbool compare(const Pint& a, Word b, CompareKind kind, Op op);
  template <class Op>
  static Pint pick(const Pint& a, const Pint& b, bool max, Op op);

  static Pint raw_pint(Context& ctx, std::vector<Word> data, std::vector<Flag> driven) {
    Pint p(&ctx);
    p.data_ = std::move(data);
    p.driven_ = std::move(driven);
    PPA_ASSERT(p.data_.size() == ctx.pe_count(), "raw pint size mismatch");
    return p;
  }

  static Pbool raw_pbool(Context& ctx, std::vector<Flag> data, std::vector<Flag> driven) {
    Pbool p(&ctx);
    p.data_ = std::move(data);
    p.driven_ = std::move(driven);
    PPA_ASSERT(p.data_.size() == ctx.pe_count(), "raw pbool size mismatch");
    return p;
  }

  static Pint raw_pint_planes(Context& ctx, std::vector<PlaneWord> planes,
                              std::vector<PlaneWord> driven) {
    Pint p(&ctx);
    p.planes_ = std::move(planes);
    p.driven_plane_ = std::move(driven);
    PPA_ASSERT(p.planes_.size() == ctx.geometry().plane_words() *
                                       static_cast<std::size_t>(ctx.field().bits()),
               "raw pint plane size mismatch");
    return p;
  }

  static Pbool raw_pbool_plane(Context& ctx, std::vector<PlaneWord> plane,
                               std::vector<PlaneWord> driven) {
    Pbool p(&ctx);
    p.plane_ = std::move(plane);
    p.driven_plane_ = std::move(driven);
    PPA_ASSERT(p.plane_.size() == ctx.geometry().plane_words(),
               "raw pbool plane size mismatch");
    return p;
  }
};

namespace {

void check_same_context(const Context& a, const Context& b) {
  PPA_REQUIRE(&a == &b, "parallel operands belong to different machines");
}

/// Elementwise AND of the operands' driven masks; empty when both are
/// fully driven.
std::vector<Flag> combine_driven(Context& ctx, std::span<const Flag> a,
                                 std::span<const Flag> b) {
  if (a.empty() && b.empty()) return {};
  std::vector<Flag> out = ctx.acquire_flags();
  // Raw pointers: the elementwise sweeps below are the simulator's hot
  // path and must stay cheap even in unoptimized builds, where the
  // vector/span operator[] calls don't inline.
  const Flag* pa = a.empty() ? nullptr : a.data();
  const Flag* pb = b.empty() ? nullptr : b.data();
  Flag* po = out.data();
  const std::size_t count = out.size();
  for (std::size_t pe = 0; pe < count; ++pe) {
    Flag f = 1;
    if (pa != nullptr) f = static_cast<Flag>(f & pa[pe]);
    if (pb != nullptr) f = static_cast<Flag>(f & pb[pe]);
    po[pe] = f;
  }
  return out;
}

/// Arena-backed clone of a driven mask; empty in, empty out.
std::vector<Flag> copy_driven(Context& ctx, std::span<const Flag> driven) {
  if (driven.empty()) return {};
  std::vector<Flag> out = ctx.acquire_flags();
  std::copy(driven.begin(), driven.end(), out.begin());
  return out;
}

/// Plane twin of combine_driven: AND of the driven planes (full stands in
/// for an empty side); {} only when both sides are fully driven. Like the
/// word version, an all-ones result is NOT collapsed — the taint structure
/// stays observable.
std::vector<PlaneWord> combine_driven_planes(Context& ctx, std::span<const PlaneWord> a,
                                             std::span<const PlaneWord> b) {
  if (a.empty() && b.empty()) return {};
  std::vector<PlaneWord> out = ctx.acquire_flag_plane();
  const PlaneWord* pa = a.empty() ? ctx.full_plane() : a.data();
  const PlaneWord* pb = b.empty() ? ctx.full_plane() : b.data();
  ctx.alu().op_and(pa, pb, out.data(), ctx.geometry().plane_words());
  return out;
}

std::vector<PlaneWord> copy_driven_plane(Context& ctx,
                                         std::span<const PlaneWord> driven) {
  if (driven.empty()) return {};
  std::vector<PlaneWord> out = ctx.acquire_flag_plane();
  ctx.alu().op_copy(driven.data(), out.data(), ctx.geometry().plane_words());
  return out;
}

[[noreturn]] void fail_undriven(const Context& ctx, std::size_t pe) {
  std::ostringstream os;
  const std::size_t n = ctx.n();
  os << "PE (" << pe / n << ", " << pe % n
     << ") consumed an undriven bus value; with BusTopology::Linear this usually means a "
        "broadcast relied on ring wrap-around (see DESIGN.md), or an empty candidate set "
        "drove nothing onto the bus";
  throw util::ContractError(os.str());
}

/// Resolves a masked consume of undriven bus values. Checked execution
/// records a structured diagnostic and lets the store proceed (the bus
/// kernels already zeroed the undriven cells, so the PE reads 0); otherwise
/// the UndrivenPolicy::Error contract throws.
void handle_undriven(Context& ctx, std::size_t first_pe, std::size_t count) {
  if (ctx.machine().config().checked) {
    const std::size_t n = ctx.n();
    ctx.machine().report_fault(sim::FaultEvent{sim::FaultEventKind::UndrivenRead,
                                               sim::StepCategory::Alu,
                                               sim::Direction::North, first_pe / n,
                                               first_pe % n, count});
    return;
  }
  fail_undriven(ctx, first_pe);
}

/// Enforces the machine's UndrivenPolicy for a masked store of `rhs_driven`
/// (empty = fully driven, nothing to check).
void check_store_driven(Context& ctx, std::span<const Flag> mask,
                        std::span<const Flag> rhs_driven) {
  if (rhs_driven.empty()) return;
  const sim::MachineConfig& config = ctx.machine().config();
  if (!config.checked && config.undriven != sim::UndrivenPolicy::Error) return;
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t pe = 0; pe < mask.size(); ++pe) {
    if (mask[pe] && !rhs_driven[pe]) {
      if (count == 0) first = pe;
      ++count;
      if (!config.checked) break;  // the throw only reports the first PE
    }
  }
  if (count != 0) handle_undriven(ctx, first, count);
}

/// PE index of the lowest set bit of `bits` within word `word` of a plane
/// (row-major word order == PE order, so the first hit is the lowest PE).
std::size_t plane_pe_of(const sim::PlaneGeometry& g, std::size_t word, PlaneWord bits) {
  const std::size_t row = word / g.row_words;
  const std::size_t col = (word % g.row_words) * sim::kLanesPerWord +
                          static_cast<std::size_t>(__builtin_ctzll(bits));
  return row * g.n + col;
}

void check_store_driven_plane(Context& ctx, const PlaneWord* mask,
                              std::span<const PlaneWord> rhs_driven) {
  if (rhs_driven.empty()) return;
  const sim::MachineConfig& config = ctx.machine().config();
  if (!config.checked && config.undriven != sim::UndrivenPolicy::Error) return;
  const std::size_t pw = ctx.geometry().plane_words();
  const PlaneWord* pd = rhs_driven.data();
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < pw; ++i) {
    const PlaneWord bad = mask[i] & ~pd[i];
    if (bad == 0) continue;
    if (count == 0) first = plane_pe_of(ctx.geometry(), i, bad);
    count += static_cast<std::size_t>(__builtin_popcountll(bad));
    if (!config.checked) break;  // the throw only reports the first PE
  }
  if (count != 0) handle_undriven(ctx, first, count);
}

/// store_all's unmasked variant of the check: every PE must be driven.
void check_store_all_driven_plane(Context& ctx, std::span<const PlaneWord> rhs_driven) {
  check_store_driven_plane(ctx, ctx.full_plane(), rhs_driven);
}

/// Every value fits the field iff their OR does: infinity is 2^h - 1, so a
/// value is representable exactly when it has no bit at or above h.
void require_representable(const Context& ctx, std::span<const Word> values) {
  Word bits = 0;
  for (const Word v : values) bits |= v;
  PPA_REQUIRE(ctx.field().representable(bits), "initializer value does not fit in the field");
}

/// store_all's unmasked word-path variant.
void check_store_all_driven(Context& ctx, std::span<const Flag> rhs_driven) {
  if (rhs_driven.empty()) return;
  const sim::MachineConfig& config = ctx.machine().config();
  if (!config.checked && config.undriven != sim::UndrivenPolicy::Error) return;
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t pe = 0; pe < rhs_driven.size(); ++pe) {
    if (!rhs_driven[pe]) {
      if (count == 0) first = pe;
      ++count;
      if (!config.checked) break;
    }
  }
  if (count != 0) handle_undriven(ctx, first, count);
}

}  // namespace

// ---------------------------------------------------------------------------
// Pint
// ---------------------------------------------------------------------------

Pint::Pint(Context& ctx, Word init) : ctx_(&ctx) {
  PPA_REQUIRE(ctx.field().representable(init), "initializer does not fit in the h-bit field");
  if (ctx.bitplane()) {
    planes_ = ctx.acquire_value_planes();
    ctx.alu().fill_scalar(init, ctx.field().bits(), ctx.geometry().plane_words(),
                           ctx.full_plane(), planes_.data());
  } else {
    data_ = ctx.acquire_words();
    std::fill(data_.begin(), data_.end(), init);
  }
  ctx.machine().charge_alu();
}

Pint::Pint(Context& ctx, std::span<const Word> values) : ctx_(&ctx) {
  PPA_REQUIRE(values.size() == ctx.pe_count(), "initializer must cover the whole array");
  require_representable(ctx, values);
  if (ctx.bitplane()) {
    planes_ = ctx.acquire_value_planes();
    ctx.alu().pack_words(ctx.geometry(), values.data(), ctx.field().bits(),
                         planes_.data());
  } else {
    data_ = ctx.acquire_words();
    std::copy(values.begin(), values.end(), data_.begin());
  }
  ctx.machine().charge_alu();
}

Pint::Pint(Context& ctx, const PanelImage& image) : ctx_(&ctx) {
  PPA_REQUIRE(image.ctx_ == &ctx && image.kind_ == PanelImage::Kind::Int,
              "a Pint loads an integer image of its own context");
  if (ctx.bitplane()) {
    planes_ = ctx.acquire_value_planes();
    ctx.alu().op_copy(image.planes_.data(), planes_.data(), planes_.size());
  } else {
    data_ = ctx.acquire_words();
    std::copy(image.words_.begin(), image.words_.end(), data_.begin());
  }
  ctx.machine().charge_alu();
}

Pint::Pint(const Pint& other) : ctx_(other.ctx_) {
  if (ctx_->bitplane()) {
    planes_ = ctx_->acquire_value_planes();
    planes_.resize(other.planes_.size());  // no-op except for moved-from shells
    std::copy(other.planes_.begin(), other.planes_.end(), planes_.begin());
    if (!other.driven_plane_.empty()) {
      driven_plane_ = ctx_->acquire_flag_plane();
      driven_plane_.resize(other.driven_plane_.size());
      std::copy(other.driven_plane_.begin(), other.driven_plane_.end(),
                driven_plane_.begin());
    }
    return;
  }
  data_ = ctx_->acquire_words();
  data_.resize(other.data_.size());  // no-op except for moved-from shells
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  if (!other.driven_.empty()) {
    driven_ = ctx_->acquire_flags();
    driven_.resize(other.driven_.size());
    std::copy(other.driven_.begin(), other.driven_.end(), driven_.begin());
  }
}

Pint::~Pint() {
  if (ctx_ != nullptr) {
    ctx_->release_words(std::move(data_));
    ctx_->release_flags(std::move(driven_));
    ctx_->release_value_planes(std::move(planes_));
    ctx_->release_flag_plane(std::move(driven_plane_));
  }
}

Pint& Pint::operator=(const Pint& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const PlaneWord* pm = ctx.mask_plane();
    check_store_driven_plane(ctx, pm, rhs.driven_plane_);
    ctx.machine().charge_alu();
    const std::size_t pw = ctx.geometry().plane_words();
    const int h = ctx.field().bits();
    for (int j = 0; j < h; ++j) {
      ctx.alu().masked_assign(pm, rhs.planes_.data() + static_cast<std::size_t>(j) * pw,
                               planes_.data() + static_cast<std::size_t>(j) * pw, pw);
    }
    if (!driven_plane_.empty()) {
      ctx.alu().op_or(driven_plane_.data(), pm, driven_plane_.data(), pw);
    }
    return *this;
  }
  const auto mask = ctx.mask();
  check_store_driven(ctx, mask, rhs.driven_);
  ctx.machine().charge_alu();
  // Self-assignment is harmless: each PE rewrites its own value.
  const Flag* pm = mask.data();
  const Word* ps = rhs.data_.data();
  Word* pd = data_.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) {
    if (pm[pe]) pd[pe] = ps[pe];
  }
  if (!driven_.empty()) {
    // Written cells now hold defined values (undriven reads were rejected
    // or zeroed above).
    Flag* pv = driven_.data();
    for (std::size_t pe = 0; pe < driven_.size(); ++pe) {
      if (pm[pe]) pv[pe] = 1;
    }
  }
  return *this;
}

Pint& Pint::operator=(Pint&& rhs) { return *this = static_cast<const Pint&>(rhs); }

void Pint::store_all(const Pint& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  if (ctx_->bitplane()) {
    check_store_all_driven_plane(*ctx_, rhs.driven_plane_);
    ctx_->machine().charge_alu();
    planes_ = rhs.planes_;
    driven_plane_.clear();
    return;
  }
  check_store_all_driven(*ctx_, rhs.driven_);
  ctx_->machine().charge_alu();
  data_ = rhs.data_;
  driven_.clear();
}

void Pint::store_all(Word value) {
  PPA_REQUIRE(ctx_->field().representable(value), "value does not fit in the h-bit field");
  ctx_->machine().charge_alu();
  if (ctx_->bitplane()) {
    ctx_->alu().fill_scalar(value, ctx_->field().bits(), ctx_->geometry().plane_words(),
                            ctx_->full_plane(), planes_.data());
    driven_plane_.clear();
    return;
  }
  std::fill(data_.begin(), data_.end(), value);
  driven_.clear();
}

Word Pint::at(std::size_t pe) const {
  PPA_REQUIRE(pe < ctx_->pe_count(), "PE index out of range");
  if (ctx_->bitplane()) {
    const auto& g = ctx_->geometry();
    const std::size_t pw = g.plane_words();
    const std::size_t row = pe / g.n;
    const std::size_t col = pe % g.n;
    Word v = 0;
    const int h = ctx_->field().bits();
    for (int j = 0; j < h; ++j) {
      if (sim::plane_get(g, planes_.data() + static_cast<std::size_t>(j) * pw, row, col)) {
        v |= Word{1} << j;
      }
    }
    return v;
  }
  return data_[pe];
}

Word Pint::at(std::size_t row, std::size_t col) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(row < n && col < n, "PE coordinates out of range");
  return at(row * n + col);
}

void Pint::column(std::size_t col, std::span<Word> out) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(col < n && out.size() <= n, "PE coordinates out of range");
  if (ctx_->bitplane()) {
    const auto& g = ctx_->geometry();
    const unsigned bit = sim::PlaneGeometry::bit_of(col);
    std::fill(out.begin(), out.end(), Word{0});
    const int h = ctx_->field().bits();
    for (int j = 0; j < h; ++j) {
      const PlaneWord* word =
          planes_.data() + static_cast<std::size_t>(j) * g.plane_words() + g.word_of(0, col);
      for (std::size_t r = 0; r < out.size(); ++r, word += g.row_words) {
        out[r] |= static_cast<Word>((*word >> bit) & 1u) << j;
      }
    }
    return;
  }
  for (std::size_t r = 0; r < out.size(); ++r) out[r] = data_[r * n + col];
}

Pbool Pint::bit(int j) const {
  PPA_REQUIRE(j >= 0 && j < ctx_->field().bits(), "bit plane index out of range");
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    // The plane IS the representation: extraction is a straight copy.
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_copy(planes_.data() + static_cast<std::size_t>(j) * pw, out.data(), pw);
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* ps = data_.data();
  Flag* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) {
    po[pe] = static_cast<Flag>((ps[pe] >> j) & 1u);
  }
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), copy_driven(ctx, driven_));
}

Pint Pint::or_bit(int j, const Pbool& flag) const {
  PPA_REQUIRE(j >= 0 && j < ctx_->field().bits(), "bit plane index out of range");
  check_same_context(*ctx_, flag.context());
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    const int h = ctx.field().bits();
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().op_copy(planes_.data(), out.data(), static_cast<std::size_t>(h) * pw);
    PlaneWord* oj = out.data() + static_cast<std::size_t>(j) * pw;
    ctx.alu().op_or(oj, flag.plane_view().data(), oj, pw);
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(
        ctx, std::move(out), combine_driven_planes(ctx, driven_plane_, flag.driven_plane_view()));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Flag* pf = flag.values().data();
  const Word* ps = data_.data();
  Word* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) {
    po[pe] = ps[pe] | (pf[pe] ? (Word{1} << j) : Word{0});
  }
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out),
                                 combine_driven(ctx, driven_, flag.driven_view()));
}

// ---------------------------------------------------------------------------
// The operator bodies need the operands' driven masks; they are friends so
// they touch the members directly rather than going through helpers.
// ---------------------------------------------------------------------------

Pint operator+(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().add_sat(a.planes_.data(), b.planes_.data(), ctx.field().bits(), pw,
                      ctx.full_plane(), out.data());
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  const auto& field = ctx.field();
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = field.add(pa[pe], pb[pe]);
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out),
                                 combine_driven(ctx, a.driven_, b.driven_));
}

Pint operator+(const Pint& a, Word b) {
  Context& ctx = *a.ctx_;
  PPA_REQUIRE(ctx.field().representable(b), "scalar does not fit in the h-bit field");
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    const int h = ctx.field().bits();
    std::vector<PlaneWord> scalar = ctx.acquire_value_planes();
    ctx.alu().fill_scalar(b, h, pw, ctx.full_plane(), scalar.data());
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().add_sat(a.planes_.data(), scalar.data(), h, pw, ctx.full_plane(),
                      out.data());
    ctx.release_value_planes(std::move(scalar));
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  const auto& field = ctx.field();
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  Word* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = field.add(pa[pe], b);
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out), combine_driven(ctx, a.driven_, {}));
}

namespace {

/// Shared plane body of emin/emax/select: out = choose ? a : b per plane.
std::vector<PlaneWord> blend_planes(Context& ctx, const PlaneWord* choose,
                                    std::span<const PlaneWord> a,
                                    std::span<const PlaneWord> b) {
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  std::vector<PlaneWord> out = ctx.acquire_value_planes();
  for (int j = 0; j < h; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw;
    ctx.alu().blend(choose, a.data() + off, b.data() + off, out.data() + off, pw);
  }
  return out;
}

}  // namespace

/// Shared body of emin / emax: out = (a < b) ? a : b for the minimum,
/// (b < a) ? a : b for the maximum — one compare plus a per-plane blend on
/// the plane backend.
template <class Op>
Pint detail_access::pick(const Pint& a, const Pint& b, bool max, Op op) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    const int h = ctx.field().bits();
    std::vector<PlaneWord> choose = ctx.acquire_flag_plane();
    std::vector<PlaneWord> eq = ctx.acquire_flag_plane();
    const Pint& lo = max ? b : a;
    const Pint& hi = max ? a : b;
    ctx.alu().compare_lt(lo.planes_.data(), hi.planes_.data(), h, pw, ctx.full_plane(),
                         choose.data(), eq.data());
    std::vector<PlaneWord> out = blend_planes(ctx, choose.data(), a.planes_, b.planes_);
    ctx.release_flag_plane(std::move(choose));
    ctx.release_flag_plane(std::move(eq));
    ctx.machine().charge_alu();
    return raw_pint_planes(ctx, std::move(out),
                           combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = op(pa[pe], pb[pe]) ? pa[pe] : pb[pe];
  ctx.machine().charge_alu();
  return raw_pint(ctx, std::move(out), combine_driven(ctx, a.driven_, b.driven_));
}

Pint emin(const Pint& a, const Pint& b) { return detail_access::pick(a, b, false, std::less<>{}); }
Pint emax(const Pint& a, const Pint& b) {
  return detail_access::pick(a, b, true, std::greater<>{});
}

namespace {

/// Plane bodies of the Pint comparisons; `kind` selects the output.
std::vector<PlaneWord> compare_planes(Context& ctx, std::span<const PlaneWord> a,
                                      std::span<const PlaneWord> b, CompareKind kind) {
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  std::vector<PlaneWord> out = ctx.acquire_flag_plane();
  if (kind == CompareKind::Eq || kind == CompareKind::Ne) {
    ctx.alu().compare_eq(a.data(), b.data(), h, pw, ctx.full_plane(), out.data());
    if (kind == CompareKind::Ne) {
      ctx.alu().op_andnot(ctx.full_plane(), out.data(), out.data(), pw);
    }
    return out;
  }
  std::vector<PlaneWord> eq = ctx.acquire_flag_plane();
  ctx.alu().compare_lt(a.data(), b.data(), h, pw, ctx.full_plane(), out.data(), eq.data());
  if (kind == CompareKind::Le) {
    ctx.alu().op_or(out.data(), eq.data(), out.data(), pw);
  }
  ctx.release_flag_plane(std::move(eq));
  return out;
}

/// Materializes a scalar's planes so the vector compare bodies can be
/// reused for the Pint-vs-scalar comparisons.
std::vector<PlaneWord> scalar_planes(Context& ctx, Word value) {
  std::vector<PlaneWord> out = ctx.acquire_value_planes();
  ctx.alu().fill_scalar(value, ctx.field().bits(), ctx.geometry().plane_words(),
                         ctx.full_plane(), out.data());
  return out;
}

}  // namespace

template <class Op>
Pbool detail_access::compare(const Pint& a, const Pint& b, CompareKind kind, Op op) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, b.planes_, kind);
    ctx.machine().charge_alu();
    return raw_pbool_plane(ctx, std::move(out),
                           combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Flag* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = op(pa[pe], pb[pe]) ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return raw_pbool(ctx, std::move(out), combine_driven(ctx, a.driven_, b.driven_));
}

template <class Op>
Pbool detail_access::compare(const Pint& a, Word b, CompareKind kind, Op op) {
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> bp = scalar_planes(ctx, b);
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, bp, kind);
    ctx.release_value_planes(std::move(bp));
    ctx.machine().charge_alu();
    return raw_pbool_plane(ctx, std::move(out), copy_driven_plane(ctx, a.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  Flag* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = op(pa[pe], b) ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return raw_pbool(ctx, std::move(out), combine_driven(ctx, a.driven_, {}));
}

Pbool operator==(const Pint& a, const Pint& b) {
  return detail_access::compare(a, b, CompareKind::Eq, std::equal_to<>{});
}
Pbool operator!=(const Pint& a, const Pint& b) {
  return detail_access::compare(a, b, CompareKind::Ne, std::not_equal_to<>{});
}
Pbool operator<(const Pint& a, const Pint& b) {
  return detail_access::compare(a, b, CompareKind::Lt, std::less<>{});
}
Pbool operator<=(const Pint& a, const Pint& b) {
  return detail_access::compare(a, b, CompareKind::Le, std::less_equal<>{});
}
Pbool operator==(const Pint& a, Word b) {
  return detail_access::compare(a, b, CompareKind::Eq, std::equal_to<>{});
}
Pbool operator!=(const Pint& a, Word b) {
  return detail_access::compare(a, b, CompareKind::Ne, std::not_equal_to<>{});
}
Pbool operator<(const Pint& a, Word b) {
  return detail_access::compare(a, b, CompareKind::Lt, std::less<>{});
}

Pint select(const Pbool& cond, const Pint& a, const Pint& b) {
  check_same_context(cond.context(), a.context());
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out =
        blend_planes(ctx, cond.plane_view().data(), a.planes_, b.planes_);
    ctx.machine().charge_alu();
    // Driven-ness follows the SELECTED operand per element (a tainted
    // condition taints everything).
    std::vector<PlaneWord> driven;
    const auto cd = cond.driven_plane_view();
    if (!a.driven_plane_.empty() || !b.driven_plane_.empty() || !cd.empty()) {
      driven = ctx.acquire_flag_plane();
      const PlaneWord* pc = cond.plane_view().data();
      const PlaneWord* pad =
          a.driven_plane_.empty() ? ctx.full_plane() : a.driven_plane_.data();
      const PlaneWord* pbd =
          b.driven_plane_.empty() ? ctx.full_plane() : b.driven_plane_.data();
      const PlaneWord* pcd = cd.empty() ? ctx.full_plane() : cd.data();
      PlaneWord* pdv = driven.data();
      for (std::size_t i = 0; i < pw; ++i) {
        pdv[i] = ((pc[i] & pad[i]) | (pbd[i] & ~pc[i])) & pcd[i];
      }
      if (ctx.alu().equal(pdv, ctx.full_plane(), pw)) {
        ctx.release_flag_plane(std::move(driven));
        driven = {};
      }
    }
    return detail_access::raw_pint_planes(ctx, std::move(out), std::move(driven));
  }
  std::vector<Word> out = ctx.acquire_words();
  const auto cv = cond.values();
  const Flag* pc = cv.data();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = pc[pe] ? pa[pe] : pb[pe];
  ctx.machine().charge_alu();
  // Driven-ness follows the SELECTED operand per element (a tainted
  // condition taints everything).
  std::vector<Flag> driven;
  if (!a.driven_.empty() || !b.driven_.empty() || !cond.driven_view().empty()) {
    driven = ctx.acquire_flags();
    const auto cd = cond.driven_view();
    const Flag* pad = a.driven_.empty() ? nullptr : a.driven_.data();
    const Flag* pbd = b.driven_.empty() ? nullptr : b.driven_.data();
    const Flag* pcd = cd.empty() ? nullptr : cd.data();
    Flag* pdv = driven.data();
    bool any_undriven = false;
    for (std::size_t pe = 0; pe < driven.size(); ++pe) {
      const Flag chosen = pc[pe] ? (pad == nullptr ? Flag{1} : pad[pe])
                                 : (pbd == nullptr ? Flag{1} : pbd[pe]);
      const Flag cond_ok = pcd == nullptr ? Flag{1} : pcd[pe];
      pdv[pe] = static_cast<Flag>(chosen & cond_ok);
      any_undriven |= (pdv[pe] == 0);
    }
    if (!any_undriven) {
      ctx.release_flags(std::move(driven));
      driven = {};
    }
  }
  return detail_access::raw_pint(ctx, std::move(out), std::move(driven));
}

// ---------------------------------------------------------------------------
// Pbool
// ---------------------------------------------------------------------------

Pbool::Pbool(Context& ctx, bool init) : ctx_(&ctx) {
  if (ctx.bitplane()) {
    plane_ = ctx.acquire_flag_plane();
    if (init) {
      ctx.alu().op_copy(ctx.full_plane(), plane_.data(), plane_.size());
    } else {
      ctx.alu().op_zero(plane_.data(), plane_.size());
    }
  } else {
    data_ = ctx.acquire_flags();
    std::fill(data_.begin(), data_.end(), init ? Flag{1} : Flag{0});
  }
  ctx.machine().charge_alu();
}

Pbool::Pbool(Context& ctx, std::span<const Flag> values) : ctx_(&ctx) {
  PPA_REQUIRE(values.size() == ctx.pe_count(), "initializer must cover the whole array");
  if (ctx.bitplane()) {
    plane_ = ctx.acquire_flag_plane();
    sim::pack_flags(ctx.geometry(), values, plane_.data());
  } else {
    data_ = ctx.acquire_flags();
    for (std::size_t pe = 0; pe < data_.size(); ++pe) {
      data_[pe] = values[pe] ? Flag{1} : Flag{0};
    }
  }
  ctx.machine().charge_alu();
}

Pbool::Pbool(Context& ctx, const PanelImage& image) : ctx_(&ctx) {
  PPA_REQUIRE(image.ctx_ == &ctx && image.kind_ == PanelImage::Kind::Bool,
              "a Pbool loads a flag image of its own context");
  if (ctx.bitplane()) {
    plane_ = ctx.acquire_flag_plane();
    std::copy(image.planes_.begin(), image.planes_.end(), plane_.begin());
  } else {
    data_ = ctx.acquire_flags();
    std::copy(image.flags_.begin(), image.flags_.end(), data_.begin());
  }
  ctx.machine().charge_alu();
}

Pbool::Pbool(const Pbool& other) : ctx_(other.ctx_) {
  if (ctx_->bitplane()) {
    plane_ = ctx_->acquire_flag_plane();
    plane_.resize(other.plane_.size());
    std::copy(other.plane_.begin(), other.plane_.end(), plane_.begin());
    if (!other.driven_plane_.empty()) {
      driven_plane_ = ctx_->acquire_flag_plane();
      driven_plane_.resize(other.driven_plane_.size());
      std::copy(other.driven_plane_.begin(), other.driven_plane_.end(),
                driven_plane_.begin());
    }
    return;
  }
  data_ = ctx_->acquire_flags();
  data_.resize(other.data_.size());
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  if (!other.driven_.empty()) {
    driven_ = ctx_->acquire_flags();
    driven_.resize(other.driven_.size());
    std::copy(other.driven_.begin(), other.driven_.end(), driven_.begin());
  }
}

Pbool::~Pbool() {
  if (ctx_ != nullptr) {
    ctx_->release_flags(std::move(data_));
    ctx_->release_flags(std::move(driven_));
    ctx_->release_flag_plane(std::move(plane_));
    ctx_->release_flag_plane(std::move(driven_plane_));
  }
}

Pbool& Pbool::operator=(const Pbool& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const PlaneWord* pm = ctx.mask_plane();
    check_store_driven_plane(ctx, pm, rhs.driven_plane_);
    ctx.machine().charge_alu();
    const std::size_t pw = ctx.geometry().plane_words();
    ctx.alu().masked_assign(pm, rhs.plane_.data(), plane_.data(), pw);
    if (!driven_plane_.empty()) {
      ctx.alu().op_or(driven_plane_.data(), pm, driven_plane_.data(), pw);
    }
    return *this;
  }
  const auto mask = ctx.mask();
  check_store_driven(ctx, mask, rhs.driven_);
  ctx.machine().charge_alu();
  const Flag* pm = mask.data();
  const Flag* ps = rhs.data_.data();
  Flag* pd = data_.data();
  flag_sweep::masked_assign_flags(pm, ps, pd, ctx.pe_count());
  if (!driven_.empty()) {
    Flag* pv = driven_.data();
    for (std::size_t pe = 0; pe < driven_.size(); ++pe) {
      if (pm[pe]) pv[pe] = 1;
    }
  }
  return *this;
}

Pbool& Pbool::operator=(Pbool&& rhs) { return *this = static_cast<const Pbool&>(rhs); }

void Pbool::store_all(const Pbool& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  if (ctx_->bitplane()) {
    check_store_all_driven_plane(*ctx_, rhs.driven_plane_);
    ctx_->machine().charge_alu();
    plane_ = rhs.plane_;
    driven_plane_.clear();
    return;
  }
  check_store_all_driven(*ctx_, rhs.driven_);
  ctx_->machine().charge_alu();
  data_ = rhs.data_;
  driven_.clear();
}

void Pbool::store_all(bool value) {
  ctx_->machine().charge_alu();
  if (ctx_->bitplane()) {
    if (value) {
      ctx_->alu().op_copy(ctx_->full_plane(), plane_.data(), plane_.size());
    } else {
      ctx_->alu().op_zero(plane_.data(), plane_.size());
    }
    driven_plane_.clear();
    return;
  }
  std::fill(data_.begin(), data_.end(), value ? Flag{1} : Flag{0});
  driven_.clear();
}

bool Pbool::at(std::size_t pe) const {
  PPA_REQUIRE(pe < ctx_->pe_count(), "PE index out of range");
  if (ctx_->bitplane()) {
    const auto& g = ctx_->geometry();
    return sim::plane_get(g, plane_.data(), pe / g.n, pe % g.n);
  }
  return data_[pe] != 0;
}

bool Pbool::at(std::size_t row, std::size_t col) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(row < n && col < n, "PE coordinates out of range");
  return at(row * n + col);
}

void Pbool::column(std::size_t col, std::span<Flag> out) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(col < n && out.size() <= n, "PE coordinates out of range");
  if (ctx_->bitplane()) {
    const auto& g = ctx_->geometry();
    const unsigned bit = sim::PlaneGeometry::bit_of(col);
    const PlaneWord* word = plane_.data() + g.word_of(0, col);
    for (std::size_t r = 0; r < out.size(); ++r, word += g.row_words) {
      out[r] = static_cast<Flag>((*word >> bit) & 1u);
    }
    return;
  }
  for (std::size_t r = 0; r < out.size(); ++r) out[r] = data_[r * n + col];
}

std::size_t Pbool::count() const noexcept {
  if (ctx_->bitplane()) {
    return sim::plane_popcount(ctx_->geometry(), plane_.data());
  }
  std::size_t c = 0;
  for (const Flag f : data_) c += (f != 0);
  return c;
}

Pbool operator!(const Pbool& a) {
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_andnot(ctx.full_plane(), a.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  Flag* po = out.data();
  flag_sweep::not_flags(pa, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), copy_driven(ctx, a.driven_));
}

Pbool operator&(const Pbool& a, const Pbool& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_and(a.plane_.data(), b.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  const Flag* pb = b.data_.data();
  Flag* po = out.data();
  flag_sweep::and_flags(pa, pb, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator|(const Pbool& a, const Pbool& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_or(a.plane_.data(), b.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  const Flag* pb = b.data_.data();
  Flag* po = out.data();
  flag_sweep::or_flags(pa, pb, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator^(const Pbool& a, const Pbool& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_xor(a.plane_.data(), b.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  const Flag* pb = b.data_.data();
  Flag* po = out.data();
  flag_sweep::xor_flags(pa, pb, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator==(const Pbool& a, const Pbool& b) { return !(a ^ b); }
Pbool operator!=(const Pbool& a, const Pbool& b) { return a ^ b; }

Pint Pbool::to_pint() const {
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().op_zero(out.data(), out.size());
    ctx.alu().op_copy(plane_.data(), out.data(), pw);
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(ctx, std::move(out),
                                          copy_driven_plane(ctx, driven_plane_));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Flag* ps = data_.data();
  Word* po = out.data();
  const std::size_t count = ctx.pe_count();
  for (std::size_t pe = 0; pe < count; ++pe) po[pe] = ps[pe] ? 1u : 0u;
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out), copy_driven(ctx, driven_));
}

// ---------------------------------------------------------------------------
// PanelImage
// ---------------------------------------------------------------------------

PanelImage::PanelImage(Context& ctx, Kind kind) : ctx_(&ctx), kind_(kind) {
  if (ctx.bitplane()) {
    const int planes = kind == Kind::Int ? ctx.field().bits() : 1;
    planes_.assign(ctx.geometry().plane_words() * static_cast<std::size_t>(planes), 0);
  } else if (kind == Kind::Int) {
    words_.assign(ctx.pe_count(), 0);
  } else {
    flags_.assign(ctx.pe_count(), 0);
  }
}

namespace {
void require_whole_rows(const Context& ctx, std::size_t cells) {
  PPA_REQUIRE(cells % ctx.n() == 0 && cells <= ctx.pe_count(),
              "an image packs whole rows of the array");
}
}  // namespace

void PanelImage::pack_rows(std::span<const Word> cells) {
  Context& ctx = *ctx_;
  PPA_REQUIRE(kind_ == Kind::Int, "word rows pack into an integer image");
  require_whole_rows(ctx, cells.size());
  require_representable(ctx, cells);
  if (ctx.bitplane()) {
    ctx.alu().kernels().pack_words(ctx.geometry(), cells.data(), ctx.field().bits(),
                                   planes_.data(), 0, cells.size() / ctx.n());
  } else {
    std::copy(cells.begin(), cells.end(), words_.begin());
  }
}

void PanelImage::pack_rows(std::span<const Flag> cells) {
  Context& ctx = *ctx_;
  PPA_REQUIRE(kind_ == Kind::Bool, "flag rows pack into a flag image");
  require_whole_rows(ctx, cells.size());
  if (ctx.bitplane()) {
    sim::pack_flag_rows(ctx.geometry(), cells, planes_.data());
  } else {
    std::transform(cells.begin(), cells.end(), flags_.begin(),
                   [](Flag f) { return f != 0 ? Flag{1} : Flag{0}; });
  }
}

// ---------------------------------------------------------------------------
// Coordinate constants
// ---------------------------------------------------------------------------

Pint row_of(Context& ctx) {
  return Pint(ctx, ctx.machine().row_index());
}

Pint col_of(Context& ctx) {
  return Pint(ctx, ctx.machine().col_index());
}

namespace {

Pbool driven_mask_impl(Context& ctx, std::span<const Flag> d) {
  ctx.machine().charge_alu();
  std::vector<Flag> bits = ctx.acquire_flags();
  if (d.empty()) {
    std::fill(bits.begin(), bits.end(), Flag{1});
  } else {
    const Flag* pd = d.data();
    Flag* po = bits.data();
    for (std::size_t pe = 0; pe < bits.size(); ++pe) po[pe] = pd[pe] ? Flag{1} : Flag{0};
  }
  return detail_access::raw_pbool(ctx, std::move(bits), {});
}

Pbool driven_mask_plane_impl(Context& ctx, std::span<const PlaneWord> d) {
  ctx.machine().charge_alu();
  std::vector<PlaneWord> bits = ctx.acquire_flag_plane();
  ctx.alu().op_copy(d.empty() ? ctx.full_plane() : d.data(), bits.data(), bits.size());
  return detail_access::raw_pbool_plane(ctx, std::move(bits), {});
}

}  // namespace

Pbool driven_mask(const Pint& value) {
  Context& ctx = value.context();
  if (ctx.bitplane()) return driven_mask_plane_impl(ctx, value.driven_plane_view());
  return driven_mask_impl(ctx, value.driven_view());
}

Pbool driven_mask(const Pbool& value) {
  Context& ctx = value.context();
  if (ctx.bitplane()) return driven_mask_plane_impl(ctx, value.driven_plane_view());
  return driven_mask_impl(ctx, value.driven_view());
}

namespace detail {

Pint make_bus_pint(Context& ctx, std::vector<Word> values, std::vector<Flag> driven) {
  return detail_access::raw_pint(ctx, std::move(values), std::move(driven));
}

Pbool make_bus_pbool(Context& ctx, std::vector<Flag> values, std::vector<Flag> driven) {
  return detail_access::raw_pbool(ctx, std::move(values), std::move(driven));
}

Pint make_bus_pint_planes(Context& ctx, std::vector<PlaneWord> planes,
                          std::vector<PlaneWord> driven) {
  return detail_access::raw_pint_planes(ctx, std::move(planes), std::move(driven));
}

Pbool make_bus_pbool_plane(Context& ctx, std::vector<PlaneWord> plane,
                           std::vector<PlaneWord> driven) {
  return detail_access::raw_pbool_plane(ctx, std::move(plane), std::move(driven));
}

}  // namespace detail

}  // namespace ppa::ppc
