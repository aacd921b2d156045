#include "sim/bus_planes.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace ppa::sim {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

[[nodiscard]] bool is_row_axis(Direction dir) noexcept {
  return dir == Direction::East || dir == Direction::West;
}

[[nodiscard]] std::size_t flow_row(std::size_t n, Direction dir, std::size_t k) noexcept {
  return dir == Direction::South ? k : n - 1 - k;
}

/// Grows (never shrinks) a scratch vector to `need` elements.
template <typename T>
[[nodiscard]] T* grown(std::vector<T>& v, std::size_t need) {
  if (v.size() < need) v.resize(need);
  return v.data();
}

/// Lanes of word `w` that fall in the column range [clo, chi].
[[nodiscard]] PlaneWord col_range_mask(std::size_t w, std::size_t clo, std::size_t chi) noexcept {
  const std::size_t base = w * kLanesPerWord;
  const unsigned lo = static_cast<unsigned>(clo > base ? clo - base : 0);
  const unsigned hi = static_cast<unsigned>(std::min(chi - base, kLanesPerWord - 1));
  return (hi >= 63 ? ~PlaneWord{0} : ((PlaneWord{1} << (hi + 1)) - 1)) &
         ~((PlaneWord{1} << lo) - 1);
}

/// Sets columns [clo, chi] of `row` in `plane`.
void fill_col_range(const PlaneGeometry& g, PlaneWord* plane, std::size_t row,
                    std::size_t clo, std::size_t chi) {
  if (clo > chi) return;
  for (std::size_t w = clo / kLanesPerWord; w <= chi / kLanesPerWord; ++w) {
    plane[row * g.row_words + w] |= col_range_mask(w, clo, chi);
  }
}

/// True iff any bit is set in columns [clo, chi] of `row` of `plane`.
[[nodiscard]] bool any_in_col_range(const PlaneGeometry& g, const PlaneWord* plane,
                                    std::size_t row, std::size_t clo, std::size_t chi) {
  if (clo > chi) return false;
  for (std::size_t w = clo / kLanesPerWord; w <= chi / kLanesPerWord; ++w) {
    if ((plane[row * g.row_words + w] & col_range_mask(w, clo, chi)) != 0) return true;
  }
  return false;
}

/// Open-switch count of one row.
[[nodiscard]] std::size_t row_open_count(const PlaneGeometry& g, const PlaneWord* open,
                                         std::size_t row) noexcept {
  const PlaneWord* base = open + row * g.row_words;
  std::size_t m = 0;
  for (std::size_t w = 0; w < g.row_words; ++w) {
    m += static_cast<std::size_t>(__builtin_popcountll(base[w]));
  }
  return m;
}

/// Calls `visit(flow_position, column)` for every Open bit of `row`, in
/// flow order for `dir`.
template <typename Visit>
void for_each_open_in_row(const PlaneGeometry& g, const PlaneWord* open, std::size_t row,
                          Direction dir, Visit&& visit) {
  const PlaneWord* base = open + row * g.row_words;
  if (dir == Direction::East) {
    for (std::size_t w = 0; w < g.row_words; ++w) {
      PlaneWord bits = base[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(__builtin_ctzll(bits));
        const std::size_t c = w * kLanesPerWord + b;
        visit(c, c);
        bits &= bits - 1;
      }
    }
  } else {
    for (std::size_t w = g.row_words; w-- > 0;) {
      PlaneWord bits = base[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(63 - __builtin_clzll(bits));
        const std::size_t c = w * kLanesPerWord + b;
        visit(g.n - 1 - c, c);
        bits &= ~(PlaneWord{1} << b);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Broadcast plan cache (BroadcastPlanCache): exact-key LRU lookup for the
// column broadcast resolver. A hit skips the whole switch resolution pass; a
// miss rebuilds the least-recently-used slot.
// ---------------------------------------------------------------------------

/// Cache probe. Returns the matching slot with hit=true; on a miss, either
/// the LRU victim to record into (configuration seen before, hit=false) or
/// nullptr (first sight — the caller must run the plain resolver and leave
/// the cache alone).
[[nodiscard]] BroadcastPlan* lookup_broadcast_plan(BroadcastPlanCache& cache,
                                                   const PlaneGeometry& g,
                                                   BusTopology topology, Direction dir,
                                                   const PlaneWord* open, bool& hit) {
  const std::size_t pw = g.plane_words();
  for (BroadcastPlan& slot : cache.slots) {
    if (slot.n == g.n && slot.topology == static_cast<std::uint8_t>(topology) &&
        slot.dir == static_cast<std::uint8_t>(dir) && slot.open.size() == pw &&
        std::equal(slot.open.begin(), slot.open.end(), open)) {
      slot.stamp = ++cache.clock;
      ++cache.hits;
      hit = true;
      return &slot;
    }
  }
  ++cache.misses;
  hit = false;
  // Second-chance filter: plan only configurations seen at least twice. A
  // hash collision merely plans one cycle early — slot matches stay exact.
  std::uint64_t h = std::uint64_t{0x9E3779B97F4A7C15} ^
                    (static_cast<std::uint64_t>(g.n) << 16) ^
                    (static_cast<std::uint64_t>(topology) << 8) ^
                    static_cast<std::uint64_t>(dir);
  for (std::size_t w = 0; w < pw; ++w) {
    h = (h ^ open[w]) * std::uint64_t{0x100000001B3};
  }
  h |= 1;  // 0 marks an empty seen[] entry
  bool seen = false;
  for (std::uint64_t& s : cache.seen) {
    if (s == h) {
      seen = true;
      s = 0;
      break;
    }
  }
  if (!seen) {
    cache.seen[cache.seen_next] = h;
    cache.seen_next = (cache.seen_next + 1) % BroadcastPlanCache::kSeen;
    return nullptr;
  }
  BroadcastPlan* victim = nullptr;
  for (BroadcastPlan& slot : cache.slots) {
    if (slot.n == 0) {
      victim = &slot;
      break;
    }
    if (victim == nullptr || slot.stamp < victim->stamp) victim = &slot;
  }
  victim->stamp = ++cache.clock;
  return victim;
}

// ---------------------------------------------------------------------------
// Row buses (East / West)
// ---------------------------------------------------------------------------

// Row broadcast kernels. Every lane reads the src bit of the nearest Open
// switch strictly upstream in flow order (on a ring the lanes through the
// first Open switch read the last one), so each row is a segmented copy
// costing O(row_words) word operations per plane however many drivers it
// has. The driven plane is the same fill with every Open switch driving a
// 1, i.e. with `open` as its src. The hot loops keep every size in a local:
// PlaneWord stores may alias std::size_t objects, so a size read through a
// reference would be reloaded after every store.

/// East fill of one row: lane c reads `in` at the nearest Open lane below
/// it. Adding the drivers, shifted one lane up, to the closed-lane mask
/// starts a carry at each driver's neighbour that runs through the closed
/// lanes and stops on the next Open lane, so `sum ^ closed` marks exactly
/// the lanes that driver reaches. `carry` enters lane 0 (the ring wrap).
void fill_row_east(const PlaneWord* open, const PlaneWord* in, std::size_t row_words,
                   PlaneWord last_mask, PlaneWord carry, PlaneWord* to) {
  PlaneWord top = 0;  // driver bit shifted out of the previous word
  for (std::size_t w = 0; w < row_words; ++w) {
    const PlaneWord mask = w + 1 == row_words ? last_mask : ~PlaneWord{0};
    const PlaneWord closed = ~open[w] & mask;
    const PlaneWord drivers = open[w] & in[w];
    const PlaneWord add = (drivers << 1) | top;
    top = drivers >> 63;
    const PlaneWord sum = closed + add;
    const PlaneWord total = sum + carry;
    carry = static_cast<PlaneWord>(sum < add) | static_cast<PlaneWord>(total < sum);
    to[w] = (total ^ closed) & mask;
  }
}

/// West fill of one row: lane c reads `in` at the nearest Open lane above
/// it. Carries never run downward, so each word runs a 6-step copy-down
/// scan that gives every lane the bit of the nearest Open lane at or above
/// it; lanes with none read the word above. `carry` enters above lane n-1
/// (the ring wrap).
void fill_row_west(const PlaneWord* open, const PlaneWord* in, std::size_t row_words,
                   PlaneWord last_mask, PlaneWord carry, PlaneWord* to) {
  for (std::size_t w = row_words; w-- > 0;) {
    PlaneWord known = open[w];
    PlaneWord v = known & in[w];
    for (unsigned s = 0; s < 6; ++s) {
      v |= (v >> (1u << s)) & ~known;
      known |= known >> (1u << s);
    }
    v |= ~known & (PlaneWord{0} - carry);
    to[w] = ((v >> 1) | (carry << 63)) & (w + 1 == row_words ? last_mask : ~PlaneWord{0});
    carry = v & 1u;
  }
}

/// Row broadcast; returns max_segment. Fill j < planes reads plane j of
/// `src` into plane j of `out`; the last fill reads `open` into `driven`.
std::size_t row_broadcast(const PlaneGeometry& g, BusTopology topology, Direction dir,
                          const PlaneWord* src, int planes, const PlaneWord* open,
                          PlaneWord* out, PlaneWord* driven) {
  const std::size_t n = g.n;
  const bool ring = topology == BusTopology::Ring;
  const bool east = dir == Direction::East;
  const auto fills = static_cast<std::size_t>(planes) + 1;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  const PlaneWord last_mask = g.word_mask(rw - 1);
  // Rows go in blocks: first each row's switch facts, sorting the rows by
  // how they fill, then every plane's slice of the block in turn. Each
  // plane streams through consecutive words (touching all planes of one
  // row at the plane pitch keeps hitting the same few cache sets), and
  // each kind of row fills in its own loop, with no per-row dispatch.
  constexpr std::size_t kBlock = 32;
  struct RowRef {
    std::size_t base;  // first word of the row
    std::size_t word;  // word and bit of the last Open switch in flow order
    unsigned bit;      // (the ring's wrap driver; a whole row's only one)
  };
  RowRef whole[kBlock];          // a ring row with one Open switch: it drives every lane
  RowRef segmented[kBlock];      // any other row with an Open switch
  std::size_t floating[kBlock];  // no Open switch: the whole row floats (zeros)
  std::size_t max_segment = 0;
  for (std::size_t rb = 0; rb < n; rb += kBlock) {
    const std::size_t re = std::min(rb + kBlock, n);
    std::size_t n_whole = 0;
    std::size_t n_segmented = 0;
    std::size_t n_floating = 0;
    for (std::size_t r = rb; r < re; ++r) {
      // One walk over the Open switches: count, extreme columns, widest gap.
      std::size_t count = 0;
      std::size_t lo = 0;
      std::size_t hi = 0;
      std::size_t gap = 0;
      for (std::size_t w = 0; w < rw; ++w) {
        for (PlaneWord bits = open[r * rw + w]; bits != 0; bits &= bits - 1) {
          const std::size_t c = w * kLanesPerWord + static_cast<unsigned>(__builtin_ctzll(bits));
          if (count++ == 0) {
            lo = c;
          } else {
            gap = std::max(gap, c - hi);
          }
          hi = c;
        }
      }
      if (count == 0) {  // adds no segment
        floating[n_floating++] = r * rw;
        continue;
      }
      max_segment = std::max({max_segment, gap, ring ? n - (hi - lo) : east ? n - 1 - hi : lo});
      const std::size_t wrap_col = east ? hi : lo;
      const RowRef ref{r * rw, r * rw + wrap_col / kLanesPerWord, PlaneGeometry::bit_of(wrap_col)};
      if (ring && count == 1) {
        whole[n_whole++] = ref;
      } else {
        segmented[n_segmented++] = ref;
      }
    }
    for (std::size_t j = 0; j < fills; ++j) {
      const bool is_driven = j + 1 == fills;
      const PlaneWord* in = is_driven ? open : src + j * pw;
      PlaneWord* to = is_driven ? driven : out + j * pw;
      for (std::size_t i = 0; i < n_floating; ++i) {
        std::fill(to + floating[i], to + floating[i] + rw, PlaneWord{0});
      }
      for (std::size_t i = 0; i < n_whole; ++i) {
        const RowRef& s = whole[i];
        const PlaneWord all = PlaneWord{0} - ((in[s.word] >> s.bit) & 1u);
        for (std::size_t w = 0; w + 1 < rw; ++w) to[s.base + w] = all;
        to[s.base + rw - 1] = all & last_mask;
      }
      for (std::size_t i = 0; i < n_segmented; ++i) {
        const RowRef& s = segmented[i];
        const PlaneWord wrap = ring ? (in[s.word] >> s.bit) & 1u : 0;
        if (east) {
          fill_row_east(open + s.base, in + s.base, rw, last_mask, wrap, to + s.base);
        } else {
          fill_row_west(open + s.base, in + s.base, rw, last_mask, wrap, to + s.base);
        }
      }
    }
  }
  return max_segment;
}

/// Rebuilds `plan` for one (topology, dir, open) wired-OR configuration:
/// classifies every row, records the general rows' segments as column
/// ranges in flow order, and fixes max_segment (configuration-only).
void build_row_wired_or_plan(const PlaneGeometry& g, BusTopology topology, Direction dir,
                             const PlaneWord* open, RowWiredOrPlan& plan) {
  const std::size_t n = g.n;
  plan.open.assign(open, open + g.plane_words());
  plan.n = n;
  plan.topology = static_cast<std::uint8_t>(topology);
  plan.dir = static_cast<std::uint8_t>(dir);
  plan.fast_rows.clear();
  plan.segs.clear();
  std::size_t max_segment = 0;

  // Push the flow interval [fa, fb] of `row` as a column range.
  const auto push = [&](std::size_t row, std::size_t fa, std::size_t fb, bool fuse) {
    if (fa > fb) return;
    const std::size_t clo = dir == Direction::East ? fa : n - 1 - fb;
    const std::size_t chi = dir == Direction::East ? fb : n - 1 - fa;
    plan.segs.push_back({static_cast<std::uint32_t>(row), static_cast<std::uint32_t>(clo),
                         static_cast<std::uint32_t>(chi), fuse ? 1u : 0u});
  };

  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t m = row_open_count(g, open, r);
    if (m == 0 || (m == 1 && topology == BusTopology::Ring)) {
      // One unsegmented line (the single ring switch's head and tail
      // intervals merge around the wrap): whole-row OR.
      plan.fast_rows.push_back(static_cast<std::uint32_t>(r));
      max_segment = std::max(max_segment, n);
      continue;
    }
    std::size_t first = kNone;
    std::size_t prev = kNone;
    for_each_open_in_row(g, open, r, dir, [&](std::size_t k, std::size_t) {
      if (prev == kNone) {
        first = k;
      } else {
        push(r, prev, k - 1, false);
        max_segment = std::max(max_segment, k - prev);
      }
      prev = k;
    });
    if (topology == BusTopology::Ring) {
      // The tail segment and the head stub [0, first) merge around the wrap.
      push(r, prev, n - 1, first > 0);
      if (first > 0) push(r, 0, first - 1, false);
      max_segment = std::max(max_segment, n - prev + first);
    } else {
      push(r, prev, n - 1, false);
      max_segment = std::max(max_segment, n - prev);
      if (first > 0) push(r, 0, first - 1, false);
      max_segment = std::max(max_segment, first);
    }
  }
  plan.max_segment = max_segment;
}

std::size_t row_wired_or(const PlaneGeometry& g, BusTopology topology, Direction dir,
                         const PlaneWord* src, const PlaneWord* open, PlaneWord* out,
                         PlaneBusScratch& s) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();

  RowWiredOrPlan& plan = s.wired_or_plan;
  if (plan.n != n || plan.topology != static_cast<std::uint8_t>(topology) ||
      plan.dir != static_cast<std::uint8_t>(dir) ||
      !std::equal(plan.open.begin(), plan.open.end(), open, open + pw)) {
    build_row_wired_or_plan(g, topology, dir, open, plan);
  }

  for (const std::size_t r : plan.fast_rows) {
    PlaneWord any = 0;
    for (std::size_t w = 0; w < rw; ++w) any |= src[r * rw + w];
    for (std::size_t w = 0; w < rw; ++w) {
      out[r * rw + w] = any != 0 ? g.word_mask(w) : PlaneWord{0};
    }
  }
  std::size_t last_zeroed = kNone;
  for (auto it = plan.segs.begin(); it != plan.segs.end(); ++it) {
    const std::size_t r = it->row;
    if (r != last_zeroed) {
      for (std::size_t w = 0; w < rw; ++w) out[r * rw + w] = 0;
      last_zeroed = r;
    }
    bool v = any_in_col_range(g, src, r, it->clo, it->chi);
    if (it->fuse_next != 0) {
      // A ring's tail + head pair reads as one segment across the wrap.
      const auto& head = *(it + 1);
      v = v || any_in_col_range(g, src, r, head.clo, head.chi);
      if (v) {
        fill_col_range(g, out, r, it->clo, it->chi);
        fill_col_range(g, out, r, head.clo, head.chi);
      }
      ++it;
    } else if (v) {
      fill_col_range(g, out, r, it->clo, it->chi);
    }
  }
  return plan.max_segment;
}

// ---------------------------------------------------------------------------
// Column buses (South / North): 64 lines per word-column, resolved with
// vertical scans over the rows in flow order. The scans keep their running
// state in per-word-column arrays and put the word index in the INNER loop,
// so every inner iteration reads/writes consecutive words of one row — the
// layout the compiler auto-vectorizes.
// ---------------------------------------------------------------------------

/// max_segment of the column lines, computed from per-line Open positions
/// (one pass over the open plane; O(n * row_words + popcount)).
std::size_t column_max_segment(const PlaneGeometry& g, BusTopology topology, Direction dir,
                               const PlaneWord* open, bool wired_or,
                               PlaneBusScratch& s) {
  const std::size_t n = g.n;
  std::size_t* first = grown(s.pos_a, n);
  std::size_t* last = grown(s.pos_b, n);
  std::size_t* gap = grown(s.pos_c, n);
  std::fill(first, first + n, kNone);
  std::fill(last, last + n, std::size_t{0});
  std::fill(gap, gap + n, std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = flow_row(n, dir, k);
    for (std::size_t w = 0; w < g.row_words; ++w) {
      PlaneWord bits = open[r * g.row_words + w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(__builtin_ctzll(bits));
        const std::size_t c = w * kLanesPerWord + b;
        if (first[c] == kNone) {
          first[c] = k;
        } else {
          gap[c] = std::max(gap[c], k - last[c]);
        }
        last[c] = k;
        bits &= bits - 1;
      }
    }
  }
  std::size_t max_segment = 0;
  for (std::size_t c = 0; c < n; ++c) {
    if (first[c] == kNone) {
      if (wired_or) max_segment = std::max(max_segment, n);
      continue;
    }
    std::size_t line = gap[c];
    if (topology == BusTopology::Ring) {
      line = std::max(line, n - last[c] + first[c]);
    } else if (wired_or) {
      line = std::max({line, n - last[c], first[c]});
    } else {
      line = std::max(line, n - 1 - last[c]);
    }
    max_segment = std::max(max_segment, line);
  }
  return max_segment;
}

/// Column-broadcast pass 1 (plane-independent): per-row driven masks and
/// the ring's wrap extent. have_k[k * rw + w] is the driven mask of flow
/// row k — the lanes that saw an Open switch strictly upstream — and
/// driven[] is exactly "have before this row"; pend_k is the wrap-carry
/// mask per row (written on a ring only). Returns the number of rows the
/// wrap reaches.
std::size_t column_pass1(const PlaneGeometry& g, BusTopology topology, Direction dir,
                         const PlaneWord* open, PlaneWord* driven, PlaneWord* have_k,
                         PlaneWord* pend_k, PlaneWord* state) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  std::fill(state, state + rw, PlaneWord{0});
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t base = flow_row(n, dir, k) * rw;
    for (std::size_t w = 0; w < rw; ++w) {
      const PlaneWord ow = open[base + w];
      have_k[k * rw + w] = state[w];
      driven[base + w] = state[w];
      state[w] |= ow;
    }
  }
  std::size_t k_stop = 0;
  if (topology == BusTopology::Ring) {
    // Wrap: every lane's prefix through its FIRST Open row reads the
    // signal carried around from its LAST Open row.
    for (std::size_t k = 0; k < n; ++k) {
      PlaneWord alive = 0;
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord ow = open[base + w];
        alive |= state[w];
        pend_k[k * rw + w] = state[w];
        driven[base + w] |= state[w];
        state[w] &= ~ow;
      }
      if (alive == 0) break;
      k_stop = k + 1;
    }
  }
  return k_stop;
}

/// Column-broadcast pass 2, per plane: carry the latest driver word down
/// the flow, reading the pass-1 products from wherever they live — the
/// scratch block on the plain path, a cached plan on a hit. All accesses
/// at row k are consecutive words, so this vectorizes.
void column_pass2(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                  const PlaneWord* open, PlaneWord* out, const PlaneWord* have_k,
                  const PlaneWord* pend_k, std::size_t k_stop, PlaneWord* cur) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* sp = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* op = out + static_cast<std::size_t>(j) * pw;
    std::fill(cur, cur + rw, PlaneWord{0});
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord ow = open[base + w];
        op[base + w] = cur[w] & have_k[k * rw + w];
        cur[w] = (cur[w] & ~ow) | (sp[base + w] & ow);
      }
    }
    for (std::size_t k = 0; k < k_stop; ++k) {
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        op[base + w] |= cur[w] & pend_k[k * rw + w];
      }
    }
  }
}

/// Column broadcast through the plan cache: a hit runs pass 2 from the
/// cached plan; a miss on a configuration seen before records pass 1
/// straight into the victim slot (same stores, different destination), so
/// recording costs what the plain path costs.
std::size_t column_broadcast(const PlaneGeometry& g, BusTopology topology, Direction dir,
                             const PlaneWord* src, int planes, const PlaneWord* open,
                             PlaneWord* out, PlaneWord* driven, PlaneBusScratch& s) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  PPA_ASSERT(planes <= 32, "a register has at most 32 planes");
  PlaneWord* state = grown(s.lane_a, rw);
  bool hit = false;
  BroadcastPlan* plan = lookup_broadcast_plan(s.broadcast_plans, g, topology, dir, open, hit);
  if (hit) {
    std::copy(plan->driven.begin(), plan->driven.end(), driven);
    column_pass2(g, dir, src, planes, plan->open.data(), out, plan->col_have.data(),
                 plan->col_pend.data(), plan->k_stop, state);
    return plan->max_segment;
  }

  PlaneWord* have_k;
  PlaneWord* pend_k;
  if (plan != nullptr) {
    plan->open.assign(open, open + pw);
    plan->n = n;
    plan->topology = static_cast<std::uint8_t>(topology);
    plan->dir = static_cast<std::uint8_t>(dir);
    plan->col_have.resize(n * rw);
    plan->col_pend.resize(topology == BusTopology::Ring ? n * rw : 0);
    have_k = plan->col_have.data();
    pend_k = plan->col_pend.data();
  } else {
    have_k = grown(s.per_k_a, n * rw);
    pend_k = grown(s.per_k_b, n * rw);
  }
  const std::size_t k_stop = column_pass1(g, topology, dir, open, driven, have_k, pend_k, state);
  column_pass2(g, dir, src, planes, open, out, have_k, pend_k, k_stop, state);
  const std::size_t max_segment =
      column_max_segment(g, topology, dir, open, /*wired_or=*/false, s);
  if (plan != nullptr) {
    plan->k_stop = k_stop;
    plan->driven.assign(driven, driven + pw);
    plan->max_segment = max_segment;
  }
  return max_segment;
}

std::size_t column_wired_or(const PlaneGeometry& g, BusTopology topology, Direction dir,
                            const PlaneWord* src, const PlaneWord* open, PlaneWord* out,
                            PlaneBusScratch& s) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;

  PlaneWord* forward = grown(s.per_k_a, n * rw);    // running OR of the segment
  PlaneWord* head_mask = grown(s.per_k_b, n * rw);  // lanes before their first Open
  PlaneWord* acc = grown(s.lane_a, rw);   // then: seg (backward full-segment OR)
  PlaneWord* have = grown(s.lane_b, rw);  // then: tail (no Open strictly downstream)
  PlaneWord* head_acc = grown(s.lane_c, rw);  // then, on a ring: the wrap value

  std::fill(acc, acc + rw, PlaneWord{0});
  std::fill(have, have + rw, PlaneWord{0});
  std::fill(head_acc, head_acc + rw, PlaneWord{0});
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t base = flow_row(n, dir, k) * rw;
    for (std::size_t w = 0; w < rw; ++w) {
      const PlaneWord ow = open[base + w];
      const PlaneWord sw = src[base + w];
      const PlaneWord head = ~(have[w] | ow);
      head_acc[w] |= sw & head;
      // An Open row starts a new segment that includes its own src bit.
      acc[w] = sw | (acc[w] & ~ow);
      forward[k * rw + w] = acc[w];
      head_mask[k * rw + w] = head;
      have[w] |= ow;
    }
  }
  // Backward pass: seg carries each row's full-segment OR; tail marks
  // lanes with no Open row strictly downstream (the tail segment).
  PlaneWord* seg = acc;  // seg starts as forward[n-1], which acc now holds
  PlaneWord* tail = have;
  PlaneWord* wrap = head_acc;
  if (topology == BusTopology::Ring) {
    for (std::size_t w = 0; w < rw; ++w) {
      wrap[w] = forward[(n - 1) * rw + w] | head_acc[w];
      tail[w] = ~PlaneWord{0};
    }
    for (std::size_t k = n; k-- > 0;) {
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord in_wrap = head_mask[k * rw + w] | tail[w];
        out[base + w] = (wrap[w] & in_wrap) | (seg[w] & ~in_wrap);
      }
      if (k > 0) {
        for (std::size_t w = 0; w < rw; ++w) {
          const PlaneWord ow = open[base + w];
          seg[w] = (forward[(k - 1) * rw + w] & ow) | (seg[w] & ~ow);
          tail[w] &= ~ow;
        }
      }
    }
  } else {
    for (std::size_t k = n; k-- > 0;) {
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord hm = head_mask[k * rw + w];
        out[base + w] = (head_acc[w] & hm) | (seg[w] & ~hm);
      }
      if (k > 0) {
        for (std::size_t w = 0; w < rw; ++w) {
          const PlaneWord ow = open[base + w];
          seg[w] = (forward[(k - 1) * rw + w] & ow) | (seg[w] & ~ow);
        }
      }
    }
  }
  return column_max_segment(g, topology, dir, open, /*wired_or=*/true, s);
}

}  // namespace

std::size_t plane_broadcast_into(const PlaneGeometry& g, BusTopology topology,
                                 Direction dir, const PlaneWord* src, int planes,
                                 const PlaneWord* open, PlaneWord* out,
                                 PlaneWord* driven, PlaneBusScratch& scratch) {
  PPA_REQUIRE(g.n >= 1, "array side must be positive");
  PPA_REQUIRE(planes >= 1, "a bus cycle needs at least one plane");
  return is_row_axis(dir)
             ? row_broadcast(g, topology, dir, src, planes, open, out, driven)
             : column_broadcast(g, topology, dir, src, planes, open, out, driven, scratch);
}

std::size_t plane_wired_or_into(const PlaneGeometry& g, BusTopology topology,
                                Direction dir, const PlaneWord* src,
                                const PlaneWord* open, PlaneWord* out,
                                PlaneBusScratch& scratch) {
  PPA_REQUIRE(g.n >= 1, "array side must be positive");
  return is_row_axis(dir) ? row_wired_or(g, topology, dir, src, open, out, scratch)
                          : column_wired_or(g, topology, dir, src, open, out, scratch);
}

void plane_shift(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                 std::uint64_t fill_bits, PlaneWord* dst) {
  PPA_REQUIRE(src != dst, "shift source and destination must not alias");
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* sp = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* dp = dst + static_cast<std::size_t>(j) * pw;
    const bool fill = (fill_bits >> j) & 1u;
    switch (dir) {
      case Direction::East:
        // dst(r, c) = src(r, c-1); column 0 reads the fill bit.
        for (std::size_t r = 0; r < n; ++r) {
          const PlaneWord* s = sp + r * rw;
          PlaneWord* d = dp + r * rw;
          PlaneWord carry = fill ? 1u : 0u;
          for (std::size_t w = 0; w < rw; ++w) {
            const PlaneWord next_carry = s[w] >> 63;
            d[w] = (s[w] << 1) | carry;
            carry = next_carry;
          }
          d[rw - 1] &= g.word_mask(rw - 1);
        }
        break;
      case Direction::West:
        // dst(r, c) = src(r, c+1); column n-1 reads the fill bit.
        for (std::size_t r = 0; r < n; ++r) {
          const PlaneWord* s = sp + r * rw;
          PlaneWord* d = dp + r * rw;
          for (std::size_t w = 0; w < rw; ++w) {
            d[w] = (s[w] >> 1) | (w + 1 < rw ? s[w + 1] << 63 : PlaneWord{0});
          }
          if (fill) d[(n - 1) / kLanesPerWord] |= PlaneWord{1} << PlaneGeometry::bit_of(n - 1);
        }
        break;
      case Direction::South:
        // dst(r, ·) = src(r-1, ·); row 0 reads the fill bit.
        for (std::size_t r = n; r-- > 1;) {
          for (std::size_t w = 0; w < rw; ++w) dp[r * rw + w] = sp[(r - 1) * rw + w];
        }
        for (std::size_t w = 0; w < rw; ++w) dp[w] = fill ? g.word_mask(w) : PlaneWord{0};
        break;
      case Direction::North:
        // dst(r, ·) = src(r+1, ·); row n-1 reads the fill bit.
        for (std::size_t r = 0; r + 1 < n; ++r) {
          for (std::size_t w = 0; w < rw; ++w) dp[r * rw + w] = sp[(r + 1) * rw + w];
        }
        for (std::size_t w = 0; w < rw; ++w) {
          dp[(n - 1) * rw + w] = fill ? g.word_mask(w) : PlaneWord{0};
        }
        break;
    }
  }
}

}  // namespace ppa::sim
