// Reconfigurable-bus cycles on bit-plane operands.
//
// These kernels are the plane-packed twins of bus.cpp's scan resolvers:
// same switch semantics, same driven-flag rules, and — load-bearing for
// the step-accounting contract — the same max_segment for every
// configuration, so StepCounter totals are bit-identical between the word
// and bit-plane backends (tests/sim_bus_planes_test.cpp fuzzes exactly
// this equivalence, with bus.cpp as the oracle).
//
// Row broadcasts (East/West) are segmented copies in word-parallel time: a
// carry-chained addition (East) or a 6-step copy-down scan (West) fills a
// row in O(row_words) word operations per plane, whatever the number of
// drivers; rows with zero or (on a ring) one Open switch collapse to
// whole-row fills. Row wired-OR streams each row's Open bits and ORs whole
// segments. Column buses (South/North) are resolved 64 lines at a time
// with vertical scans whose inner loop runs across the row's words, so the
// compiler vectorizes the 64-lane bit arithmetic.
//
// Each entry point takes a scratch block that keeps the resolvers
// allocation-free across cycles. Column broadcasts also memoize their
// switch decomposition in the scratch's 8-deep LRU plan cache
// (BroadcastPlanCache below), so repeat cycles on a recently seen
// configuration skip the resolution pass entirely — results and
// max_segment are identical either way (tests/sim_bus_planes_test.cpp
// fuzzes a long-lived scratch against a fresh one per cycle). Row
// broadcasts derive everything per cycle and never consult the cache.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/bit_planes.hpp"

namespace ppa::sim {

/// Memoized segmentation of one row wired-OR switch configuration. The
/// minimum-cost-path kernels issue long runs of wired-OR cycles on an
/// unchanged configuration (the cluster delimiters only move between
/// iterations), so the resolver caches the per-row decomposition keyed on
/// the exact open-plane contents and re-derives only the src-dependent
/// segment values per cycle.
struct RowWiredOrPlan {
  // Key: exact switch configuration this plan was built for. n == 0 marks
  // an empty plan.
  std::vector<PlaneWord> open;
  std::size_t n = 0;
  std::uint8_t topology = 0;
  std::uint8_t dir = 0;
  // Payload. fast_rows: rows that resolve to a single whole-line segment.
  // segs: remaining segments as column ranges, sorted by row; an entry
  // with fuse_next set shares its OR value with the next entry (a ring's
  // tail + head pair). max_segment depends only on the configuration.
  struct Seg {
    std::uint32_t row;
    std::uint32_t clo;
    std::uint32_t chi;
    std::uint32_t fuse_next;
  };
  std::vector<std::uint32_t> fast_rows;
  std::vector<Seg> segs;
  std::size_t max_segment = 0;
};

/// Memoized decomposition of one COLUMN broadcast switch configuration (the
/// row wired-OR twin is RowWiredOrPlan above). Everything the cycle derives
/// from the switches alone is cached: the driven plane, the max_segment and
/// the vertical-scan products.
struct BroadcastPlan {
  // Key: exact switch configuration. n == 0 marks an empty slot.
  std::vector<PlaneWord> open;
  std::size_t n = 0;
  std::uint8_t topology = 0;
  std::uint8_t dir = 0;
  std::uint64_t stamp = 0;  // LRU clock of the owning cache
  std::size_t max_segment = 0;
  std::vector<PlaneWord> driven;  // plane_words
  // Pass-1 scan state per flow row (see column_broadcast), indexed
  // [k * row_words + w].
  std::vector<PlaneWord> col_have;
  std::vector<PlaneWord> col_pend;
  std::size_t k_stop = 0;
};

/// 8-deep LRU cache of column broadcast decompositions. The
/// minimum-cost-path kernels rotate through a handful of column switch
/// configurations (carrier row and diagonal, per scheme and per panel), so
/// a shallow exact-key cache absorbs nearly every resolution after the
/// first sweep; hits/misses surface as bus.plan_cache.* in ppa.metrics.v1.
struct BroadcastPlanCache {
  static constexpr std::size_t kDepth = 8;
  BroadcastPlan slots[kDepth];
  std::uint64_t clock = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // Second-chance filter: a configuration is only planned once it has been
  // seen twice. The carrier-row and diagonal broadcasts repeat, but a
  // column broadcast whose switches are computed from data (a ppc min or
  // selected_min routed along a column, whose route_and_spread enables
  // never repeat) would evict live plans and pay recording cost for
  // nothing. First sight leaves a hash here; the cycle itself runs the
  // plain resolver untouched.
  static constexpr std::size_t kSeen = 16;
  std::uint64_t seen[kSeen] = {};
  std::size_t seen_next = 0;
};

/// Reusable buffers for the plane bus resolvers, owned by the Machine (one
/// per machine; bus cycles are issued sequentially by the controller).
/// Sized lazily on first use. The per-k arrays are indexed [k * row_words
/// + w], the per-line arrays by column.
struct PlaneBusScratch {
  std::vector<PlaneWord> per_k_a;     // n * row_words
  std::vector<PlaneWord> per_k_b;     // n * row_words
  std::vector<PlaneWord> lane_a;      // row_words
  std::vector<PlaneWord> lane_b;      // row_words
  std::vector<PlaneWord> lane_c;      // row_words
  std::vector<std::size_t> pos_a;     // n (column_max_segment: first)
  std::vector<std::size_t> pos_b;     // n (column_max_segment: last)
  std::vector<std::size_t> pos_c;     // n (column_max_segment: gap)
  RowWiredOrPlan wired_or_plan;       // see RowWiredOrPlan
  BroadcastPlanCache broadcast_plans; // see BroadcastPlanCache
};

/// One broadcast bus cycle over `planes` bit planes sharing a single
/// switch configuration (the planes of one h-bit register ride the same
/// physical cycle). `src`/`out` hold `planes` contiguous planes; `open`
/// and `driven` are single planes. Undriven lanes read 0 and get driven
/// bit 0, exactly like bus_broadcast_into. Returns max_segment.
std::size_t plane_broadcast_into(const PlaneGeometry& g, BusTopology topology,
                                 Direction dir, const PlaneWord* src, int planes,
                                 const PlaneWord* open, PlaneWord* out,
                                 PlaneWord* driven, PlaneBusScratch& scratch);

/// One wired-OR bus cycle on a single plane. Never floats (a segment
/// nobody pulls reads 0), so there is no driven output. Returns
/// max_segment.
std::size_t plane_wired_or_into(const PlaneGeometry& g, BusTopology topology,
                                Direction dir, const PlaneWord* src,
                                const PlaneWord* open, PlaneWord* out,
                                PlaneBusScratch& scratch);

/// Nearest-neighbour move of `planes` bit planes; lanes shifted in from
/// the array edge read bit j of `fill_bits` in plane j. dst must not alias
/// src.
void plane_shift(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                 std::uint64_t fill_bits, PlaneWord* dst);

}  // namespace ppa::sim
