#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "sim/plane_kernels.hpp"
#include "util/check.hpp"

namespace ppa::sim {

Machine::Machine(const MachineConfig& config)
    : config_(config), field_(config.bits), geometry_(config.n) {
  PPA_REQUIRE(config.n >= 1, "array side must be positive");
  // The array must be addressable by its own words: ROW and COL constants
  // (and selected_min over COL) live in the h-bit field.
  PPA_REQUIRE(config.n - 1 <= field_.max_finite(),
              "array side does not fit in the h-bit word field");
  PPA_REQUIRE(config.masking != BusMasking::Ecc || config.backend == ExecBackend::BitPlane,
              "ECC masking rides the bit-plane bus engine; it requires "
              "backend == BitPlane (use TMR on the word backend)");
  const std::size_t count = pe_count();
  row_index_.resize(count);
  col_index_.resize(count);
  for (std::size_t pe = 0; pe < count; ++pe) {
    row_index_[pe] = static_cast<Word>(pe / config.n);
    col_index_[pe] = static_cast<Word>(pe % config.n);
  }
}

void Machine::shift(std::span<const Word> src, Direction dir, Word fill,
                    std::span<Word> dst) {
  PPA_REQUIRE(src.size() == pe_count() && dst.size() == pe_count(),
              "shift operands must cover the whole array");
  PPA_REQUIRE(src.data() != dst.data(), "shift source and destination must not alias");
  const std::size_t side = config_.n;
  steps_.charge(StepCategory::Shift);
  if (trace_ != nullptr) trace_->on_event(TraceEvent{StepCategory::Shift, dir, 0, 0});
  for (std::size_t pe = 0; pe < src.size(); ++pe) {
    const std::size_t r = pe / side;
    const std::size_t c = pe % side;
    // Receiving from the upstream neighbour: data moving East arrives
    // from the West, etc.
    switch (dir) {
      case Direction::East:
        dst[pe] = (c == 0) ? fill : src[pe - 1];
        break;
      case Direction::West:
        dst[pe] = (c + 1 == side) ? fill : src[pe + 1];
        break;
      case Direction::South:
        dst[pe] = (r == 0) ? fill : src[pe - side];
        break;
      case Direction::North:
        dst[pe] = (r + 1 == side) ? fill : src[pe + side];
        break;
    }
  }
}

namespace {

std::size_t count_open(std::span<const Flag> open) {
  std::size_t total = 0;
  for (const Flag f : open) total += (f != 0);
  return total;
}

/// True when a transient (or persistent) stuck bit afflicts this cycle.
bool stuck_bit_active(const StuckBitFault& sb, std::uint64_t cycle) {
  return sb.period == 0 || cycle % sb.period == sb.phase;
}

/// Per-element 2-of-3 majority vote of a (the primary trial, updated in
/// place), b and c. Bitwise, so it is simultaneously a per-wire vote on
/// words and a per-lane vote on packed planes. Returns true when any trial
/// disagreed with the voted result — i.e. the vote actually masked
/// something.
template <typename T>
bool majority_vote(std::span<T> a, std::span<const T> b, std::span<const T> c) {
  bool changed = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const T m = static_cast<T>((a[i] & b[i]) | (a[i] & c[i]) | (b[i] & c[i]));
    changed = changed || m != a[i] || m != b[i] || m != c[i];
    a[i] = m;
  }
  return changed;
}

bool majority_vote_words(PlaneWord* a, const PlaneWord* b, const PlaneWord* c,
                         std::size_t words) {
  bool changed = false;
  for (std::size_t i = 0; i < words; ++i) {
    const PlaneWord m = (a[i] & b[i]) | (a[i] & c[i]) | (b[i] & c[i]);
    changed = changed || m != a[i] || m != b[i] || m != c[i];
    a[i] = m;
  }
  return changed;
}

/// Parity planes protecting `planes` data planes: Hamming with data plane j
/// assigned the nonzero signature j + 1, so r = bit_width(planes) parity
/// planes distinguish every single-plane error (h = 16 -> r = 5).
int ecc_parity_count(int planes) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(planes)));
}

}  // namespace

void Machine::inject_faults(const FaultModel& model) {
  faults_ = compile_faults(model, geometry_, field_.bits());
}

void Machine::report_fault(const FaultEvent& event) {
  ++fault_count_;
  if (fault_log_.size() < kMaxFaultLog) fault_log_.push_back(event);
  if (trace_ != nullptr) trace_->on_fault(event);
}

// ---------------------------------------------------------------------------
// Fault transform. Every faulty bus cycle runs the fault-free kernel on
// transformed inputs (effective switches, dead drivers silenced), then
// post-processes the received values (driver liveness, stuck line bits,
// dead reads). Word and plane paths compute the same function over the same
// compiled masks, so backend parity extends to faulty runs.
// ---------------------------------------------------------------------------

std::span<const Flag> Machine::effective_open(Axis axis, std::span<const Flag> open) {
  const int a = static_cast<int>(axis);
  if (!faults_.any_switch[a]) return open;
  scratch_open_.resize(open.size());
  const Flag* so = faults_.stuck_open[a].data();
  const Flag* sc = faults_.stuck_closed[a].data();
  for (std::size_t pe = 0; pe < open.size(); ++pe) {
    scratch_open_[pe] = static_cast<Flag>((open[pe] | so[pe]) & (sc[pe] ^ 1u));
  }
  return scratch_open_;
}

const PlaneWord* Machine::effective_open_plane(Axis axis, const PlaneWord* open) {
  const int a = static_cast<int>(axis);
  if (!faults_.any_switch[a]) return open;
  const std::size_t pw = geometry_.plane_words();
  scratch_open_plane_.resize(pw);
  const PlaneWord* so = faults_.stuck_open_plane[a].data();
  const PlaneWord* sc = faults_.stuck_closed_plane[a].data();
  for (std::size_t i = 0; i < pw; ++i) scratch_open_plane_[i] = (open[i] | so[i]) & ~sc[i];
  return scratch_open_plane_.data();
}

void Machine::check_contention(StepCategory category, Direction dir,
                               std::span<const Flag> program_open) {
  if (!config_.checked) return;
  const int a = static_cast<int>(axis_of(dir));
  if (!faults_.any_switch[a]) return;
  const Flag* sc = faults_.stuck_closed[a].data();
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t pe = 0; pe < program_open.size(); ++pe) {
    if (program_open[pe] != 0 && sc[pe] != 0) {
      if (count == 0) first = pe;
      ++count;
    }
  }
  if (count != 0) {
    report_fault(FaultEvent{FaultEventKind::BusContention, category, dir,
                            first / config_.n, first % config_.n, count});
  }
}

void Machine::check_contention_plane(StepCategory category, Direction dir,
                                     const PlaneWord* program_open) {
  if (!config_.checked) return;
  const int a = static_cast<int>(axis_of(dir));
  if (!faults_.any_switch[a]) return;
  const PlaneWord* sc = faults_.stuck_closed_plane[a].data();
  const std::size_t pw = geometry_.plane_words();
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < pw; ++i) {
    const PlaneWord hit = program_open[i] & sc[i];
    if (hit == 0) continue;
    if (count == 0) {
      const std::size_t row = i / geometry_.row_words;
      const std::size_t col = (i % geometry_.row_words) * kLanesPerWord +
                              static_cast<std::size_t>(__builtin_ctzll(hit));
      first = row * config_.n + col;
    }
    count += static_cast<std::size_t>(__builtin_popcountll(hit));
  }
  if (count != 0) {
    report_fault(FaultEvent{FaultEventKind::BusContention, category, dir,
                            first / config_.n, first % config_.n, count});
  }
}

void Machine::clear_dead_driven(Direction dir, std::span<const Flag> open_eff,
                                std::span<Flag> driven) {
  if (!faults_.any_dead) return;
  // Ride-along liveness cycle: broadcast "I am alive" over the same
  // effective switches; a segment reads 0 exactly when its driver is dead
  // (or the segment floats, in which case driven is already 0). Raw kernel
  // call — physically this is the same bus cycle, so no extra charge.
  scratch_alive_value_.resize(pe_count());
  scratch_alive_driven_.resize(pe_count());
  (void)bus_broadcast_into(config_.n, config_.topology, dir,
                           std::span<const Flag>(faults_.alive), open_eff,
                           std::span<Flag>(scratch_alive_value_),
                           std::span<Flag>(scratch_alive_driven_));
  for (std::size_t pe = 0; pe < driven.size(); ++pe) {
    driven[pe] = static_cast<Flag>(driven[pe] & scratch_alive_value_[pe]);
  }
}

void Machine::clear_dead_driven_plane(Direction dir, const PlaneWord* open_eff,
                                      PlaneWord* driven) {
  if (!faults_.any_dead) return;
  const std::size_t pw = geometry_.plane_words();
  scratch_alive_out_.resize(pw);
  scratch_alive_driven_plane_.resize(pw);
  (void)plane_broadcast_into(geometry_, config_.topology, dir, faults_.alive_plane.data(),
                             1, open_eff, scratch_alive_out_.data(),
                             scratch_alive_driven_plane_.data(), bus_scratch_);
  for (std::size_t i = 0; i < pw; ++i) driven[i] &= scratch_alive_out_[i];
}

template <typename T>
void Machine::apply_stuck_bits(Axis axis, std::span<T> values, int value_bits,
                               std::uint64_t cycle) {
  const std::size_t n = config_.n;
  for (const StuckBitFault& sb : faults_.stuck_bits[static_cast<int>(axis)]) {
    if (sb.bit >= value_bits || !stuck_bit_active(sb, cycle)) continue;
    const T bit = static_cast<T>(T{1} << sb.bit);
    const std::size_t base = axis == Axis::Row ? sb.line * n : sb.line;
    const std::size_t stride = axis == Axis::Row ? 1 : n;
    for (std::size_t k = 0; k < n; ++k) {
      T& v = values[base + k * stride];
      v = static_cast<T>(sb.value ? (v | bit) : (v & static_cast<T>(~bit)));
    }
  }
}

void Machine::apply_stuck_bits_planes(Axis axis, PlaneWord* out, int planes,
                                      std::uint64_t cycle) {
  const std::size_t pw = geometry_.plane_words();
  for (const StuckBitFault& sb : faults_.stuck_bits[static_cast<int>(axis)]) {
    if (sb.bit >= planes || !stuck_bit_active(sb, cycle)) continue;
    PlaneWord* plane = out + static_cast<std::size_t>(sb.bit) * pw;
    if (axis == Axis::Row) {
      for (std::size_t w = 0; w < geometry_.row_words; ++w) {
        PlaneWord& v = plane[sb.line * geometry_.row_words + w];
        const PlaneWord mask = geometry_.word_mask(w);  // keeps pads zero
        v = sb.value ? (v | mask) : (v & ~mask);
      }
    } else {
      const std::size_t w = sb.line / kLanesPerWord;
      const PlaneWord mask = PlaneWord{1} << PlaneGeometry::bit_of(sb.line);
      for (std::size_t r = 0; r < config_.n; ++r) {
        PlaneWord& v = plane[r * geometry_.row_words + w];
        v = sb.value ? (v | mask) : (v & ~mask);
      }
    }
  }
}

template <typename T>
std::size_t Machine::broadcast_cycle(std::span<const T> src, Direction dir,
                                     std::span<const Flag> open, std::span<T> values,
                                     std::span<Flag> driven, int value_bits,
                                     StepCategory category) {
  const std::uint64_t cycle = bus_cycles_++;
  const Axis axis = axis_of(dir);
  std::span<const Flag> open_eff = open;
  std::span<const T> src_eff = src;
  if (faults_.any) {
    open_eff = effective_open(axis, open);
    if (faults_.any_dead) {
      auto& scratch = [&]() -> std::vector<T>& {
        if constexpr (std::is_same_v<T, Word>) return scratch_src_word_;
        else return scratch_src_flag_;
      }();
      scratch.resize(src.size());
      const Flag* dead = faults_.dead.data();
      for (std::size_t pe = 0; pe < src.size(); ++pe) {
        scratch[pe] = dead[pe] != 0 ? T{0} : src[pe];
      }
      src_eff = scratch;
    }
  }
  const std::size_t max_segment =
      bus_broadcast_into(config_.n, config_.topology, dir, src_eff, open_eff, values, driven);
  if (faults_.any) {
    // A masked re-execution rides the primary trial's cycle: that trial
    // already reported any contention, so the Masking trials stay silent.
    if (category != StepCategory::Masking) check_contention(category, dir, open);
    clear_dead_driven(dir, open_eff, driven);
    apply_stuck_bits(axis, values, value_bits, cycle);
    if (faults_.any_dead) {
      const Flag* dead = faults_.dead.data();
      for (std::size_t pe = 0; pe < values.size(); ++pe) {
        if (dead[pe] != 0) values[pe] = T{0};
      }
    }
  }
  steps_.charge_bus(category, max_segment);
  if (trace_ != nullptr) {
    // Bus occupancy rides the event only while a sink is attached: the
    // driven-flag scan is host bookkeeping, never charged, and the flags
    // themselves are pinned bit-identical across backends.
    std::size_t driven_wires = 0;
    for (const Flag f : driven) driven_wires += static_cast<std::size_t>(f != 0);
    trace_->on_event(TraceEvent{category, dir, count_open(open_eff), max_segment, 1,
                                static_cast<std::size_t>(value_bits), driven_wires,
                                driven.size()});
  }
  return max_segment;
}

template <typename T>
std::size_t Machine::tmr_broadcast_into(std::span<const T> src, Direction dir,
                                        std::span<const Flag> open, std::span<T> values,
                                        std::span<Flag> driven, int value_bits) {
  const std::size_t max_segment =
      broadcast_cycle<T>(src, dir, open, values, driven, value_bits,
                         StepCategory::BusBroadcast);
  auto trial = [&](int i) -> std::vector<T>& {
    if constexpr (std::is_same_v<T, Word>) return tmr_word_[i];
    else return tmr_flag_[i];
  };
  for (int i = 0; i < 2; ++i) {
    trial(i).resize(values.size());
    tmr_driven_[i].resize(driven.size());
    (void)broadcast_cycle<T>(src, dir, open, std::span<T>(trial(i)),
                             std::span<Flag>(tmr_driven_[i]), value_bits,
                             StepCategory::Masking);
  }
  ++mask_stats_.votes;
  bool changed = majority_vote<T>(values, trial(0), trial(1));
  changed |= majority_vote<Flag>(driven, tmr_driven_[0], tmr_driven_[1]);
  if (changed) ++mask_stats_.corrections;
  return max_segment;
}

BusResult Machine::broadcast(std::span<const Word> src, Direction dir,
                             std::span<const Flag> open) {
  BusResult result;
  result.values.resize(pe_count());
  result.driven.resize(pe_count());
  result.max_segment = broadcast_into(src, dir, open, result.values, result.driven);
  return result;
}

BusResult Machine::wired_or(std::span<const Flag> src, Direction dir,
                            std::span<const Flag> open) {
  BusResult result;
  std::vector<Flag> values(pe_count());
  result.max_segment = wired_or_into(src, dir, open, values);
  result.values.assign(values.begin(), values.end());
  result.driven.assign(pe_count(), 1);  // an open-collector read never floats
  return result;
}

std::size_t Machine::broadcast_into(std::span<const Word> src, Direction dir,
                                    std::span<const Flag> open, std::span<Word> values,
                                    std::span<Flag> driven) {
  if (config_.masking == BusMasking::Tmr) {
    return tmr_broadcast_into<Word>(src, dir, open, values, driven, field_.bits());
  }
  return broadcast_cycle<Word>(src, dir, open, values, driven, field_.bits(),
                               StepCategory::BusBroadcast);
}

std::size_t Machine::broadcast_into(std::span<const Flag> src, Direction dir,
                                    std::span<const Flag> open, std::span<Flag> values,
                                    std::span<Flag> driven) {
  if (config_.masking == BusMasking::Tmr) {
    return tmr_broadcast_into<Flag>(src, dir, open, values, driven, 1);
  }
  return broadcast_cycle<Flag>(src, dir, open, values, driven, 1,
                               StepCategory::BusBroadcast);
}

std::size_t Machine::wired_or_cycle(std::span<const Flag> src, Direction dir,
                                    std::span<const Flag> open, std::span<Flag> values,
                                    StepCategory category) {
  const std::uint64_t cycle = bus_cycles_++;
  const Axis axis = axis_of(dir);
  std::span<const Flag> open_eff = open;
  std::span<const Flag> src_eff = src;
  if (faults_.any) {
    open_eff = effective_open(axis, open);
    if (faults_.any_dead) {
      scratch_src_flag_.resize(src.size());
      const Flag* dead = faults_.dead.data();
      for (std::size_t pe = 0; pe < src.size(); ++pe) {
        scratch_src_flag_[pe] = dead[pe] != 0 ? Flag{0} : src[pe];
      }
      src_eff = scratch_src_flag_;
    }
  }
  const std::size_t max_segment =
      bus_wired_or_into(config_.n, config_.topology, dir, src_eff, open_eff, values);
  if (faults_.any) {
    apply_stuck_bits(axis, values, 1, cycle);
    if (faults_.any_dead) {
      const Flag* dead = faults_.dead.data();
      for (std::size_t pe = 0; pe < values.size(); ++pe) {
        if (dead[pe] != 0) values[pe] = 0;
      }
    }
  }
  steps_.charge_bus(category, max_segment);
  if (trace_ != nullptr) {
    // An open-collector read never floats: every PE port sees the OR.
    trace_->on_event(TraceEvent{category, dir, count_open(open_eff), max_segment, 1, 1,
                                values.size(), values.size()});
  }
  return max_segment;
}

std::size_t Machine::tmr_wired_or_into(std::span<const Flag> src, Direction dir,
                                       std::span<const Flag> open, std::span<Flag> values) {
  const std::size_t max_segment =
      wired_or_cycle(src, dir, open, values, StepCategory::BusOr);
  for (int i = 0; i < 2; ++i) {
    tmr_flag_[i].resize(values.size());
    (void)wired_or_cycle(src, dir, open, std::span<Flag>(tmr_flag_[i]),
                         StepCategory::Masking);
  }
  ++mask_stats_.votes;
  if (majority_vote<Flag>(values, tmr_flag_[0], tmr_flag_[1])) ++mask_stats_.corrections;
  return max_segment;
}

std::size_t Machine::wired_or_into(std::span<const Flag> src, Direction dir,
                                   std::span<const Flag> open, std::span<Flag> values) {
  if (config_.masking == BusMasking::Tmr) return tmr_wired_or_into(src, dir, open, values);
  return wired_or_cycle(src, dir, open, values, StepCategory::BusOr);
}

std::size_t Machine::broadcast_planes_cycle(const PlaneWord* src, int planes,
                                            Direction dir, const PlaneWord* open,
                                            PlaneWord* out, PlaneWord* driven,
                                            StepCategory category) {
  const std::uint64_t cycle = bus_cycles_++;
  const Axis axis = axis_of(dir);
  const PlaneWord* open_eff = open;
  const PlaneWord* src_eff = src;
  const std::size_t pw = geometry_.plane_words();
  if (faults_.any) {
    open_eff = effective_open_plane(axis, open);
    if (faults_.any_dead) {
      scratch_src_planes_.resize(pw * static_cast<std::size_t>(planes));
      const PlaneWord* alive = faults_.alive_plane.data();
      for (int j = 0; j < planes; ++j) {
        const std::size_t off = static_cast<std::size_t>(j) * pw;
        for (std::size_t i = 0; i < pw; ++i) {
          scratch_src_planes_[off + i] = src[off + i] & alive[i];
        }
      }
      src_eff = scratch_src_planes_.data();
    }
  }
  const std::size_t max_segment =
      plane_broadcast_into(geometry_, config_.topology, dir, src_eff, planes, open_eff,
                           out, driven, bus_scratch_);
  if (faults_.any) {
    if (category != StepCategory::Masking) check_contention_plane(category, dir, open);
    clear_dead_driven_plane(dir, open_eff, driven);
    apply_stuck_bits_planes(axis, out, planes, cycle);
    if (faults_.any_dead) {
      const PlaneWord* alive = faults_.alive_plane.data();
      for (int j = 0; j < planes; ++j) {
        const std::size_t off = static_cast<std::size_t>(j) * pw;
        for (std::size_t i = 0; i < pw; ++i) out[off + i] &= alive[i];
      }
    }
  }
  steps_.charge_bus(category, max_segment);
  if (trace_ != nullptr) {
    // Pads are canonically zero, so the plane popcount equals the word
    // engine's driven-flag count exactly (the parity the tests pin).
    trace_->on_event(TraceEvent{category, dir, plane_popcount(geometry_, open_eff),
                                max_segment, 1, static_cast<std::size_t>(planes),
                                plane_popcount(geometry_, driven), pe_count()});
  }
  return max_segment;
}

std::size_t Machine::tmr_broadcast_planes_into(const PlaneWord* src, int planes,
                                               Direction dir, const PlaneWord* open,
                                               PlaneWord* out, PlaneWord* driven) {
  const std::size_t max_segment =
      broadcast_planes_cycle(src, planes, dir, open, out, driven,
                             StepCategory::BusBroadcast);
  const std::size_t pw = geometry_.plane_words();
  const std::size_t words = pw * static_cast<std::size_t>(planes);
  for (int i = 0; i < 2; ++i) {
    tmr_planes_[i].resize(words);
    tmr_planes_driven_[i].resize(pw);
    (void)broadcast_planes_cycle(src, planes, dir, open, tmr_planes_[i].data(),
                                 tmr_planes_driven_[i].data(), StepCategory::Masking);
  }
  ++mask_stats_.votes;
  bool changed =
      majority_vote_words(out, tmr_planes_[0].data(), tmr_planes_[1].data(), words);
  changed |= majority_vote_words(driven, tmr_planes_driven_[0].data(),
                                 tmr_planes_driven_[1].data(), pw);
  if (changed) ++mask_stats_.corrections;
  return max_segment;
}

std::size_t Machine::broadcast_planes_into(const PlaneWord* src, int planes,
                                           Direction dir, const PlaneWord* open,
                                           PlaneWord* out, PlaneWord* driven) {
  if (config_.masking == BusMasking::Tmr) {
    return tmr_broadcast_planes_into(src, planes, dir, open, out, driven);
  }
  if (config_.masking == BusMasking::Ecc) {
    return ecc_broadcast_planes_into(src, planes, dir, open, out, driven);
  }
  return broadcast_planes_cycle(src, planes, dir, open, out, driven,
                                StepCategory::BusBroadcast);
}

std::size_t Machine::shadow_broadcast_into(std::span<const Flag> src, Direction dir,
                                           std::span<const Flag> open,
                                           std::span<Flag> values, std::span<Flag> driven) {
  if (!faults_.any) {
    return bus_broadcast_into(config_.n, config_.topology, dir, src, open, values, driven);
  }
  const Axis axis = axis_of(dir);
  const std::span<const Flag> open_eff = effective_open(axis, open);
  std::span<const Flag> src_eff = src;
  if (faults_.any_dead) {
    scratch_src_flag_.resize(src.size());
    const Flag* dead = faults_.dead.data();
    for (std::size_t pe = 0; pe < src.size(); ++pe) {
      scratch_src_flag_[pe] = dead[pe] != 0 ? Flag{0} : src[pe];
    }
    src_eff = scratch_src_flag_;
  }
  const std::size_t max_segment =
      bus_broadcast_into(config_.n, config_.topology, dir, src_eff, open_eff, values, driven);
  clear_dead_driven(dir, open_eff, driven);
  if (faults_.any_dead) {
    const Flag* dead = faults_.dead.data();
    for (std::size_t pe = 0; pe < values.size(); ++pe) {
      if (dead[pe] != 0) values[pe] = 0;
    }
  }
  return max_segment;
}

std::size_t Machine::shadow_broadcast_planes_into(const PlaneWord* src, Direction dir,
                                                  const PlaneWord* open, PlaneWord* out,
                                                  PlaneWord* driven) {
  if (!faults_.any) {
    return plane_broadcast_into(geometry_, config_.topology, dir, src, 1, open, out, driven,
                                bus_scratch_);
  }
  const Axis axis = axis_of(dir);
  const PlaneWord* open_eff = effective_open_plane(axis, open);
  const PlaneWord* src_eff = src;
  const std::size_t pw = geometry_.plane_words();
  if (faults_.any_dead) {
    scratch_src_planes_.resize(pw);
    const PlaneWord* alive = faults_.alive_plane.data();
    for (std::size_t i = 0; i < pw; ++i) scratch_src_planes_[i] = src[i] & alive[i];
    src_eff = scratch_src_planes_.data();
  }
  const std::size_t max_segment =
      plane_broadcast_into(geometry_, config_.topology, dir, src_eff, 1, open_eff, out,
                           driven, bus_scratch_);
  clear_dead_driven_plane(dir, open_eff, driven);
  if (faults_.any_dead) {
    const PlaneWord* alive = faults_.alive_plane.data();
    for (std::size_t i = 0; i < pw; ++i) out[i] &= alive[i];
  }
  return max_segment;
}

std::size_t Machine::wired_or_plane_cycle(const PlaneWord* src, Direction dir,
                                          const PlaneWord* open, PlaneWord* out,
                                          StepCategory category) {
  const std::uint64_t cycle = bus_cycles_++;
  const Axis axis = axis_of(dir);
  const PlaneWord* open_eff = open;
  const PlaneWord* src_eff = src;
  const std::size_t pw = geometry_.plane_words();
  if (faults_.any) {
    open_eff = effective_open_plane(axis, open);
    if (faults_.any_dead) {
      scratch_src_planes_.resize(pw);
      const PlaneWord* alive = faults_.alive_plane.data();
      for (std::size_t i = 0; i < pw; ++i) scratch_src_planes_[i] = src[i] & alive[i];
      src_eff = scratch_src_planes_.data();
    }
  }
  const std::size_t max_segment =
      plane_wired_or_into(geometry_, config_.topology, dir, src_eff, open_eff, out,
                          bus_scratch_);
  if (faults_.any) {
    apply_stuck_bits_planes(axis, out, 1, cycle);
    if (faults_.any_dead) {
      const PlaneWord* alive = faults_.alive_plane.data();
      for (std::size_t i = 0; i < pw; ++i) out[i] &= alive[i];
    }
  }
  steps_.charge_bus(category, max_segment);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{category, dir, plane_popcount(geometry_, open_eff),
                                max_segment, 1, 1, pe_count(), pe_count()});
  }
  return max_segment;
}

std::size_t Machine::tmr_wired_or_plane_into(const PlaneWord* src, Direction dir,
                                             const PlaneWord* open, PlaneWord* out) {
  const std::size_t max_segment =
      wired_or_plane_cycle(src, dir, open, out, StepCategory::BusOr);
  const std::size_t pw = geometry_.plane_words();
  for (int i = 0; i < 2; ++i) {
    tmr_planes_[i].resize(pw);
    (void)wired_or_plane_cycle(src, dir, open, tmr_planes_[i].data(),
                               StepCategory::Masking);
  }
  ++mask_stats_.votes;
  if (majority_vote_words(out, tmr_planes_[0].data(), tmr_planes_[1].data(), pw)) {
    ++mask_stats_.corrections;
  }
  return max_segment;
}

std::size_t Machine::wired_or_plane_into(const PlaneWord* src, Direction dir,
                                         const PlaneWord* open, PlaneWord* out) {
  if (config_.masking == BusMasking::Tmr) return tmr_wired_or_plane_into(src, dir, open, out);
  if (config_.masking == BusMasking::Ecc) return ecc_wired_or_plane_into(src, dir, open, out);
  return wired_or_plane_cycle(src, dir, open, out, StepCategory::BusOr);
}

// ---------------------------------------------------------------------------
// ECC rider (docs/robustness.md). Every plane bus cycle is followed by a
// parity beat: r = bit_width(planes) parity planes of the PROGRAM source,
// computed with the dispatched SIMD plane kernels and sent through the same
// switch fabric (effective switches, dead-driver silencing, dead reads) but
// on spare wires outside the h-bit stuck-bit fault surface. The receiver
// recomputes parity over the received data planes; the XOR of the two is a
// per-lane Hamming syndrome that names the single corrupted data plane
// (signature j + 1), which is then bit-flipped in place. Double faults on
// one lane can alias to a wrong signature — the run's verification
// certificate stays the backstop for that.
// ---------------------------------------------------------------------------

void Machine::ecc_parity_of(const PlaneWord* data, int planes, int r, PlaneWord* parity) {
  const auto& k = plane_kernels::active();
  const std::size_t pw = geometry_.plane_words();
  for (int b = 0; b < r; ++b) {
    PlaneWord* p = parity + static_cast<std::size_t>(b) * pw;
    bool first = true;
    for (int j = 0; j < planes; ++j) {
      if ((static_cast<unsigned>(j + 1) >> b & 1u) == 0) continue;
      const PlaneWord* d = data + static_cast<std::size_t>(j) * pw;
      if (first) {
        k.op_copy(d, p, pw);
        first = false;
      } else {
        k.op_xor(p, d, p, pw);
      }
    }
    if (first) k.op_zero(p, pw);  // unreachable for r = bit_width(planes)
  }
}

void Machine::ecc_parity_beat(int r, Direction dir, const PlaneWord* program_open,
                              bool wired_or) {
  const Axis axis = axis_of(dir);
  const std::size_t pw = geometry_.plane_words();
  const PlaneWord* open_eff =
      faults_.any ? effective_open_plane(axis, program_open) : program_open;
  if (faults_.any_dead) {
    const PlaneWord* alive = faults_.alive_plane.data();
    for (int b = 0; b < r; ++b) {
      const std::size_t off = static_cast<std::size_t>(b) * pw;
      for (std::size_t i = 0; i < pw; ++i) ecc_parity_src_[off + i] &= alive[i];
    }
  }
  ecc_parity_recv_.resize(static_cast<std::size_t>(r) * pw);
  std::size_t max_segment = 0;
  if (wired_or) {
    max_segment = plane_wired_or_into(geometry_, config_.topology, dir,
                                      ecc_parity_src_.data(), open_eff,
                                      ecc_parity_recv_.data(), bus_scratch_);
  } else {
    ecc_parity_driven_.resize(pw);
    max_segment = plane_broadcast_into(geometry_, config_.topology, dir,
                                       ecc_parity_src_.data(), r, open_eff,
                                       ecc_parity_recv_.data(), ecc_parity_driven_.data(),
                                       bus_scratch_);
  }
  // No apply_stuck_bits_planes: the modeled stuck wires are data wires
  // (bit < h); the parity beat's spare wires are clean. Dead PEs still
  // read zero — zero received data plus zero parity is a valid codeword,
  // so dead lanes never trigger a false correction.
  if (faults_.any_dead) {
    const PlaneWord* alive = faults_.alive_plane.data();
    for (int b = 0; b < r; ++b) {
      const std::size_t off = static_cast<std::size_t>(b) * pw;
      for (std::size_t i = 0; i < pw; ++i) ecc_parity_recv_[off + i] &= alive[i];
    }
  }
  steps_.charge_bus(StepCategory::Masking, max_segment);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{StepCategory::Masking, dir,
                                plane_popcount(geometry_, open_eff), max_segment, 1,
                                static_cast<std::size_t>(r)});
  }
}

void Machine::ecc_decode(PlaneWord* out, int planes, int r) {
  const auto& k = plane_kernels::active();
  const std::size_t pw = geometry_.plane_words();
  ecc_check_.resize(static_cast<std::size_t>(r) * pw);
  ecc_parity_of(out, planes, r, ecc_check_.data());
  // Per-lane syndrome, in place: received parity XOR recomputed parity.
  k.op_xor(ecc_parity_recv_.data(), ecc_check_.data(), ecc_parity_recv_.data(),
           static_cast<std::size_t>(r) * pw);
  const PlaneWord* s = ecc_parity_recv_.data();
  ++mask_stats_.votes;
  ecc_nonzero_.resize(pw);
  k.op_copy(s, ecc_nonzero_.data(), pw);
  for (int b = 1; b < r; ++b) {
    k.op_or(ecc_nonzero_.data(), s + static_cast<std::size_t>(b) * pw,
            ecc_nonzero_.data(), pw);
  }
  if (k.all_zero(ecc_nonzero_.data(), pw)) return;  // clean cycle
  ecc_corrected_.resize(pw);
  ecc_mask_.resize(pw);
  k.op_zero(ecc_corrected_.data(), pw);
  for (int j = 0; j < planes; ++j) {
    const unsigned sig = static_cast<unsigned>(j) + 1;
    // Lanes whose syndrome equals this plane's signature exactly.
    bool first = true;
    for (int b = 0; b < r; ++b) {
      if ((sig >> b & 1u) == 0) continue;
      const PlaneWord* sb = s + static_cast<std::size_t>(b) * pw;
      if (first) {
        k.op_copy(sb, ecc_mask_.data(), pw);
        first = false;
      } else {
        k.op_and(ecc_mask_.data(), sb, ecc_mask_.data(), pw);
      }
    }
    for (int b = 0; b < r; ++b) {
      if ((sig >> b & 1u) != 0) continue;
      k.op_andnot(ecc_mask_.data(), s + static_cast<std::size_t>(b) * pw,
                  ecc_mask_.data(), pw);
    }
    if (k.all_zero(ecc_mask_.data(), pw)) continue;
    PlaneWord* dj = out + static_cast<std::size_t>(j) * pw;
    k.op_xor(dj, ecc_mask_.data(), dj, pw);
    k.op_or(ecc_corrected_.data(), ecc_mask_.data(), ecc_corrected_.data(), pw);
  }
  if (!k.all_zero(ecc_corrected_.data(), pw)) ++mask_stats_.corrections;
  // Lanes whose syndrome matched no data-plane signature (e.g. a multi-bit
  // hit aliasing past `planes`): flagged, not repaired.
  k.op_andnot(ecc_nonzero_.data(), ecc_corrected_.data(), ecc_nonzero_.data(), pw);
  if (!k.all_zero(ecc_nonzero_.data(), pw)) ++mask_stats_.uncorrectable;
}

std::size_t Machine::ecc_broadcast_planes_into(const PlaneWord* src, int planes,
                                               Direction dir, const PlaneWord* open,
                                               PlaneWord* out, PlaneWord* driven) {
  const int r = ecc_parity_count(planes);
  const std::size_t pw = geometry_.plane_words();
  ecc_parity_src_.resize(static_cast<std::size_t>(r) * pw);
  ecc_parity_of(src, planes, r, ecc_parity_src_.data());
  const std::size_t max_segment =
      broadcast_planes_cycle(src, planes, dir, open, out, driven,
                             StepCategory::BusBroadcast);
  ecc_parity_beat(r, dir, open, /*wired_or=*/false);
  ecc_decode(out, planes, r);
  return max_segment;
}

std::size_t Machine::ecc_wired_or_plane_into(const PlaneWord* src, Direction dir,
                                             const PlaneWord* open, PlaneWord* out) {
  // A 1-plane wired-OR cycle degenerates to r = 1: the parity "plane" is a
  // duplicate of the data plane on the clean spare wire.
  const std::size_t pw = geometry_.plane_words();
  ecc_parity_src_.resize(pw);
  plane_kernels::active().op_copy(src, ecc_parity_src_.data(), pw);
  const std::size_t max_segment =
      wired_or_plane_cycle(src, dir, open, out, StepCategory::BusOr);
  ecc_parity_beat(1, dir, open, /*wired_or=*/true);
  ecc_decode(out, 1, 1);
  return max_segment;
}

void Machine::shift_planes(const PlaneWord* src, int planes, Direction dir,
                           std::uint64_t fill_bits, PlaneWord* dst) {
  PPA_REQUIRE(src != dst, "shift source and destination must not alias");
  steps_.charge(StepCategory::Shift);
  if (trace_ != nullptr) trace_->on_event(TraceEvent{StepCategory::Shift, dir, 0, 0});
  plane_shift(geometry_, dir, src, planes, fill_bits, dst);
}

bool Machine::global_or_plane(const PlaneWord* plane) {
  steps_.charge(StepCategory::GlobalOr);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{StepCategory::GlobalOr, Direction::North, 0, 0});
  }
  const std::size_t words = geometry_.plane_words();
  for (std::size_t i = 0; i < words; ++i) {
    if (plane[i] != 0) return true;
  }
  return false;
}

bool Machine::global_or(std::span<const Flag> flags) {
  PPA_REQUIRE(flags.size() == pe_count(), "global_or operand must cover the whole array");
  steps_.charge(StepCategory::GlobalOr);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{StepCategory::GlobalOr, Direction::North, 0, 0});
  }
  return std::any_of(flags.begin(), flags.end(), [](Flag f) { return f != 0; });
}

}  // namespace ppa::sim
