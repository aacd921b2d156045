#include "ppc/context.hpp"

#include <algorithm>

#include "ppc/flag_sweep.hpp"
#include "util/check.hpp"

namespace ppa::ppc {

Context::Context(sim::Machine& machine)
    : machine_(machine),
      alu_(sim::plane_kernels::active(), machine.mutable_sweep_stats()) {
  if (bitplane()) {
    full_.resize(geometry().plane_words());
    sim::plane_fill_full(geometry(), full_.data());
    plane_stack_.push_back(full_);
  } else {
    stack_.emplace_back(machine.pe_count(), Flag{1});
  }
}

bool Context::mask_is_full() const noexcept {
  if (bitplane()) {
    return alu_.equal(plane_stack_.back().data(), full_.data(),
                      geometry().plane_words());
  }
  const auto& top = stack_.back();
  return std::all_of(top.begin(), top.end(), [](Flag f) { return f != 0; });
}

void Context::push_mask_and(std::span<const Flag> cond) {
  PPA_REQUIRE(cond.size() == pe_count(), "where-condition must cover the whole array");
  const auto& top = stack_.back();
  std::vector<Flag> next = acquire_flags();
  // Raw pointers: keeps the sweep at real loads/stores even when the
  // vector/span operator[] calls don't inline (unoptimized builds).
  const Flag* pt = top.data();
  const Flag* pc = cond.data();
  Flag* pn = next.data();
  flag_sweep::mask_and_cond(pt, pc, pn, /*negate=*/false, pe_count());
  machine_.charge_alu();
  stack_.push_back(std::move(next));
}

void Context::push_mask_and_not(std::span<const Flag> cond) {
  PPA_REQUIRE(cond.size() == pe_count(), "where-condition must cover the whole array");
  const auto& top = stack_.back();
  std::vector<Flag> next = acquire_flags();
  const Flag* pt = top.data();
  const Flag* pc = cond.data();
  Flag* pn = next.data();
  flag_sweep::mask_and_cond(pt, pc, pn, /*negate=*/true, pe_count());
  machine_.charge_alu();
  stack_.push_back(std::move(next));
}

void Context::pop_mask() {
  if (bitplane()) {
    PPA_REQUIRE(plane_stack_.size() > 1, "pop_mask without a matching where");
    release_flag_plane(std::move(plane_stack_.back()));
    plane_stack_.pop_back();
    return;
  }
  PPA_REQUIRE(stack_.size() > 1, "pop_mask without a matching where");
  release_flags(std::move(stack_.back()));
  stack_.pop_back();
}

void Context::push_mask_and_plane(const sim::PlaneWord* cond) {
  std::vector<sim::PlaneWord> next = acquire_flag_plane();
  alu_.op_and(plane_stack_.back().data(), cond, next.data(),
              geometry().plane_words());
  machine_.charge_alu();
  plane_stack_.push_back(std::move(next));
}

void Context::push_mask_and_not_plane(const sim::PlaneWord* cond) {
  std::vector<sim::PlaneWord> next = acquire_flag_plane();
  alu_.op_andnot(plane_stack_.back().data(), cond, next.data(),
                 geometry().plane_words());
  machine_.charge_alu();
  plane_stack_.push_back(std::move(next));
}

std::vector<Word> Context::acquire_words() {
  if (!free_words_.empty()) {
    std::vector<Word> buffer = std::move(free_words_.back());
    free_words_.pop_back();
    buffer.resize(pe_count());
    return buffer;
  }
  return std::vector<Word>(pe_count());
}

std::vector<Flag> Context::acquire_flags() {
  if (!free_flags_.empty()) {
    std::vector<Flag> buffer = std::move(free_flags_.back());
    free_flags_.pop_back();
    buffer.resize(pe_count());
    return buffer;
  }
  return std::vector<Flag>(pe_count());
}

void Context::release_words(std::vector<Word>&& buffer) noexcept {
  if (buffer.capacity() < pe_count()) return;  // moved-from husk or wrong size
  try {
    free_words_.push_back(std::move(buffer));
  } catch (...) {
    // Out of memory growing the free-list: just let the buffer die.
  }
}

void Context::release_flags(std::vector<Flag>&& buffer) noexcept {
  if (buffer.capacity() < pe_count()) return;
  try {
    free_flags_.push_back(std::move(buffer));
  } catch (...) {
  }
}

std::vector<sim::PlaneWord> Context::acquire_value_planes() {
  const std::size_t words =
      geometry().plane_words() * static_cast<std::size_t>(field().bits());
  if (!free_value_planes_.empty()) {
    std::vector<sim::PlaneWord> buffer = std::move(free_value_planes_.back());
    free_value_planes_.pop_back();
    buffer.resize(words);
    return buffer;
  }
  return std::vector<sim::PlaneWord>(words);
}

std::vector<sim::PlaneWord> Context::acquire_flag_plane() {
  if (!free_flag_planes_.empty()) {
    std::vector<sim::PlaneWord> buffer = std::move(free_flag_planes_.back());
    free_flag_planes_.pop_back();
    buffer.resize(geometry().plane_words());
    return buffer;
  }
  return std::vector<sim::PlaneWord>(geometry().plane_words());
}

void Context::release_value_planes(std::vector<sim::PlaneWord>&& buffer) noexcept {
  const std::size_t words =
      geometry().plane_words() * static_cast<std::size_t>(field().bits());
  if (buffer.capacity() < words) return;
  try {
    free_value_planes_.push_back(std::move(buffer));
  } catch (...) {
  }
}

void Context::release_flag_plane(std::vector<sim::PlaneWord>&& buffer) noexcept {
  if (buffer.capacity() < geometry().plane_words()) return;
  try {
    free_flag_planes_.push_back(std::move(buffer));
  } catch (...) {
  }
}

}  // namespace ppa::ppc
