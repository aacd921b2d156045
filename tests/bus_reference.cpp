#include "bus_reference.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace ppa::sim::reference {

namespace {

constexpr std::size_t kNoDriver = std::numeric_limits<std::size_t>::max();

/// Maps (line, position-in-flow-order) to a PE id. For row buses the line
/// is a row and positions run along columns; for column buses vice versa.
/// `reversed` flips the flow order (West / North).
struct LineMap {
  std::size_t n;
  Axis axis;
  bool reversed;

  [[nodiscard]] std::size_t pe(std::size_t line, std::size_t k) const noexcept {
    const std::size_t q = reversed ? n - 1 - k : k;
    return axis == Axis::Row ? line * n + q : q * n + line;
  }
};

LineMap line_map(std::size_t n, Direction dir) noexcept {
  return LineMap{n, axis_of(dir), dir == Direction::West || dir == Direction::North};
}

/// Index (in flow order) of the last Open position on a line, or kNoDriver.
std::size_t last_open(const LineMap& map, std::size_t line, std::span<const Flag> open) {
  std::size_t result = kNoDriver;
  for (std::size_t k = 0; k < map.n; ++k) {
    if (open[map.pe(line, k)]) result = k;
  }
  return result;
}

void check_sizes(std::size_t n, std::size_t src_size, std::size_t open_size) {
  PPA_REQUIRE(n >= 1, "array side must be positive");
  PPA_REQUIRE(src_size == n * n && open_size == n * n,
              "bus operands must cover the whole array");
}

}  // namespace

BusResult bus_broadcast(std::size_t n, BusTopology topology, Direction dir,
                        std::span<const Word> src, std::span<const Flag> open) {
  check_sizes(n, src.size(), open.size());
  const LineMap map = line_map(n, dir);
  BusResult result;
  result.values.assign(n * n, 0);
  result.driven.assign(n * n, 0);

  for (std::size_t line = 0; line < n; ++line) {
    const std::size_t s = last_open(map, line, open);
    if (s == kNoDriver) continue;  // floating bus: whole line undriven

    std::size_t run = 0;
    if (topology == BusTopology::Ring) {
      // Walk downstream starting just past the last Open node; every
      // position reads the most recent Open node passed ("cur").
      std::size_t cur = s;
      Word cur_value = src[map.pe(line, cur)];
      for (std::size_t step = 1; step <= n; ++step) {
        const std::size_t k = (s + step) % n;
        const std::size_t p = map.pe(line, k);
        result.values[p] = cur_value;
        result.driven[p] = 1;
        ++run;
        if (open[p]) {
          result.max_segment = std::max(result.max_segment, run);
          run = 0;
          cur = k;
          cur_value = src[p];
        }
      }
      result.max_segment = std::max(result.max_segment, run);
    } else {
      // Linear: positions at or before the first Open node float.
      bool have_driver = false;
      Word cur_value = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t p = map.pe(line, k);
        if (have_driver) {
          result.values[p] = cur_value;
          result.driven[p] = 1;
          ++run;
        }
        if (open[p]) {
          result.max_segment = std::max(result.max_segment, run);
          run = 0;
          have_driver = true;
          cur_value = src[p];
        }
      }
      result.max_segment = std::max(result.max_segment, run);
    }
  }
  return result;
}

BusResult bus_wired_or(std::size_t n, BusTopology topology, Direction dir,
                       std::span<const Flag> src, std::span<const Flag> open) {
  check_sizes(n, src.size(), open.size());
  const LineMap map = line_map(n, dir);
  BusResult result;
  result.values.assign(n * n, 0);
  // An open-collector read never floats: a segment nobody pulls reads 0.
  result.driven.assign(n * n, 1);

  // Per-line scratch, reused across lines. Segment key per position: an
  // Open PE keys its own (downstream) segment, a Short PE the segment it
  // sits on. Key n is the Linear head segment (upstream of every Open
  // switch, or the whole line when there is none).
  const std::size_t kHead = n;
  std::vector<std::size_t> key(n, kHead);
  std::vector<Flag> acc(n + 1, 0);
  std::vector<std::size_t> members(n + 1, 0);

  for (std::size_t line = 0; line < n; ++line) {
    const std::size_t s = last_open(map, line, open);

    if (topology == BusTopology::Ring && s != kNoDriver) {
      std::size_t cur = s;
      for (std::size_t step = 1; step <= n; ++step) {
        const std::size_t k = (s + step) % n;
        if (open[map.pe(line, k)]) cur = k;
        key[k] = cur;
      }
    } else {
      // Linear — or a Ring with no Open switch at all, which is a single
      // unsegmented loop and behaves like one head segment.
      std::size_t cur = kHead;
      for (std::size_t k = 0; k < n; ++k) {
        if (open[map.pe(line, k)]) cur = k;
        key[k] = cur;
      }
    }

    std::fill(acc.begin(), acc.end(), Flag{0});
    std::fill(members.begin(), members.end(), std::size_t{0});
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t p = map.pe(line, k);
      if (src[p] != 0) acc[key[k]] = 1;
      ++members[key[k]];
    }
    for (std::size_t k = 0; k < n; ++k) {
      result.values[map.pe(line, k)] = acc[key[k]];
      result.max_segment = std::max(result.max_segment, members[key[k]]);
    }
  }
  return result;
}

}  // namespace ppa::sim::reference
