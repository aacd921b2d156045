// Array geometry: directions, bus axes and PE coordinates.
//
// The PPA is an n x n SIMD array. Two bus systems run through every PE's
// switch box: one along the rows (data moves East or West) and one along
// the columns (North or South). The *direction* of data movement is global
// — "at any given time, all the nodes send data in the same direction
// (North, East, West or South), which is selected by the SIMD program
// controller" — while the Open/Short switch setting is local per PE.
#pragma once

#include <cstddef>
#include <string_view>

#include "util/check.hpp"

namespace ppa::sim {

/// Global data-movement direction chosen by the controller.
enum class Direction : int { North = 0, East = 1, South = 2, West = 3 };

/// Which physical bus system a direction uses.
enum class Axis : int { Row = 0, Column = 1 };

/// Switch-box setting of one PE: Open disconnects the two bus stubs and
/// lets the PE inject; Short passes data through and isolates the PE's
/// driver from the bus.
enum class Switch : std::uint8_t { Short = 0, Open = 1 };

[[nodiscard]] constexpr Direction opposite(Direction d) noexcept {
  switch (d) {
    case Direction::North: return Direction::South;
    case Direction::South: return Direction::North;
    case Direction::East: return Direction::West;
    case Direction::West: return Direction::East;
  }
  return Direction::North;  // unreachable
}

[[nodiscard]] constexpr Axis axis_of(Direction d) noexcept {
  return (d == Direction::East || d == Direction::West) ? Axis::Row : Axis::Column;
}

[[nodiscard]] constexpr std::string_view name_of(Direction d) noexcept {
  switch (d) {
    case Direction::North: return "North";
    case Direction::East: return "East";
    case Direction::South: return "South";
    case Direction::West: return "West";
  }
  return "?";
}

/// PE coordinates in an n x n array; pe id == row * n + col (row-major).
struct Coord {
  std::size_t row = 0;
  std::size_t col = 0;

  friend constexpr bool operator==(const Coord&, const Coord&) = default;
};

}  // namespace ppa::sim
