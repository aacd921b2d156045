// Naive reference implementation of the bus engine.
//
// This is the original per-position walk (one driver search plus an O(n)
// downstream walk per line, with explicit segment-key bookkeeping for the
// wired-OR). The production engine in bus.cpp resolves clusters with a
// single forward scan per line; this version is retained verbatim as the
// differential-testing oracle (tests/sim_bus_fuzz_test.cpp checks the two
// against each other and against an independent brute-force model).
//
// It lives with the tests and is linked only into them: it allocates per
// call and walks each line through the (line, flow-position) index map.
#pragma once

#include "sim/bus.hpp"

namespace ppa::sim::reference {

/// Semantics identical to ppa::sim::bus_broadcast.
[[nodiscard]] BusResult bus_broadcast(std::size_t n, BusTopology topology, Direction dir,
                                      std::span<const Word> src, std::span<const Flag> open);

/// Semantics identical to ppa::sim::bus_wired_or.
[[nodiscard]] BusResult bus_wired_or(std::size_t n, BusTopology topology, Direction dir,
                                     std::span<const Flag> src, std::span<const Flag> open);

}  // namespace ppa::sim::reference
