// Layer probe suite: each probe times one public call of one layer from
// outside, checks its output, and reports per-call cost. The shapes are
// fixed (they do not depend on the workload) except where a probe names the
// workload's geometry or graph.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs every probe and adds its metrics to `metrics`. Probe outputs that
/// disagree with their reference are appended to `mismatches`.
void run_probes(const Workload& workload, const Instance& instance, Tracer* tracer,
                Metrics& metrics, std::vector<std::string>& mismatches);

/// all_pairs wall ratios on the n = 128 E6 graph of `seed`: workers 1 over
/// workers 2 (batch width 16), and batch width 1 over 16 (two workers).
void run_scaling(std::uint64_t seed, Tracer* tracer, Metrics& metrics,
                 std::vector<std::string>& mismatches);

}  // namespace perfbench
