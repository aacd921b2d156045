// Exporters for the observability schema (docs/observability.md).
//
// write_metrics_json emits the stable "ppa.metrics.v1" document: a run
// context object (the field names obs/json_dom.cpp's validator checks),
// the registry's counters/gauges/histograms, and the span tree.
// write_stats_summary renders the same data as a short human summary for
// `ppa_mcp --stats`.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/collector.hpp"

namespace ppa::obs {

/// Run context stamped into the dump as its "run" object.
struct RunInfo {
  std::string workload;  // "mcp" | "all_pairs" | ...
  std::string backend;   // "word" | "bitplane"
  std::size_t n = 0;
  std::size_t host_threads = 1;  // host workers (all-pairs --workers)
  /// Destinations per shared machine pass (docs/batching.md); 1 = the
  /// per-destination engine.
  std::size_t batch_width = 1;
  /// 1 when the tiled sweep ran the activity-driven panel schedule
  /// (docs/tiling.md), 0 with --active-panels=off; the schedules charge
  /// different PanelIo totals.
  std::size_t active_panels = 1;
  std::uint64_t simd_steps = 0;
  double wall_seconds = 0;
};

/// The complete metrics document (one JSON object).
void write_metrics_json(std::ostream& out, const Collector& collector, const RunInfo& run);

/// Prometheus text exposition (version 0.0.4) of the same registry:
/// counters/gauges as single samples, histograms in the cumulative
/// `_bucket{le=...}` / `_sum` / `_count` convention. Metric names get a
/// `ppa_` prefix with dots mapped to underscores; every sample carries
/// workload/backend/n labels from the run context. Shaped for the
/// long-lived `ppa_mcpd` service's scrape endpoint; today the CLI writes
/// one exposition per run (`ppa_mcp --prom-out`).
void write_prometheus(std::ostream& out, const Collector& collector, const RunInfo& run);

/// Human-readable digest: run line, per-category step + wall-time
/// attribution table, bus-shape histograms, solver counters and the
/// top-level spans.
void write_stats_summary(std::ostream& out, const Collector& collector, const RunInfo& run);

}  // namespace ppa::obs
