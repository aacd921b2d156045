// The observability hub: metrics + phase spans + trace fan-out.
//
// A Collector is what a solver run observes itself with. It is a
// sim::TraceSink, so attaching it to a Machine feeds the bus-shape
// histograms (max_segment, open switch count, plane-sweep width) from the
// exact TraceEvents both execution backends emit identically; it records a
// tree of phase spans (init / relax / unload / verify / retry), each with
// wall-time and the StepCounter delta spent inside; and it forwards
// everything to an optional ChromeTraceWriter, which streams the run as a
// Perfetto-loadable timeline.
//
// Observation is free by contract: a Collector only *reads* machine state
// (steps(), the trace hook, the wall clock), so results, driven flags and
// step counts are bit-identical with and without one attached —
// tests/obs_observability_test.cpp pins this on both backends.
//
// Threading follows the StepCounter idiom: one Collector per simulated
// machine (single-writer, lock-free), merged deterministically in
// destination order by the all-pairs driver.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "sim/step_counter.hpp"
#include "sim/trace.hpp"

namespace ppa::sim {
class Machine;
}

namespace ppa::obs {

/// One closed phase span. Spans form a tree via `parent` (index into the
/// collector's span vector; kNoParent for roots). Times are seconds
/// relative to the collector's epoch; merging rebases them.
struct SpanRecord {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::string name;
  std::size_t parent = kNoParent;
  double start_seconds = 0;
  double duration_seconds = 0;
  /// SIMD steps charged on the observed machine while the span was open
  /// (zero when the span was opened without a machine).
  sim::StepCounter steps;
  /// Free-form argument (the MCP destination vertex, the retry attempt
  /// number, ...); -1 when unset.
  std::int64_t value = -1;
};

/// Wall-time attribution per StepCategory (the utilization profiler,
/// docs/observability.md). Each TraceEvent's inter-event wall gap is billed
/// to the ARRIVING event's category — an inclusive approximation that
/// attributes the host time spent producing an instruction to that
/// instruction. Timing data: merged additively, never part of the
/// determinism contract (unlike the counters, which are).
struct WallProfile {
  static constexpr std::size_t kCategories =
      static_cast<std::size_t>(sim::StepCategory::kCount);
  std::array<double, kCategories> seconds{};
  std::array<std::uint64_t, kCategories> events{};

  void merge(const WallProfile& other) noexcept {
    for (std::size_t c = 0; c < kCategories; ++c) {
      seconds[c] += other.seconds[c];
      events[c] += other.events[c];
    }
  }
};

/// One relaxation iteration's convergence telemetry: how many vertices'
/// SOW improved (the active-lane count riding the convergence OR the
/// solver already computes) and, for tiled runs, the per-row-block change
/// counts — the sparse-panel signal active-panel virtualization needs
/// (ROADMAP). Free by contract: host reads only.
struct IterationSample {
  std::int64_t destination = -1;
  std::uint64_t iteration = 0;   // 1-based, as Result::iterations counts
  std::uint64_t active = 0;      // vertices whose SOW changed this iteration
  std::vector<std::uint64_t> panel_changes;  // per row block; empty = full array
};

class Collector final : public sim::TraceSink {
 public:
  Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Chrome streaming: instruction/fault events and span brackets are
  /// forwarded live. Not owned; must outlive the attachment.
  void set_chrome(ChromeTraceWriter* writer) noexcept { chrome_ = writer; }
  [[nodiscard]] ChromeTraceWriter* chrome() const noexcept { return chrome_; }

  // ---- sim::TraceSink ----
  void on_event(const sim::TraceEvent& event) override;
  void on_fault(const sim::FaultEvent& event) override;

  // ---- spans ----

  /// RAII handle; closes its span on destruction. Inert when obtained from
  /// a null collector (see open_span below), so call sites need no checks.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Collector;
    friend Span open_span(Collector*, std::string_view, const sim::Machine*, std::int64_t);
    Span(Collector* collector, std::size_t index) : collector_(collector), index_(index) {}

    Collector* collector_;  // null = inert
    std::size_t index_;
  };

  /// Opens a span named `name`; `machine` (optional) contributes the
  /// StepCounter delta, `value` a free-form argument. Spans nest: the
  /// last-opened unclosed span is the parent.
  [[nodiscard]] Span span(std::string_view name, const sim::Machine* machine = nullptr,
                          std::int64_t value = -1);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return records_; }

  // ---- convergence telemetry ----

  /// Records one relaxation iteration's telemetry: the active-lane count
  /// and (tiled runs) per-row-block change counts. Adds `active` to the
  /// solver.active_lanes counter, appends to the convergence series,
  /// streams a Chrome 'C' counter sample when live, and fires the snapshot
  /// hook on its cadence. Host bookkeeping only — never touches the
  /// machine.
  void record_iteration(std::int64_t destination, std::uint64_t iteration,
                        std::uint64_t active,
                        std::vector<std::uint64_t> panel_changes = {});

  [[nodiscard]] const std::vector<IterationSample>& convergence() const noexcept {
    return convergence_;
  }

  /// Per-category wall-time attribution (fed by on_event).
  [[nodiscard]] const WallProfile& profile() const noexcept { return profile_; }

  /// Installs a periodic snapshot callback: fired from record_iteration
  /// every `every_iterations` iterations (0 disables). Shaped for the
  /// long-lived service: the CLI uses it to stream JSONL metrics
  /// snapshots (--snapshot-every). The hook must not mutate the collector.
  void set_snapshot_hook(std::uint64_t every_iterations,
                         std::function<void(const Collector&)> hook) {
    snapshot_every_ = every_iterations;
    snapshot_hook_ = std::move(hook);
  }

  /// Deterministic accumulation of another collector: metrics merge by
  /// name, span trees append with parents re-indexed and times rebased
  /// onto this collector's epoch, convergence series append, wall profiles
  /// add. Used by the all-pairs driver to fold per-destination collectors
  /// in destination order.
  void merge(const Collector& other);

  /// Exports every recorded span as a complete ("X") Chrome event onto
  /// `writer`'s timeline — the post-hoc path for merged trees (the live
  /// path streams B/E pairs instead). `tid_of_root` spreads root spans
  /// over Perfetto tracks, e.g. one per destination.
  void export_spans(ChromeTraceWriter& writer) const;

  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

 private:
  friend Span open_span(Collector*, std::string_view, const sim::Machine*, std::int64_t);
  void close_span(std::size_t index);
  [[nodiscard]] double now_seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }

  MetricsRegistry metrics_;
  ChromeTraceWriter* chrome_ = nullptr;  // not owned
  std::chrono::steady_clock::time_point epoch_;

  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_stack_;  // indices into records_
  // Step snapshot + machine per open span (parallel to open_stack_).
  struct OpenState {
    const sim::Machine* machine = nullptr;
    sim::StepCounter steps_at_open;
  };
  std::vector<OpenState> open_state_;

  // Hot-path instruments, resolved once in the constructor.
  Counter* step_counters_[static_cast<std::size_t>(sim::StepCategory::kCount)] = {};
  Histogram* seg_hist_ = nullptr;
  Histogram* open_hist_ = nullptr;
  Histogram* planes_hist_ = nullptr;
  Counter* driven_wires_ = nullptr;
  Counter* total_wires_ = nullptr;
  Histogram* driven_hist_ = nullptr;
  Counter* active_lanes_ = nullptr;

  // Utilization profiler state (timing — excluded from determinism).
  WallProfile profile_;
  std::chrono::steady_clock::time_point last_event_;
  bool has_last_event_ = false;

  // Convergence series + snapshot cadence.
  std::vector<IterationSample> convergence_;
  std::uint64_t snapshot_every_ = 0;
  std::uint64_t iterations_since_snapshot_ = 0;
  std::function<void(const Collector&)> snapshot_hook_;
};

/// Null-safe span opener: returns an inert handle when `collector` is
/// null, so instrumented code needs no branches. Prefer the PPA_SPAN
/// macro for the common scoped case.
[[nodiscard]] Collector::Span open_span(Collector* collector, std::string_view name,
                                        const sim::Machine* machine = nullptr,
                                        std::int64_t value = -1);

/// Counter names used for solver bookkeeping (docs/observability.md).
namespace metric {
inline constexpr const char* kBusMaxSegment = "bus.max_segment";
inline constexpr const char* kBusOpenCount = "bus.open_count";
inline constexpr const char* kBusPlaneWidth = "bus.plane_width";
inline constexpr const char* kSolverRetries = "solver.retries";
/// Destinations whose retry loop turned a failed row into a Verified one
/// (distinct from kSolverRetries, which counts the re-runs themselves).
inline constexpr const char* kSolverRecoveredRows = "solver.recovered_rows";
/// Fault masking (docs/robustness.md): masked bus cycles executed, cycles
/// where the TMR vote / ECC decode changed a delivered value, and ECC
/// cycles left with an unrepairable syndrome.
inline constexpr const char* kMaskVotes = "mask.votes";
inline constexpr const char* kMaskCorrections = "mask.corrections";
inline constexpr const char* kMaskUncorrectable = "mask.uncorrectable";
inline constexpr const char* kSolverRuns = "solver.runs";
inline constexpr const char* kSolverIterations = "solver.iterations";
/// Panels visited by the virtualized (tiled) sweep — 0 / absent for
/// full-array runs (mcp/tiled.hpp).
inline constexpr const char* kSolverPanels = "solver.panels";
// Active-panel scheduling (docs/tiling.md "Active panels"): panel visits
// skipped because their SOW column block was clean, the sum over
// iterations of dirty column blocks, and the PanelIo steps the schedule
// avoided (skipped loads/readbacks plus load beats hidden under the
// previous panel's relax sweep). kSolverPanels + kSolverPanelsSkipped is
// the dense visit count I*ceil(n/p)^2, and the charged PanelIo plus
// kSolverPanelIoSaved is the dense formula I*ceil(n/p)^2*(p+3) — both
// pinned exactly (tests/mcp_active_panels_test.cpp).
inline constexpr const char* kSolverPanelsSkipped = "solver.panels_skipped";
inline constexpr const char* kSolverActiveBlocks = "solver.active_blocks";
inline constexpr const char* kSolverPanelIoSaved = "solver.panel_io_saved";
// Multi-destination batching (mcp/batch.hpp): batches launched and the sum
// of their widths (width per launch = kSolverBatchWidth / kSolverBatches).
inline constexpr const char* kSolverBatches = "solver.batches";
inline constexpr const char* kSolverBatchWidth = "solver.batch_width";
// Broadcast plan cache (sim/bus_planes.hpp), recorded per solver run as
// the machine-counter delta spent inside the run.
inline constexpr const char* kPlanCacheHits = "bus.plan_cache.hits";
inline constexpr const char* kPlanCacheMisses = "bus.plan_cache.misses";
// Bus occupancy (utilization profiler): PE bus ports that read a driven
// value vs. total ports, summed over charged bus cycles, plus the
// per-cycle driven-port histogram. Fed from TraceEvent::driven_wires /
// wires — bit-identical across backends (driven flags are pinned).
inline constexpr const char* kBusDrivenWires = "bus.wires.driven";
inline constexpr const char* kBusTotalWires = "bus.wires.total";
inline constexpr const char* kBusDrivenHist = "bus.driven_wires";
// SIMD kernel throughput (sim::plane_kernels::SweepStats): dispatched
// sweeps and plane words covered, recorded per solver run as the
// machine-counter delta.
inline constexpr const char* kSweepDispatches = "simd.sweep.dispatches";
inline constexpr const char* kSweepWords = "simd.sweep.words";
// Convergence telemetry: total changed-vertex observations summed over
// iterations (per-iteration detail lives in the convergence series).
inline constexpr const char* kActiveLanes = "solver.active_lanes";
/// Prefixes completed by a kind/outcome name.
inline constexpr const char* kFaultPrefix = "faults.";
inline constexpr const char* kOutcomePrefix = "solver.outcome.";
inline constexpr const char* kStepPrefix = "steps.";
}  // namespace metric

#define PPA_OBS_CONCAT_INNER(a, b) a##b
#define PPA_OBS_CONCAT(a, b) PPA_OBS_CONCAT_INNER(a, b)

/// Scoped phase span: PPA_SPAN(collector, "relax_iter", &machine) opens a
/// span that closes at end of scope. `collector` may be null.
#define PPA_SPAN(collector, ...) \
  const ::ppa::obs::Collector::Span PPA_OBS_CONCAT(ppa_span_, __LINE__) = \
      ::ppa::obs::open_span((collector), __VA_ARGS__)

}  // namespace ppa::obs
