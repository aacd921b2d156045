// Streaming Chrome trace_event exporter.
//
// Writes the JSON-array flavour of the trace_event format (loadable in
// Perfetto / chrome://tracing): one event object per line, streamed to the
// output as it happens, so a trace costs O(nesting depth) memory instead of
// the O(events) a RecordingTrace pays. Implements sim::TraceSink, so it can
// be attached directly to a Machine (every SIMD instruction becomes an
// instant event) or driven through an obs::Collector, which forwards
// instruction events and brackets solver phases as duration events.
//
// Timestamps are microseconds since the writer's construction (its epoch);
// Collector rebases merged span times onto this epoch before exporting.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>

#include "sim/step_counter.hpp"
#include "sim/trace.hpp"

namespace ppa::obs {

/// Namespace-scope (not nested) so it can serve as a defaulted argument
/// below while the writer class is still incomplete.
struct ChromeTraceOptions {
  /// Stream an instant event per SIMD instruction (bulk ALU charges stay
  /// one event). Spans alone make much smaller traces; default on.
  bool instructions = true;
  std::string_view process_name = "ppa";
};

class ChromeTraceWriter final : public sim::TraceSink {
 public:
  using Options = ChromeTraceOptions;

  explicit ChromeTraceWriter(std::ostream& out, const Options& options = {});
  ~ChromeTraceWriter() override;

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  // sim::TraceSink — self-stamped instant events.
  void on_event(const sim::TraceEvent& event) override;
  void on_fault(const sim::FaultEvent& event) override;

  /// Duration-event pair, self-stamped ("B"/"E" phases).
  void begin_span(std::string_view name, std::int64_t arg = -1);
  void end_span(const sim::StepCounter& span_steps);

  /// Complete ("X") duration event with caller-provided times, already in
  /// this writer's epoch — used to export merged span trees post hoc.
  void complete_span(std::string_view name, double start_us, double duration_us,
                     std::uint32_t tid, const sim::StepCounter& span_steps,
                     std::int64_t arg = -1);

  /// Self-stamped counter ("C") sample: Perfetto renders each named series
  /// as a track graph. Used for the per-iteration active-lane telemetry.
  void counter(std::string_view name, double value);

  /// Closes the JSON array; idempotent, called by the destructor. The
  /// output is a valid JSON document from this point on.
  void finish();

  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }
  /// Microseconds from the writer's epoch to `t`.
  [[nodiscard]] double to_epoch_us(std::chrono::steady_clock::time_point t) const noexcept {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

 private:
  [[nodiscard]] double now_us() const noexcept {
    return to_epoch_us(std::chrono::steady_clock::now());
  }
  /// Opens one event object ("," handling + common fields); the caller
  /// appends args and calls close_event().
  void open_event(std::string_view name, char phase, double ts_us, std::uint32_t tid);
  void close_event();
  void write_steps_args(const sim::StepCounter& steps);

  std::ostream& out_;
  Options options_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t events_written_ = 0;
  bool finished_ = false;
};

}  // namespace ppa::obs
