// Shared pieces of the measuring program: metric maps, order statistics and
// the benchmark-side span recorder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metric name -> value; ordered so every document lists metrics alike.
using Metrics = std::map<std::string, Metric>;

/// Median of a sample (the mean of the middle pair for even sizes).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile q in [0, 100] of a sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// The highest whole percentile that leaves at least `beyond` samples above
/// it: floor(100 * (count - beyond) / count), or 50 for small samples.
[[nodiscard]] inline int tail_percentile(std::size_t count, std::size_t beyond = 10) {
  if (count <= 2 * beyond) return 50;
  return static_cast<int>((100 * (count - beyond)) / count);
}

/// Benchmark-side tracing: one span per call the benchmark makes into a
/// layer. Spans of one request share its id; `parent` indexes the span that
/// was open when this one started. Kept in memory and written at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t request = -1;
    std::int64_t parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Opens a span that closes when the returned scope ends. A null tracer
  /// gives an inert scope, so untraced code paths need no branches.
  static Scope open(Tracer* tracer, std::string_view name, std::int64_t request) {
    if (tracer == nullptr) return Scope(nullptr, 0);
    Span span;
    span.name = std::string(name);
    span.request = request;
    span.parent = tracer->stack_.empty() ? -1 : static_cast<std::int64_t>(tracer->stack_.back());
    span.start_s = tracer->now();
    tracer->spans_.push_back(std::move(span));
    tracer->stack_.push_back(tracer->spans_.size() - 1);
    return Scope(tracer, tracer->spans_.size() - 1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  void write_json(std::ostream& out) const;

 private:
  [[nodiscard]] double now() const { return seconds_since(epoch_); }
  void close(std::size_t index) {
    spans_[index].end_s = now();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Times `call` in batches of `batch` calls until `budget_s` has passed (and
/// at least `min_batches` batches ran); returns the median batch's seconds
/// per call.
template <typename Call>
[[nodiscard]] double time_per_call(Call&& call, std::size_t batch, double budget_s,
                                   std::size_t min_batches = 5) {
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  while (per_call.size() < min_batches || seconds_since(start) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    per_call.push_back(seconds_since(t0) / static_cast<double>(batch));
  }
  return median(std::move(per_call));
}

}  // namespace perfbench
