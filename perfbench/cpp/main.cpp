// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// With --trace 0 it sets the workload up several times (set-up time is the
// median), then sends requests from one closed-loop client for --seconds
// and reports the end-to-end metrics. With --trace 1 it runs the layer
// probes, then alternates untraced and traced passes over the same requests
// (an obs::Collector per request plus benchmark-side spans around every
// call into a layer) and reports the per-layer metrics. Either way it
// prints one JSON document on the last line of standard output; run.py
// builds this program, adds the host fingerprint and prints the summary.
#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "obs/json.hpp"
#include "probes.hpp"
#include "sim/plane_kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ppa;

constexpr int kSetupRepeats = 5;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

/// What a run reports: the result line's fields plus detail for the
/// result document.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::map<std::string, double> detail;
  std::vector<std::string> mismatches;

  void count(const Outcome& outcome) {
    ++attempted;
    if (!outcome.ok) {
      ++failed;
      mismatches.push_back(outcome.detail);
    }
  }
};

/// Admits whole passes over the request list: always the first, then each
/// next one while the longest pass so far still fits in the window, which
/// starts with the first pass.
class PassWindow {
 public:
  explicit PassWindow(double seconds) : seconds_(seconds) {}

  /// Called before each pass; true when it should run.
  bool admit() {
    const Clock::time_point now = Clock::now();
    if (passes_++ == 0) {
      start_ = last_ = now;
      return true;
    }
    longest_ = std::max(longest_, std::chrono::duration<double>(now - last_).count());
    last_ = now;
    return std::chrono::duration<double>(now - start_).count() + longest_ <= seconds_;
  }

 private:
  double seconds_;
  std::size_t passes_ = 0;
  double longest_ = 0;
  Clock::time_point start_;
  Clock::time_point last_;
};

/// Starts the window of peak_rss_mb: hands freed heap back to the kernel and
/// resets the process's resident high-water mark to its current size, so
/// the peak read later is that of the requests, not of set-up. False when
/// the kernel refuses the reset.
bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Peak resident memory in MiB since reset_peak_rss (VmHWM); the whole
/// process's peak when /proc/self/status cannot be read.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Per-request latencies over the passes of a run; the timing metrics are
/// taken over requests. A shared host runs a thread at two speeds, switching
/// every few seconds (the slow one about 1.7x the fast one), and the share of
/// time at each drifts over minutes. A single-threaded request's latency is
/// therefore the fastest of its repeats, which are spread over the whole run:
/// a median or mean would follow the drifting share, while the fastest repeat
/// reads the program at the fast speed in any run that meets it. A request
/// that runs on several threads at once ends with its slowest thread, and all
/// of them are rarely fast together, so its fastest repeat is a rare
/// coincidence; its latency is the median of its repeats, which is nearly
/// always the slow case.
class Latencies {
 public:
  Latencies(std::size_t requests, bool threaded) : samples_(requests), threaded_(threaded) {}

  void add(std::size_t request, double seconds) { samples_[request].push_back(seconds); }

  [[nodiscard]] std::vector<double> per_request() const {
    std::vector<double> out;
    for (const std::vector<double>& repeats : samples_) {
      out.push_back(threaded_ ? median(repeats)
                              : *std::min_element(repeats.begin(), repeats.end()));
    }
    return out;
  }
  [[nodiscard]] double total() const {
    double sum = 0;
    for (const double s : per_request()) sum += s;
    return sum;
  }

 private:
  std::vector<std::vector<double>> samples_;
  bool threaded_;
};

void run_untraced(const Args& args, Report& report) {
  const Workload& w = *args.workload;
  std::vector<double> setup_s;
  std::optional<Instance> inst;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    Instance next = set_up(w, args.seed, nullptr);
    setup_s.push_back(seconds_since(start));
    if (!inst) inst.emplace(std::move(next));
  }
  // Each set-up check (oracle, differential run, warm-up) is one attempt.
  report.attempted += inst->checks;
  report.failed += inst->checks_failed;
  report.mismatches = inst->mismatches;

  // One closed-loop client making whole passes over the request list; the
  // first pass fixes the exact step count.
  const bool rss_reset = reset_peak_rss();
  if (!rss_reset) std::fprintf(stderr, "warning: peak_rss_mb includes set-up (no VmHWM reset)\n");
  Latencies latency(w.requests(), w.workers > 1);
  std::uint64_t destinations = 0;
  sim::StepCounter steps;
  std::size_t passes = 0;
  std::int64_t request_id = 0;
  PassWindow window(args.seconds);
  for (; window.admit(); ++passes) {
    for (std::size_t i = 0; i < w.requests(); ++i) {
      const Outcome outcome = run_request(w, *inst, i, request_id++, nullptr, nullptr);
      report.count(outcome);
      latency.add(i, outcome.seconds);
      if (passes == 0) {
        steps.merge(outcome.steps);
        destinations += outcome.destinations;
      }
    }
  }

  const int tail = tail_percentile(w.requests());
  Metrics& m = report.metrics;
  m["setup_s"] = {median(setup_s), "s"};
  m["latency_ms_p50"] = {median(latency.per_request()) * 1e3, "ms"};
  m["latency_ms_tail"] = {percentile(latency.per_request(), tail) * 1e3, "ms"};
  m["dest_per_s"] = {static_cast<double>(destinations) / latency.total(), "1/s"};
  m["simd_steps"] = {static_cast<double>(steps.total()) / static_cast<double>(destinations),
                     "count"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  report.detail["latency_tail_percentile"] = tail;
  report.detail["latency_samples"] = static_cast<double>(w.requests());
  report.detail["passes"] = static_cast<double>(passes);
  report.detail["deep_share"] = inst->deep_share;
  report.detail["peak_rss_requests_only"] = rss_reset ? 1 : 0;
  report.detail["failed_frac"] =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
}

/// Sums over the traced requests of one run.
struct TracedTotals {
  obs::WallProfile profile;
  double solve_s = 0;
  std::uint64_t destinations = 0;
  double panel_load_s = 0;
  double panel_relax_s = 0;
  std::uint64_t planes = 0;       // bus.plane_width histogram sum
  std::uint64_t bus_cycles = 0;   // ... and count
  // Exact counts, from the first traced pass only.
  sim::StepCounter steps;
  std::uint64_t exact_destinations = 0;
  std::uint64_t iterations = 0;
  std::uint64_t panels_visited = 0;
  std::uint64_t panels_skipped = 0;
  std::uint64_t panel_io_saved = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
};

std::uint64_t counter_of(const obs::Collector& c, const char* name) {
  const auto it = c.metrics().counters().find(name);
  return it == c.metrics().counters().end() ? 0 : it->second.value();
}

void add_traced(const Outcome& outcome, const obs::Collector& c, bool first_pass,
                TracedTotals& t) {
  t.profile.merge(c.profile());
  t.solve_s += outcome.seconds;
  t.destinations += outcome.destinations;
  for (const obs::SpanRecord& span : c.spans()) {
    if (span.name == "panel_load") t.panel_load_s += span.duration_seconds;
    if (span.name == "panel_relax") t.panel_relax_s += span.duration_seconds;
  }
  const auto& histograms = c.metrics().histograms();
  if (const auto it = histograms.find(obs::metric::kBusPlaneWidth); it != histograms.end()) {
    t.planes += it->second.sum();
    t.bus_cycles += it->second.count();
  }
  if (!first_pass) return;
  t.steps.merge(outcome.steps);
  t.exact_destinations += outcome.destinations;
  t.iterations += outcome.iterations;
  t.panels_visited += outcome.panels_visited + counter_of(c, obs::metric::kSolverPanels);
  t.panels_skipped += outcome.panels_skipped + counter_of(c, obs::metric::kSolverPanelsSkipped);
  t.panel_io_saved += outcome.panel_io_saved + counter_of(c, obs::metric::kSolverPanelIoSaved);
  t.plan_hits += outcome.plan_hits + counter_of(c, obs::metric::kPlanCacheHits);
  t.plan_misses += outcome.plan_misses + counter_of(c, obs::metric::kPlanCacheMisses);
}

void run_traced(const Args& args, Report& report) {
  const Workload& w = *args.workload;
  Tracer tracer;
  Metrics& m = report.metrics;

  std::vector<double> gen_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto span = Tracer::open(&tracer, "graph.generate", -1);
    const Clock::time_point start = Clock::now();
    const std::vector<graph::WeightMatrix> graphs = generate(w, args.seed);
    gen_s.push_back(seconds_since(start));
  }
  m["graph.gen_ms"] = {median(gen_s) * 1e3, "ms"};

  const Instance inst = [&] {
    const auto span = Tracer::open(&tracer, "setup", -1);
    return set_up(w, args.seed, &tracer);
  }();
  report.attempted += inst.checks;
  report.failed += inst.checks_failed;
  report.mismatches = inst.mismatches;

  std::vector<std::string> probe_mismatches;
  run_probes(w, inst, &tracer, m, probe_mismatches);

  // Alternate untraced and traced passes over the same requests; the
  // difference between their walls is the observer's cost.
  TracedTotals t;
  Latencies untraced(w.requests(), w.workers > 1), traced(w.requests(), w.workers > 1);
  std::int64_t request_id = 0;
  PassWindow window(args.seconds);
  for (std::size_t pass = 0; window.admit(); ++pass) {
    for (std::size_t i = 0; i < w.requests(); ++i) {
      const Outcome outcome = run_request(w, inst, i, request_id++, nullptr, nullptr);
      report.count(outcome);
      untraced.add(i, outcome.seconds);
    }
    for (std::size_t i = 0; i < w.requests(); ++i) {
      const std::int64_t id = request_id++;
      const auto span = Tracer::open(&tracer, "request", id);
      obs::Collector collector;
      const Outcome outcome = run_request(w, inst, i, id, &collector, &tracer);
      report.count(outcome);
      traced.add(i, outcome.seconds);
      add_traced(outcome, collector, pass == 0, t);
    }
  }

  run_scaling(args.seed, &tracer, m, probe_mismatches);
  report.attempted += 1;  // the probe suite's checks, as one attempt
  if (!probe_mismatches.empty()) {
    ++report.failed;
    report.mismatches.insert(report.mismatches.end(), probe_mismatches.begin(),
                             probe_mismatches.end());
  }

  const double dests = static_cast<double>(t.exact_destinations);
  const auto per_dest = [&](double value) { return value / dests; };
  const auto steps = [&](sim::StepCategory c) {
    return per_dest(static_cast<double>(t.steps.count(c)));
  };
  m["sim.steps.alu"] = {steps(sim::StepCategory::Alu), "count"};
  m["sim.steps.bus_bcast"] = {steps(sim::StepCategory::BusBroadcast), "count"};
  m["sim.steps.bus_or"] = {steps(sim::StepCategory::BusOr), "count"};
  m["sim.steps.global_or"] = {steps(sim::StepCategory::GlobalOr), "count"};
  m["sim.steps.panel_io"] = {steps(sim::StepCategory::PanelIo), "count"};
  m["mcp.iterations"] = {per_dest(static_cast<double>(t.iterations)), "count"};
  m["mcp.panels_visited"] = {per_dest(static_cast<double>(t.panels_visited)), "count"};
  m["mcp.panels_skipped"] = {per_dest(static_cast<double>(t.panels_skipped)), "count"};
  m["mcp.panel_io_saved"] = {per_dest(static_cast<double>(t.panel_io_saved)), "count"};

  // Wall shares are of the requests' host thread time: all-pairs lanes
  // profile their destinations in parallel, and a pool of k workers runs
  // k + 1 lanes (the caller takes a share).
  const double lanes = w.workers > 1 ? static_cast<double>(w.workers + 1) : 1;
  const double thread_s = t.solve_s * lanes;
  const auto share = [&](sim::StepCategory c) {
    return t.profile.seconds[static_cast<std::size_t>(c)] / thread_s;
  };
  double profiled_s = 0;
  for (const double s : t.profile.seconds) profiled_s += s;
  m["sim.wall_frac.alu"] = {share(sim::StepCategory::Alu), "ratio"};
  m["sim.wall_frac.bus_bcast"] = {share(sim::StepCategory::BusBroadcast), "ratio"};
  m["sim.wall_frac.bus_or"] = {share(sim::StepCategory::BusOr), "ratio"};
  m["sim.wall_frac.panel_io"] = {share(sim::StepCategory::PanelIo), "ratio"};
  m["mcp.host_self_frac"] = {1 - profiled_s / thread_s, "ratio"};
  const auto bcast_events = static_cast<double>(
      t.profile.events[static_cast<std::size_t>(sim::StepCategory::BusBroadcast)]);
  m["sim.bcast.in_solve_ns_per_cycle"] = {
      bcast_events == 0
          ? 0
          : t.profile.seconds[static_cast<std::size_t>(sim::StepCategory::BusBroadcast)] * 1e9 /
                bcast_events,
      "ns"};
  const double lookups = static_cast<double>(t.plan_hits + t.plan_misses);
  m["sim.plan_cache.hit_ratio"] = {lookups == 0 ? 0 : static_cast<double>(t.plan_hits) / lookups,
                                   "ratio"};
  m["sim.plan_cache.lookups"] = {per_dest(lookups), "count"};
  m["sim.planes_per_cycle_mean"] = {
      t.bus_cycles == 0 ? 0 : static_cast<double>(t.planes) / static_cast<double>(t.bus_cycles),
      "count"};
  const double traced_dests = static_cast<double>(t.destinations);
  m["mcp.panel_load_ms"] = {t.panel_load_s * 1e3 / traced_dests, "ms"};
  m["mcp.panel_relax_ms"] = {t.panel_relax_s * 1e3 / traced_dests, "ms"};
  m["obs.overhead_frac"] = {traced.total() / untraced.total() - 1, "ratio"};

  double dijkstra_s = 0;
  for (const double s : inst.dijkstra_s) dijkstra_s += s;
  const double dijkstra_destinations =
      static_cast<double>(w.kind == Kind::AllPairs ? w.n * w.requests() : w.requests());
  m["baseline.dijkstra_us"] = {dijkstra_s * 1e6 / dijkstra_destinations, "us"};
  std::vector<double> host_relative = untraced.per_request();
  for (std::size_t i = 0; i < w.requests(); ++i) host_relative[i] /= inst.dijkstra_s[i];
  m["baseline.host_relative"] = {median(host_relative), "ratio"};

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    tracer.write_json(out);
    if (!out) std::fprintf(stderr, "warning: cannot write spans to %s\n", args.spans_path.c_str());
  }
  report.detail["plan_cache_lookups_total"] = lookups;
  report.detail["spans"] = static_cast<double>(tracer.spans().size());
}

bool parse_number(std::string_view text, double& out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    double number = 0;
    if (flag == "--workload") {
      args.workload = find_workload(value);
      if (args.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed" && parse_number(value, number) && number >= 0) {
      args.seed = static_cast<std::uint64_t>(number);
      seen_seed = true;
    } else if (flag == "--seconds" && parse_number(value, number) && number > 0) {
      args.seconds = number;
      seen_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
      seen_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = std::string(value);
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload == nullptr || !seen_seed || !seen_seconds || !seen_trace) {
    return std::nullopt;
  }
  return args;
}

void write_report(const Args& args, const Report& report, std::ostream& out) {
  obs::JsonWriter j(out);
  j.begin_object();
  j.kv("workload", args.workload->name);
  j.kv("seed", args.seed);
  j.kv("trace", args.trace);
  j.key("build");
  j.begin_object();
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("compiler", PERFBENCH_COMPILER);
  j.kv("simd", sim::plane_kernels::variant_name(sim::plane_kernels::active_variant()));
  j.end_object();
  j.kv("correct", report.failed == 0);
  j.kv("attempted", report.attempted);
  j.kv("failed", report.failed);
  j.key("metrics");
  j.begin_object();
  for (const auto& [name, metric] : report.metrics) {
    j.key(name);
    j.begin_object();
    j.kv("value", metric.value);
    j.kv("unit", metric.unit);
    j.end_object();
  }
  j.end_object();
  j.key("detail");
  j.begin_object();
  for (const auto& [name, value] : report.detail) j.kv(name, value);
  j.end_object();
  j.key("mismatches");
  j.begin_array();
  for (const std::string& text : report.mismatches) j.value(text);
  j.end_array();
  j.end_object();
}

}  // namespace

void Tracer::write_json(std::ostream& out) const {
  obs::JsonWriter j(out);
  j.begin_array();
  for (const Span& s : spans_) {
    j.begin_object();
    j.kv("name", s.name);
    j.kv("request", s.request);
    j.kv("parent", s.parent);
    j.kv("start_s", s.start_s);
    j.kv("end_s", s.end_s);
    j.end_object();
  }
  j.end_array();
  out << "\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build (Release required)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <file>]\n");
    return 2;
  }
  Report report;
  try {
    if (args->trace) {
      run_traced(*args, report);
    } else {
      run_untraced(*args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& text : report.mismatches) std::fprintf(stderr, "MISMATCH %s\n", text.c_str());
  std::ostringstream line;
  write_report(*args, report, line);
  std::cout << line.str() << std::endl;
  return 0;
}
