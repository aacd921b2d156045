#include "mcp/relax_core.hpp"

#include <algorithm>

#include "mcp/tiled.hpp"
#include "mcp/verify.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"

namespace ppa::mcp::detail {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;

Pint scheme_broadcast(const Pint& value, Direction dir, const Pbool& open,
                      BroadcastScheme scheme) {
  return scheme == BroadcastScheme::TwoSidedLinear
             ? ppc::two_sided_broadcast(value, dir, open)
             : ppc::broadcast(value, dir, open);
}

void panel_candidates(const Pint& W, const Pbool& carrier_row, BroadcastScheme scheme,
                      Pint& sow) {
  sow = scheme_broadcast(sow, Direction::South, carrier_row, scheme) + W;
}

void panel_row_reduce(const Pint& index, const Pbool& row_end, MinVariant variant,
                      const Pint& sow, Pint& min_sow, Pint& ptn) {
  const bool paper = variant == MinVariant::Paper;
  min_sow = paper ? ppc::pmin(sow, Direction::West, row_end)
                  : ppc::pmin_orprobe(sow, Direction::West, row_end);
  const Pbool is_min = min_sow == sow;
  ptn = paper ? ppc::selected_min(index, Direction::West, row_end, is_min)
              : ppc::selected_min_orprobe(index, Direction::West, row_end, is_min);
}

McpVisit::McpVisit(ppc::Context& ctx, const graph::WeightMatrix& graph, BroadcastScheme scheme)
    : ctx_(ctx),
      machine_(ctx.machine()),
      n_(graph.size()),
      p_(ctx.machine().n()),
      blocks_((n_ + p_ - 1) / p_),
      inf_(graph.infinity()),
      scheme_(scheme),
      col_(ppc::col_of(ctx)),
      carrier_(ppc::row_of(ctx) == sim::Word{0}),
      not_carrier_(!carrier_),
      row_end_(col_ == static_cast<sim::Word>(p_ - 1)),
      panels_(weight_images(ctx, graph)),
      fragment_(ctx, n_) {}

void McpVisit::exhausted(const SweepLane<Cell>& lane) {
  machine_.report_fault(sim::FaultEvent{sim::FaultEventKind::NonConvergence,
                                        sim::StepCategory::Alu, Direction::North,
                                        lane.destination, lane.destination, lane.iterations});
}

const ppc::PanelImage& McpVisit::fragment(const SweepLane<Cell>& lane, std::size_t bj) {
  return fragment_.pack(bj, inf_, [&](std::size_t gj) { return lane.state[gj].min; });
}

void McpVisit::load_weights(std::size_t bi, std::size_t bj) {
  w_.emplace(ctx_, panels_[bi * blocks_ + bj]);
}

void McpVisit::candidates(Pint& sow) const {
  ppc::where(ctx_, not_carrier_, [&] { panel_candidates(*w_, carrier_, scheme_, sow); });
  ppc::where(ctx_, carrier_, [&] { sow = sow + *w_; });
}

SweepConfig mcp_sweep_config(const sim::Machine& machine, const graph::WeightMatrix& graph,
                             const Options& options) {
  SweepConfig config;
  config.n = graph.size();
  config.p = machine.n();
  config.iteration_cap = options.max_iterations != 0 ? options.max_iterations : config.n + 2;
  config.active = options.active_panels;
  config.record_iterations = options.record_iterations;
  config.observer = options.observer;
  return config;
}

std::vector<SweepLane<MinArg>> mcp_lanes(const graph::WeightMatrix& graph,
                                         const std::vector<graph::Vertex>& destinations) {
  const std::size_t n = graph.size();
  std::vector<SweepLane<MinArg>> lanes(destinations.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const graph::Vertex d = destinations[k];
    SweepLane<MinArg>& lane = lanes[k];
    lane.destination = d;
    lane.state.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      lane.state[i] = MinArg{i == d ? sim::Word{0} : graph.at(i, d), static_cast<sim::Word>(d)};
    }
  }
  return lanes;
}

Result mcp_lane_result(SweepLane<MinArg>& lane, const sim::StepCounter& init_steps) {
  Result result;
  result.solution.destination = lane.destination;
  result.solution.cost.resize(lane.state.size());
  result.solution.next.resize(lane.state.size());
  for (std::size_t i = 0; i < lane.state.size(); ++i) {
    result.solution.cost[i] = lane.state[i].min;
    result.solution.next[i] = lane.state[i].arg;
  }
  result.iterations = lane.iterations;
  result.iteration_trace = std::move(lane.trace);
  result.init_steps = init_steps;
  if (!lane.converged) result.outcome = SolveOutcome::NonConverged;
  return result;
}

ScopedSink::ScopedSink(sim::Machine& machine, obs::Collector* observer)
    : machine_(machine), previous_(machine.trace()) {
  if (observer != nullptr && previous_ == nullptr) machine_.set_trace(observer);
}

ScopedSink::~ScopedSink() { machine_.set_trace(previous_); }

namespace {

/// Records the machine's broadcast-plan-cache hit/miss delta since `entry`
/// as the observer's bus.plan_cache.* counters. Once per solver call, so
/// the merged all-pairs metrics stay worker-count independent.
void record_plan_cache_delta(const sim::Machine& machine,
                             sim::Machine::PlanCacheStats entry, obs::Collector& observer) {
  const sim::Machine::PlanCacheStats now = machine.plan_cache_stats();
  obs::MetricsRegistry& metrics = observer.metrics();
  metrics.counter(obs::metric::kPlanCacheHits).add(now.hits - entry.hits);
  metrics.counter(obs::metric::kPlanCacheMisses).add(now.misses - entry.misses);
}

/// Records the kernel-sweep billing delta as the simd.sweep.* counters.
void record_throughput_delta(const sim::Machine& machine,
                             const sim::plane_kernels::SweepStats& sweeps_at_entry,
                             obs::Collector& observer) {
  obs::MetricsRegistry& metrics = observer.metrics();
  const sim::plane_kernels::SweepStats delta = machine.sweep_stats().since(sweeps_at_entry);
  metrics.counter(obs::metric::kSweepDispatches).add(delta.dispatches);
  metrics.counter(obs::metric::kSweepWords).add(delta.words);
}

}  // namespace

sim::MachineConfig solver_machine_config(const graph::WeightMatrix& graph,
                                         const Options& options) {
  sim::MachineConfig config;
  config.n = effective_array_side(options, graph.size());
  config.bits = graph.field().bits();
  config.backend = options.backend;
  config.checked = options.checked || !options.faults.empty();
  config.masking = masking_of(options.recovery);
  return config;
}

SolveScope::SolveScope(sim::Machine& machine, const Options& options, std::string_view span,
                       std::int64_t span_value)
    : machine_(machine),
      options_(options),
      sink_(machine, options.observer),
      span_(obs::open_span(options.observer, span, &machine, span_value)),
      at_entry_(machine.steps()),
      faults_at_entry_(machine.fault_count()),
      plans_at_entry_(machine.plan_cache_stats()),
      masking_at_entry_(machine.masking_stats()),
      sweeps_at_entry_(machine.sweep_stats()) {}

void SolveScope::settle(const graph::WeightMatrix& graph, std::span<Result> results) {
  obs::Collector* const observer = options_.observer;
  const sim::StepCounter total = steps();
  const sim::MaskingStats masking = machine_.masking_stats().since(masking_at_entry_);
  if (observer != nullptr) {
    record_plan_cache_delta(machine_, plans_at_entry_, *observer);
    record_throughput_delta(machine_, sweeps_at_entry_, *observer);
    if (masking.votes != 0) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.counter(obs::metric::kMaskVotes).add(masking.votes);
      metrics.counter(obs::metric::kMaskCorrections).add(masking.corrections);
      metrics.counter(obs::metric::kMaskUncorrectable).add(masking.uncorrectable);
    }
  }
  // This call's checked-execution diagnostics (delta of the machine's
  // capped fault log), harvested before any certificate verdict adds its
  // own event.
  const std::vector<sim::FaultEvent>& log = machine_.fault_events();
  const std::vector<sim::FaultEvent> events(
      log.begin() + static_cast<std::ptrdiff_t>(std::min(faults_at_entry_, log.size())),
      log.end());
  const bool machine_faulted = machine_.fault_count() > faults_at_entry_;

  for (Result& result : results) {
    const graph::Vertex destination = result.solution.destination;
    result.total_steps = total;
    result.masking = masking;
    for (const sim::FaultEvent& event : events) {
      if (event.kind == sim::FaultEventKind::NonConvergence && event.row != destination) {
        continue;
      }
      result.fault_events.push_back(event);
    }

    if (result.outcome != SolveOutcome::NonConverged) {
      if (options_.verify) {
        PPA_SPAN(observer, "verify", &machine_);
        const CertificateReport report = check_certificate(graph, result.solution);
        if (report.ok) {
          result.outcome = SolveOutcome::Verified;
        } else {
          result.outcome = SolveOutcome::VerificationFailed;
          result.verify_detail = report.detail;
          const sim::FaultEvent event{sim::FaultEventKind::VerificationFailed,
                                      sim::StepCategory::Alu, sim::Direction::North,
                                      destination, destination, 1};
          machine_.report_fault(event);
          result.fault_events.push_back(event);
        }
      } else if (machine_faulted || masking.uncorrectable > 0) {
        result.outcome = SolveOutcome::HardwareFault;
      } else if (masking.corrections > 0) {
        result.outcome = SolveOutcome::MaskedFaults;
      }
    }

    if (observer != nullptr) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.counter(obs::metric::kSolverRuns).add(1);
      metrics.counter(obs::metric::kSolverIterations).add(result.iterations);
      metrics.counter(std::string(obs::metric::kOutcomePrefix) + name_of(result.outcome))
          .add(1);
    }
  }
}

std::vector<Result> hardware_fault_results(const sim::Machine& machine,
                                           const graph::WeightMatrix& graph,
                                           const std::vector<graph::Vertex>& destinations,
                                           std::size_t faults_at_entry) {
  const std::vector<sim::FaultEvent>& log = machine.fault_events();
  std::vector<sim::FaultEvent> events;
  for (std::size_t i = faults_at_entry; i < log.size(); ++i) events.push_back(log[i]);
  if (events.empty()) {
    events.push_back(sim::FaultEvent{sim::FaultEventKind::UndrivenRead, sim::StepCategory::Alu,
                                     sim::Direction::North, 0, 0, 1});
  }
  std::vector<Result> results(destinations.size());
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    Result& result = results[i];
    result.outcome = SolveOutcome::HardwareFault;
    result.solution.destination = destinations[i];
    result.solution.cost.assign(graph.size(), graph.infinity());
    result.solution.next.assign(graph.size(), destinations[i]);
    result.fault_events = events;
  }
  return results;
}

Result recover(const sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
               const graph::WeightMatrix& graph, Result first, const Options& options) {
  Result result = std::move(first);
  const graph::Vertex destination = result.solution.destination;
  std::vector<sim::FaultEvent> events = std::move(result.fault_events);
  sim::StepCounter spent = result.total_steps;
  sim::MaskingStats masked = result.masking;
  std::size_t attempts = 1;

  while (retry_allowed(options.recovery) && retriable(result.outcome) &&
         attempts <= options.max_retries) {
    if (!oracle) {
      sim::MachineConfig config;
      config.n = machine.config().n;
      config.bits = graph.field().bits();
      config.topology = machine.config().topology;
      config.backend = sim::ExecBackend::Words;  // the fault-free oracle
      oracle = std::make_unique<sim::Machine>(config);
    }
    if (options.observer != nullptr) {
      options.observer->metrics().counter(obs::metric::kSolverRetries).add(1);
    }
    PPA_SPAN(options.observer, "retry", oracle.get(), static_cast<std::int64_t>(attempts));
    result = run_minimum_cost_path(*oracle, graph, destination, options);
    ++attempts;
    events.insert(events.end(), result.fault_events.begin(), result.fault_events.end());
    spent.merge(result.total_steps);
    masked.merge(result.masking);
  }

  if (attempts > 1 && result.outcome == SolveOutcome::Verified &&
      options.observer != nullptr) {
    // The retry loop turned a failed row into a verified one.
    options.observer->metrics().counter(obs::metric::kSolverRecoveredRows).add(1);
  }
  result.fault_events = std::move(events);
  result.total_steps = spent;
  result.attempts = attempts;
  result.masking = masked;
  return result;
}

}  // namespace ppa::mcp::detail
