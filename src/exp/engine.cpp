#include "exp/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "util/parallel.hpp"

namespace pf::exp {
namespace {

using Clock = std::chrono::steady_clock;

/// Whether a case budget of `timeout_seconds` (0 = none) has run out
/// since `start`. Compared in double seconds: converting a huge budget
/// to the clock's integer ticks would overflow.
bool expired(Clock::time_point start, double timeout_seconds) {
  return timeout_seconds > 0.0 &&
         std::chrono::duration<double>(Clock::now() - start).count() >=
             timeout_seconds;
}

/// Rewinds `net` to `load`, folding the reset's wall time into the
/// counters — reset cost on many-point sweeps is a first-class perf
/// signal (it used to dominate short measure windows).
void timed_reset(sim::Network& net, double load, SweepCounters& counters) {
  const auto start = std::chrono::steady_clock::now();
  net.reset(load);
  counters.reset_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

/// Runs one point on `net` (already reset to the right load) and folds
/// the network's counters into the record-level aggregates.
RunPoint run_point(sim::Network& net, SweepCounters& counters) {
  net.run_phases();
  RunPoint point;
  point.offered = net.offered_load();
  point.accepted = net.accepted_load();
  point.avg_latency = net.avg_latency();
  point.p99_latency = net.p99_latency();
  point.converged = net.converged();
  point.mean_hops = net.mean_hops();
  point.cycles = net.current_cycle();
  point.stalled = net.stalled();
  if (net.workload_active()) {
    point.has_workload = true;
    point.workload_done = net.workload_done();
    point.workload_completion = net.workload_completion_cycles();
    point.workload_lost = net.workload_lost();
    point.workload_phase_cycles = net.workload_phase_cycles();
  }
  if (net.has_faults()) {
    const sim::DegradationStats& d = net.degradation();
    point.has_degradation = true;
    point.dropped = d.dropped;
    point.reinjected = d.reinjected;
    point.rerouted = d.rerouted;
    point.unreachable_dropped = d.unreachable_dropped;
    point.unreachable_pairs = net.unreachable_pairs();
    point.reconvergence = d.reconvergence;
  }
  if (net.telemetry_enabled()) {
    point.telemetry = net.collect_telemetry();
    counters.telemetry.merge(point.telemetry);
  }
  counters.hops += net.measured_hops();
  counters.delivered += net.delivered_packets();
  counters.peak_vc = std::max(counters.peak_vc, net.peak_vc_packets());
  counters.warmup_seconds += net.warmup_seconds();
  counters.measure_seconds += net.measure_seconds();
  counters.drain_seconds += net.drain_seconds();
  return point;
}

}  // namespace

RunRecord prepare_sweep_record(const NetSetup& setup,
                               const sim::RoutingAlgorithm& routing,
                               const sim::TrafficPattern& pattern,
                               const sim::SimConfig& config,
                               std::size_t num_points,
                               const std::string& label,
                               const sim::Workload* workload) {
  RunRecord record;
  record.label = label;
  record.topology = setup.name;
  record.routing = routing.name();
  record.pattern = workload != nullptr ? workload->name() : pattern.name();
  record.routers = setup.graph.num_vertices();
  record.terminals = pattern.num_terminals();
  record.seed = config.seed;
  record.points.resize(num_points);
  return record;
}

void run_sweep_claimed(const NetSetup& setup,
                       const sim::RoutingAlgorithm& routing,
                       const sim::TrafficPattern& pattern,
                       const sim::SimConfig& config,
                       const std::vector<double>& loads,
                       const std::function<std::size_t()>& claim,
                       std::vector<RunPoint>& points,
                       SweepCounters& counters, double timeout_seconds,
                       const sim::Workload* workload) {
  std::size_t i = claim();
  if (i >= loads.size()) return;
  const auto start = Clock::now();
  sim::Network net(setup.graph, setup.endpoints, routing, pattern, config,
                   loads[i], workload);
  bool first = true;
  while (i < loads.size()) {
    // Progress guarantee: the first claimed point always runs, later
    // ones are abandoned once the per-case budget is spent (they stay
    // claimed, left at their zero defaults — the record is stamped
    // "timeout" either way).
    if (!first && expired(start, timeout_seconds)) {
      counters.timed_out = true;
      return;
    }
    if (!first) timed_reset(net, loads[i], counters);
    points[i] = run_point(net, counters);
    first = false;
    i = claim();
  }
}

void finish_sweep_record(RunRecord& record, const SweepCounters& counters,
                         double wall_seconds) {
  for (const auto& point : record.points) {
    record.perf.sim_cycles += point.cycles;
  }
  record.perf.wall_seconds = wall_seconds;
  record.perf.cycles_per_sec =
      wall_seconds > 0.0
          ? static_cast<double>(record.perf.sim_cycles) / wall_seconds
          : 0.0;
  record.perf.mean_hop_count =
      counters.delivered > 0
          ? static_cast<double>(counters.hops) /
                static_cast<double>(counters.delivered)
          : 0.0;
  record.perf.peak_vc_occupancy = counters.peak_vc;
  record.perf.reset_seconds = counters.reset_seconds;
  record.perf.warmup_seconds = counters.warmup_seconds;
  record.perf.measure_seconds = counters.measure_seconds;
  record.perf.drain_seconds = counters.drain_seconds;
  record.telemetry = counters.telemetry;
  if (record.status.empty()) {
    if (counters.timed_out) {
      record.status = "timeout";
    } else {
      for (const auto& point : record.points) {
        if (point.stalled) {
          record.status = "stalled";
          break;
        }
      }
    }
  }
}

double RunRecord::saturation() const {
  double best = 0.0;
  for (const auto& point : points) best = std::max(best, point.accepted);
  return best;
}

RunRecord run_sweep(const NetSetup& setup,
                    const sim::RoutingAlgorithm& routing,
                    const sim::TrafficPattern& pattern,
                    const sim::SimConfig& config,
                    const std::vector<double>& loads,
                    const std::string& label, double timeout_seconds,
                    const sim::Workload* workload) {
  RunRecord record = prepare_sweep_record(setup, routing, pattern, config,
                                          loads.size(), label, workload);

  // One Network per worker, rewound between the points it claims:
  // loads.size() simulations share max `workers` channel-index
  // constructions, and a reset network is bit-identical to a fresh one.
  const std::size_t workers =
      std::min<std::size_t>(loads.size(),
                            util::ThreadPool::shared().num_threads());
  std::vector<SweepCounters> counters(workers);
  std::atomic<std::size_t> next_point{0};

  const auto start = std::chrono::steady_clock::now();
  util::parallel_for(0, workers, [&](std::size_t w) {
    run_sweep_claimed(setup, routing, pattern, config, loads,
                      [&next_point] { return next_point.fetch_add(1); },
                      record.points, counters[w], timeout_seconds, workload);
  });
  const auto stop = std::chrono::steady_clock::now();

  SweepCounters total;
  for (const SweepCounters& c : counters) total += c;
  finish_sweep_record(record, total,
                      std::chrono::duration<double>(stop - start).count());
  return record;
}

RunRecord run_sweep(const Scenario& scenario,
                    const std::vector<double>& loads,
                    double timeout_seconds) {
  return run_sweep(*scenario.setup, *scenario.routing, *scenario.pattern,
                   scenario.config, loads, scenario.label, timeout_seconds,
                   scenario.workload.get());
}

RunRecord saturation_search(const NetSetup& setup,
                            const sim::RoutingAlgorithm& routing,
                            const sim::TrafficPattern& pattern,
                            const sim::SimConfig& config,
                            const std::string& label, double lo, double hi,
                            double tol, int max_iters,
                            double timeout_seconds) {
  RunRecord record =
      prepare_sweep_record(setup, routing, pattern, config, 0, label);
  SweepCounters counters;

  const auto start = Clock::now();
  const auto out_of_time = [&] {
    if (!expired(start, timeout_seconds)) return false;
    counters.timed_out = true;
    return true;
  };
  sim::Network net(setup.graph, setup.endpoints, routing, pattern, config,
                   hi);
  // By value: points reallocates as probes accumulate, so references
  // into it would dangle across probe() calls.
  const auto probe = [&](double load) -> RunPoint {
    timed_reset(net, load, counters);
    record.points.push_back(run_point(net, counters));
    return record.points.back();
  };
  const auto stable = [tol](const RunPoint& point) {
    return point.accepted >= point.offered - tol;
  };

  // Bracket: if even `hi` is stable the plateau is above the bracket; if
  // `lo` is not, it is below. Either way the nearest probe reports it.
  const RunPoint top = probe(hi);
  if (stable(top)) {
    record.saturation_estimate = top.accepted;
  } else if (out_of_time()) {
    // Budget spent after one probe: report the best reading we have.
    record.saturation_estimate = top.accepted;
  } else {
    const RunPoint bottom = probe(lo);
    if (!stable(bottom)) {
      record.saturation_estimate = bottom.accepted;
    } else {
      double stable_lo = lo, unstable_hi = hi;
      double plateau = bottom.accepted;
      for (int i = 0; i < max_iters && unstable_hi - stable_lo > tol &&
                      !out_of_time();
           ++i) {
        const double mid = 0.5 * (stable_lo + unstable_hi);
        const RunPoint point = probe(mid);
        if (stable(point)) {
          stable_lo = mid;
          plateau = point.accepted;
        } else {
          unstable_hi = mid;
          // Past saturation accepted load IS the plateau estimate; keep
          // the larger of the two readings.
          plateau = std::max(plateau, point.accepted);
        }
      }
      record.saturation_estimate = plateau;
    }
  }
  const auto stop = std::chrono::steady_clock::now();

  finish_sweep_record(record, counters,
                      std::chrono::duration<double>(stop - start).count());
  return record;
}

RunRecord saturation_search(const Scenario& scenario, double lo, double hi,
                            double tol, int max_iters,
                            double timeout_seconds) {
  if (scenario.workload) {
    throw std::invalid_argument(
        "saturation_search: workload scenarios have no accepted-load "
        "plateau to bisect (workload '" + scenario.workload->name() +
        "'); sweep fixed loads instead");
  }
  return saturation_search(*scenario.setup, *scenario.routing,
                           *scenario.pattern, scenario.config,
                           scenario.label, lo, hi, tol, max_iters,
                           timeout_seconds);
}

}  // namespace pf::exp
