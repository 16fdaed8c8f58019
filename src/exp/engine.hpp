// The sweep engine: runs {topology, routing, traffic} scenarios over
// offered load and returns machine-readable RunRecords with perf
// counters. Sweep points are claimed by workers on the shared thread
// pool; each worker owns ONE Network and rewinds it with Network::reset()
// between its points instead of rebuilding channel indexing per point —
// results are bit-identical to fresh construction either way. The
// adaptive saturation search bisects on the accepted-load plateau as an
// alternative to fixed load grids.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/network.hpp"

namespace pf::exp {

/// One simulated load point.
struct RunPoint {
  double offered = 0.0;
  double accepted = 0.0;
  double avg_latency = 0.0;
  double p99_latency = 0.0;
  bool converged = false;
  double mean_hops = 0.0;     ///< mean hop count of delivered packets
  std::int64_t cycles = 0;    ///< simulated cycles for this point
  /// The progress watchdog terminated this point early.
  bool stalled = false;
  /// Degradation accounting, valid (and serialized) only when the point
  /// ran under a fault timeline.
  bool has_degradation = false;
  std::int64_t dropped = 0;
  std::int64_t reinjected = 0;
  std::int64_t rerouted = 0;
  std::int64_t unreachable_dropped = 0;
  std::int64_t unreachable_pairs = 0;
  /// Per down-event reconvergence time in cycles (-1 = never recovered).
  std::vector<std::int64_t> reconvergence;
  /// Workload completion accounting, valid (and serialized) only when the
  /// point ran a dependency-aware workload instead of Bernoulli traffic.
  /// All integer-exact: pf_sim diff compares them at rtol 0.
  bool has_workload = false;
  bool workload_done = false;          ///< every rank finished every phase
  std::int64_t workload_completion = 0;  ///< completion cycle (budget if not done)
  std::int64_t workload_lost = 0;        ///< packets lost to faults, counted as received
  /// Cycle each phase globally completed, indexed by phase (-1 = never).
  std::vector<std::int64_t> workload_phase_cycles;
  /// Histograms, exact percentiles and congestion series; present (and
  /// serialized) only when the point ran with telemetry enabled.
  sim::PointTelemetry telemetry;

  bool operator==(const RunPoint&) const = default;
};

/// Aggregate performance counters for one record.
struct PerfCounters {
  std::int64_t sim_cycles = 0;   ///< total simulated cycles
  double wall_seconds = 0.0;
  double cycles_per_sec = 0.0;   ///< sim_cycles / wall_seconds
  double mean_hop_count = 0.0;   ///< delivered-weighted over all points
  int peak_vc_occupancy = 0;     ///< deepest single VC ring, in packets
  // Phase wall-clock breakdown, summed over the record's points (plus
  // the case's scenario-resolution time under the suite runner). Wall-
  // clock class like wall_seconds: serialized when nonzero, never
  // compared by pf_sim diff.
  double setup_seconds = 0.0;
  double reset_seconds = 0.0;  ///< Network::reset calls between points
  double warmup_seconds = 0.0;
  double measure_seconds = 0.0;
  double drain_seconds = 0.0;

  /// Any phase time recorded (placeholder records have none).
  bool phase_timed() const {
    return setup_seconds > 0.0 || reset_seconds > 0.0 ||
           warmup_seconds > 0.0 || measure_seconds > 0.0 ||
           drain_seconds > 0.0;
  }
  bool operator==(const PerfCounters&) const = default;
};

/// One sweep (or saturation search) with its provenance and counters.
struct RunRecord {
  std::string label;
  std::string topology;
  std::string routing;
  std::string pattern;
  int routers = 0;
  int terminals = 0;
  std::uint64_t seed = 0;
  /// Seed the traffic pattern was built with; 0 for seedless patterns
  /// (uniform/tornado/bitcomp). Needed to replay seeded permutations.
  std::uint64_t pattern_seed = 0;
  std::vector<RunPoint> points;
  PerfCounters perf;
  /// Record-level telemetry aggregate (integer counters only, so worker
  /// merges are order-independent); present only when telemetry ran.
  sim::RecordTelemetry telemetry;
  /// Set by saturation_search: bisected accepted-load plateau (0 when the
  /// record came from a fixed grid; use saturation() there).
  double saturation_estimate = 0.0;
  /// "" for a normal run; otherwise why the case did not fully run:
  /// "skipped-disconnected" (static damage stranded endpoints), "timeout"
  /// (per-case budget expired), or "stalled" (a point hit the watchdog).
  std::string status;

  /// Largest accepted load over the points (accepted plateaus once
  /// offered load passes saturation).
  double saturation() const;
  bool operator==(const RunRecord&) const = default;
};

// ---- sweep building blocks ----------------------------------------------
//
// run_sweep is composed from three primitives so schedulers above the
// engine (the suite case scheduler) can let workers claim points of
// *different* records side by side on the pool. Point values are
// bit-identical whichever worker claims a point: each point is simulated
// on a Network that is either freshly built or reset(), and reset is
// proven bit-identical to fresh construction.

/// Per-worker accumulator for the record-level perf counters. Every
/// field that feeds a diffed record value merges commutatively and
/// associatively (sums of ints, maxima), so worker merge order cannot
/// change the record; the phase seconds are doubles but wall-clock
/// class (never compared).
struct SweepCounters {
  std::int64_t hops = 0;       ///< measured hops, summed over points
  std::int64_t delivered = 0;  ///< delivered packets, summed over points
  int peak_vc = 0;             ///< deepest single VC ring seen
  bool timed_out = false;      ///< a worker abandoned points on its deadline
  sim::RecordTelemetry telemetry;  ///< merged per-point telemetry
  double reset_seconds = 0.0;      ///< Network::reset wall time per worker
  double warmup_seconds = 0.0;     ///< phase wall time, summed over points
  double measure_seconds = 0.0;
  double drain_seconds = 0.0;

  SweepCounters& operator+=(const SweepCounters& other) {
    hops += other.hops;
    delivered += other.delivered;
    peak_vc = peak_vc > other.peak_vc ? peak_vc : other.peak_vc;
    timed_out = timed_out || other.timed_out;
    telemetry.merge(other.telemetry);
    reset_seconds += other.reset_seconds;
    warmup_seconds += other.warmup_seconds;
    measure_seconds += other.measure_seconds;
    drain_seconds += other.drain_seconds;
    return *this;
  }
};

/// The record shell for a sweep: axes/provenance filled from the
/// scenario, `points` resized to num_points, nothing simulated yet.
/// A non-null `workload` stamps its canonical name as the record's
/// pattern axis — the workload IS the traffic identity in workload mode.
RunRecord prepare_sweep_record(const NetSetup& setup,
                               const sim::RoutingAlgorithm& routing,
                               const sim::TrafficPattern& pattern,
                               const sim::SimConfig& config,
                               std::size_t num_points,
                               const std::string& label,
                               const sim::Workload* workload = nullptr);

/// Simulates the points of `loads` this worker draws from `claim` on the
/// calling thread, reusing ONE Network via reset() across them. `claim`
/// (typically an atomic cursor shared by every worker attached to the
/// sweep) returns the next unclaimed point index, or any value >=
/// loads.size() when the sweep is exhausted — workers that join a sweep
/// late just start claiming. Writes points[i] for exactly the indices it
/// claims (points must already have loads.size() entries) and folds its
/// perf counters. Point values stay bit-identical however claims
/// interleave: each point runs on a Network reset to exactly that load,
/// and every counter merges order-independently. The first claimed point
/// always runs; later claims are abandoned (left at their zero defaults)
/// once `timeout_seconds` (from this call) expires, raising
/// counters.timed_out.
void run_sweep_claimed(const NetSetup& setup,
                       const sim::RoutingAlgorithm& routing,
                       const sim::TrafficPattern& pattern,
                       const sim::SimConfig& config,
                       const std::vector<double>& loads,
                       const std::function<std::size_t()>& claim,
                       std::vector<RunPoint>& points,
                       SweepCounters& counters,
                       double timeout_seconds = 0.0,
                       const sim::Workload* workload = nullptr);

/// Folds the merged counters and the measured wall time into record.perf
/// (sim_cycles is summed from the record's points) and stamps
/// record.status from counters.timed_out / stalled points.
void finish_sweep_record(RunRecord& record, const SweepCounters& counters,
                         double wall_seconds);

/// Sweeps the given loads: run_sweep_claimed on min(loads, pool threads)
/// workers drawing from one cursor; each worker reuses one Network via
/// reset(). A non-null `workload` switches every point into workload
/// mode: the network runs the workload to completion (or its cycle
/// budget) and the points carry completion-time accounting.
RunRecord run_sweep(const NetSetup& setup,
                    const sim::RoutingAlgorithm& routing,
                    const sim::TrafficPattern& pattern,
                    const sim::SimConfig& config,
                    const std::vector<double>& loads,
                    const std::string& label, double timeout_seconds = 0.0,
                    const sim::Workload* workload = nullptr);

RunRecord run_sweep(const Scenario& scenario,
                    const std::vector<double>& loads,
                    double timeout_seconds = 0.0);

/// Adaptive saturation search: bisection on the accepted-load plateau.
/// A load is "stable" while accepted tracks offered within `tol`; the
/// search brackets the largest stable load in [lo, hi] with at most
/// `max_iters` probes, reusing one Network via reset(). All probes are
/// recorded as points (in probe order); the plateau lands in
/// `saturation_estimate`.
RunRecord saturation_search(const NetSetup& setup,
                            const sim::RoutingAlgorithm& routing,
                            const sim::TrafficPattern& pattern,
                            const sim::SimConfig& config,
                            const std::string& label, double lo,
                            double hi, double tol, int max_iters,
                            double timeout_seconds = 0.0);

/// Scenario overload. Throws std::invalid_argument for workload
/// scenarios: a workload runs to completion at any load, so there is no
/// accepted-load plateau to bisect — sweep fixed loads instead.
RunRecord saturation_search(const Scenario& scenario, double lo, double hi,
                            double tol, int max_iters,
                            double timeout_seconds = 0.0);

}  // namespace pf::exp
