// The measurement harness: one simulation point (warmup / measure /
// drain) on a freshly built Network, and evenly spaced load grids. Load
// sweeps live in exp::run_sweep (src/exp/engine.hpp).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"

namespace pf::sim {

class RoutingAlgorithm;

struct SimStats {
  double offered = 0.0;
  double accepted_load = 0.0;
  double avg_latency = 0.0;
  double p50_latency = 0.0;  ///< exact median of the measured sample
  double p99_latency = 0.0;
  bool converged = false;
  std::int64_t delivered_packets = 0;
};

SimStats simulate(const graph::Graph& g, const std::vector<int>& endpoints,
                  const RoutingAlgorithm& routing,
                  const TrafficPattern& pattern, const SimConfig& config,
                  double load);

/// `count` evenly spaced loads from lo to hi inclusive.
std::vector<double> load_steps(double lo, double hi, int count);

}  // namespace pf::sim
