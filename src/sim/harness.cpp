#include "sim/harness.hpp"

#include <algorithm>

#include "sim/routing.hpp"
#include "sim/telemetry.hpp"

namespace pf::sim {

SimStats simulate(const graph::Graph& g, const std::vector<int>& endpoints,
                  const RoutingAlgorithm& routing,
                  const TrafficPattern& pattern, const SimConfig& config,
                  double load) {
  Network net(g, endpoints, routing, pattern, config, load);
  net.run_phases();
  SimStats stats;
  stats.offered = load;
  stats.accepted_load = net.accepted_load();
  stats.avg_latency = net.avg_latency();
  stats.p50_latency =
      static_cast<double>(net.latency_counts().percentile(0.50));
  stats.p99_latency = net.p99_latency();
  stats.converged = net.converged();
  stats.delivered_packets = net.delivered_packets();
  return stats;
}

std::vector<double> load_steps(double lo, double hi, int count) {
  std::vector<double> loads;
  loads.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    loads.push_back(count == 1 ? lo
                               : lo + (hi - lo) * static_cast<double>(i) /
                                          static_cast<double>(count - 1));
  }
  return loads;
}

}  // namespace pf::sim
