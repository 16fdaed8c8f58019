// Microbenchmarks: simulator throughput (cycles/second at a moderate load)
// and minimal-path sampling rate — the hot paths behind Figs. 8-11.
// BM_SimulatorCyclesUgalPf/13 is the acceptance config of the experiment-
// engine refactor: reduced-scale PF q=13, UGAL-PF, uniform, load 0.5.
#include <benchmark/benchmark.h>

#include "core/polarfly.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace {

pf::sim::SimConfig micro_config() {
  pf::sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 800;
  config.drain_cycles = 0;
  return config;
}

void BM_SimulatorCycles(benchmark::State& state) {
  const pf::core::PolarFly pf(static_cast<std::uint32_t>(state.range(0)));
  const pf::sim::DistanceOracle oracle(pf.graph());
  const pf::sim::MinimalRouting routing(pf.graph(), oracle);
  const auto endpoints =
      pf::sim::uniform_endpoints(pf.num_vertices(), (pf.radix() + 1) / 2);
  const pf::sim::UniformTraffic pattern(
      pf::sim::terminal_routers(endpoints));
  std::int64_t cycles = 0;
  for (auto _ : state) {
    pf::sim::Network net(pf.graph(), endpoints, routing, pattern,
                         micro_config(), 0.5);
    net.run_phases();
    benchmark::DoNotOptimize(net.accepted_load());
    cycles += 1000;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorCycles)->Arg(9)->Arg(13)->Arg(19);

// The engine's sweep path: one Network reused via reset() per point, the
// adaptive UGAL-PF scheme reading live congestion state. Matches the
// acceptance criterion config of the experiment-engine refactor.
void BM_SimulatorCyclesUgalPf(benchmark::State& state) {
  const pf::core::PolarFly pf(static_cast<std::uint32_t>(state.range(0)));
  const pf::sim::DistanceOracle oracle(pf.graph());
  const pf::sim::UgalRouting routing(pf.graph(), oracle, true, 2.0 / 3.0);
  const auto endpoints =
      pf::sim::uniform_endpoints(pf.num_vertices(), (pf.radix() + 1) / 2);
  const pf::sim::UniformTraffic pattern(
      pf::sim::terminal_routers(endpoints));
  pf::sim::Network net(pf.graph(), endpoints, routing, pattern,
                       micro_config(), 0.5);
  std::int64_t cycles = 0;
  bool first = true;
  for (auto _ : state) {
    if (!first) net.reset(0.5);
    first = false;
    net.run_phases();
    benchmark::DoNotOptimize(net.accepted_load());
    cycles += net.current_cycle();
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorCyclesUgalPf)->Arg(13);

void BM_MinPathSample(benchmark::State& state) {
  const pf::core::PolarFly pf(31);
  const pf::sim::DistanceOracle oracle(pf.graph());
  pf::util::Rng rng(3);
  const int n = pf.num_vertices();
  pf::sim::Route route;
  for (auto _ : state) {
    const int s = static_cast<int>(rng.below(n));
    int d = s;
    while (d == s) d = static_cast<int>(rng.below(n));
    route.clear();
    oracle.sample_min_path(pf.graph(), s, d, rng, route);
    benchmark::DoNotOptimize(route.len);
  }
}
BENCHMARK(BM_MinPathSample);

void BM_AlgebraicRoute(benchmark::State& state) {
  // The table-free route computation of SS IV-D: a dot product to test
  // adjacency plus a cross product for the 2-hop intermediate. Compare
  // against BM_MinPathSample (table lookup) — the algebra trades the
  // N^2-byte oracle for a few GF(q) multiplies.
  const pf::core::PolarFly pf(31);
  const pf::sim::DistanceOracle oracle(pf.graph());
  const pf::sim::MinimalRouting min_routing(pf.graph(), oracle);
  const pf::sim::UniformTraffic pattern({0, 1});
  const pf::sim::Network net(
      pf.graph(), std::vector<int>(pf.num_vertices(), 1), min_routing,
      pattern, pf::sim::SimConfig{}, 0.0);
  const pf::sim::AlgebraicPolarFlyRouting algebraic(pf);
  pf::util::Rng rng(3);
  const int n = pf.num_vertices();
  pf::sim::Route route;
  for (auto _ : state) {
    const int s = static_cast<int>(rng.below(n));
    int d = s;
    while (d == s) d = static_cast<int>(rng.below(n));
    algebraic.route(net, s, d, rng, route);
    benchmark::DoNotOptimize(route.len);
  }
}
BENCHMARK(BM_AlgebraicRoute);

}  // namespace
