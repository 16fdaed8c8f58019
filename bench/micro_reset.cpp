// Microbenchmarks: Network::reset vs constructing a new Network per
// point. Reset re-assigns every run-state array but keeps the channel
// tables, the construction work that does not depend on the run. Every
// case runs the SAME simulation, either rebuilding the network for each
// point (arg 0, "reconstruct") or rewinding one instance with reset()
// (arg 1, "reset"); the two are bit-identical (enforced by test_sim), so
// the timings compare pure reset cost.
//
// Regimes:
//   ResetCost      PF q=13 UGAL-PF at load 0.05 with a SHORT measure
//                  window — each iteration runs one point then times
//                  ONLY the rewind (or rebuild) at the same load
//                  (PauseTiming around the run). Short windows are
//                  exactly where reset cost dominates many-point sweeps.
//   SweepQ13       PF q=13: whole points (rewind + run) end to end, the
//                  cycles/s counter reporting sweep throughput.
//   SweepQ31       PF q=31 p=16 (993 routers at radix 32, the paper's
//                  Tab. V scale) on the auto-selected compact oracle:
//                  one sweep point per iteration at low load.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/polarfly.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"

namespace {

bool reconstruct_of(const benchmark::State& state) {
  return state.range(0) == 0;
}

/// A PF q UGAL-PF network and everything it references, so a case can
/// construct as many Networks over it as it likes.
struct Fixture {
  Fixture(int q, int endpoints_per, int warmup, int measure, int drain)
      : pf(q),
        oracle(pf.graph()),
        routing(pf.graph(), oracle, true, 2.0 / 3.0),
        endpoints(pf::sim::uniform_endpoints(pf.num_vertices(),
                                             endpoints_per)),
        pattern(pf::sim::terminal_routers(endpoints)) {
    config.packet_size = 64;
    config.warmup_cycles = warmup;
    config.measure_cycles = measure;
    config.drain_cycles = drain;
  }

  std::unique_ptr<pf::sim::Network> make(double load) const {
    return std::make_unique<pf::sim::Network>(pf.graph(), endpoints,
                                              routing, pattern, config, load);
  }

  const pf::core::PolarFly pf;
  const pf::sim::DistanceOracle oracle;
  const pf::sim::UgalRouting routing;
  const std::vector<int> endpoints;
  const pf::sim::UniformTraffic pattern;
  pf::sim::SimConfig config;
};

/// Rewinds `net` to `load` for the next point: a new Network (arg 0) or
/// reset() (arg 1).
void next_point(const benchmark::State& state, const Fixture& fx,
                std::unique_ptr<pf::sim::Network>& net, double load) {
  if (reconstruct_of(state)) {
    net = fx.make(load);
  } else {
    net->reset(load);
  }
}

/// Pure reset cost: run one point outside the timer, time the rewind.
void bm_reset_cost(benchmark::State& state, int q, int endpoints_per,
                   double load, int warmup, int measure, int drain) {
  const Fixture fx(q, endpoints_per, warmup, measure, drain);
  state.SetLabel(reconstruct_of(state) ? "reconstruct" : "reset");
  auto net = fx.make(load);
  for (auto _ : state) {
    state.PauseTiming();
    net->run_phases();  // dirty the state like a real sweep point
    benchmark::DoNotOptimize(net->accepted_load());
    state.ResumeTiming();
    next_point(state, fx, net, load);
  }
}

void BM_ResetCostQ13(benchmark::State& state) {
  bm_reset_cost(state, 13, 1, 0.05, 200, 500, 4000);
}
BENCHMARK(BM_ResetCostQ13)->Arg(0)->Arg(1);

void BM_ResetCostQ31(benchmark::State& state) {
  bm_reset_cost(state, 31, 16, 0.02, 200, 500, 4000);
}
BENCHMARK(BM_ResetCostQ31)->Arg(0)->Arg(1);

/// Whole sweep points (rewind + run), counting simulated cycles per wall
/// second — end-to-end sweep throughput with short measure windows.
void bm_sweep(benchmark::State& state, int q, int endpoints_per,
              double load, int warmup, int measure, int drain) {
  const Fixture fx(q, endpoints_per, warmup, measure, drain);
  state.SetLabel(reconstruct_of(state) ? "reconstruct" : "reset");
  auto net = fx.make(load);
  std::int64_t cycles = 0;
  bool first = true;
  for (auto _ : state) {
    if (!first) next_point(state, fx, net, load);
    first = false;
    net->run_phases();
    benchmark::DoNotOptimize(net->accepted_load());
    cycles += net->current_cycle();
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_SweepQ13(benchmark::State& state) {
  bm_sweep(state, 13, 1, 0.05, 200, 500, 4000);
}
BENCHMARK(BM_SweepQ13)->Arg(0)->Arg(1);

void BM_SweepQ31(benchmark::State& state) {
  bm_sweep(state, 31, 16, 0.02, 200, 500, 4000);
}
BENCHMARK(BM_SweepQ31)->Arg(0)->Arg(1);

}  // namespace
