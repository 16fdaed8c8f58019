// bench_layers: the per-layer half of the end-to-end benchmark (see
// README.md). It runs a polarfly-suite/1 file through the library calls
// `pf_sim suite` makes, with whole cases spread over the thread pool, and
// times every layer from outside:
//   - spans around the public entry points: exp::parse_suite,
//     ScenarioRegistry::make, topo::make_topology, the DistanceOracle and
//     Network constructors, Workload::make, run_sweep/saturation_search
//     and exp::to_json;
//   - timing decorators around sim::RoutingAlgorithm and
//     sim::TrafficPattern, which count calls, hops and detours per thread.
// Nothing under src/ is instrumented. --plain runs the same program
// without the decorators; both must reproduce the untraced pf_sim
// records bit for bit, which --reference checks at rtol 0.
//
//   bench_layers run <suite.json> [--plain] [--reference REF] [--records OUT]
//   bench_layers check <reference.json> <candidate.json>
//
// `run` prints one JSON object of layer metrics on stdout; `check`
// prints {"cases", "failed"}. Exit codes: 0 ok, 1 records differ from
// the reference, 2 bad input.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/diff.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"
#include "exp/suite.hpp"
#include "sim/routing.hpp"
#include "sim/workload.hpp"
#include "topo/registry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace pf;
using Clock = std::chrono::steady_clock;

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resident set size from /proc/self/statm, in MB.
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- decorators -----------------------------------------------------------

/// One simulation thread's decorator counters. Each thread owns one
/// cache-line-aligned slot, so the hot path takes no lock and shares no
/// line; the slots are summed after the sweep has joined its workers.
struct alignas(64) Tally {
  std::int64_t route_calls = 0;
  std::int64_t route_ns = 0;
  std::int64_t degraded_calls = 0;
  std::int64_t degraded_ns = 0;
  std::int64_t routes = 0;  ///< non-empty routes, both kinds
  std::int64_t hops = 0;
  std::int64_t nonmin = 0;  ///< routes longer than the oracle distance
  std::int64_t traffic_calls = 0;
  std::int64_t traffic_ns = 0;
};

constexpr int kMaxThreads = 256;
std::array<Tally, kMaxThreads> g_tallies;
std::atomic<int> g_next_slot{0};

Tally& my_tally() {
  thread_local const int slot = g_next_slot.fetch_add(1);
  if (slot >= kMaxThreads) {
    std::fprintf(stderr, "bench_layers: more than %d threads\n", kMaxThreads);
    std::abort();
  }
  return g_tallies[static_cast<std::size_t>(slot)];
}

Tally total_tally() {
  Tally sum;
  const int slots = g_next_slot.load();
  for (int i = 0; i < slots && i < kMaxThreads; ++i) {
    const Tally& t = g_tallies[static_cast<std::size_t>(i)];
    sum.route_calls += t.route_calls;
    sum.route_ns += t.route_ns;
    sum.degraded_calls += t.degraded_calls;
    sum.degraded_ns += t.degraded_ns;
    sum.routes += t.routes;
    sum.hops += t.hops;
    sum.nonmin += t.nonmin;
    sum.traffic_calls += t.traffic_calls;
    sum.traffic_ns += t.traffic_ns;
  }
  return sum;
}

/// Network always hands route() an empty Route, so a route's hop count
/// is its length minus the source.
void count_route(Tally& t, const sim::DistanceOracle* oracle, int src,
                 int dst, const sim::Route& out) {
  if (out.len < 2) return;
  const int hops = out.len - 1;
  ++t.routes;
  t.hops += hops;
  if (oracle != nullptr && hops > oracle->distance(src, dst)) ++t.nonmin;
}

class TimedRouting final : public sim::RoutingAlgorithm {
 public:
  TimedRouting(std::shared_ptr<const sim::RoutingAlgorithm> inner,
               std::shared_ptr<const sim::DistanceOracle> oracle)
      : inner_(std::move(inner)), oracle_(std::move(oracle)) {}

  std::string name() const override { return inner_->name(); }
  int max_hops() const override { return inner_->max_hops(); }

  void route(const sim::Network& net, int src, int dst, util::Rng& rng,
             sim::Route& out) const override {
    const auto start = Clock::now();
    inner_->route(net, src, dst, rng, out);
    const auto stop = Clock::now();
    Tally& t = my_tally();
    ++t.route_calls;
    t.route_ns += nanos(stop - start);
    count_route(t, oracle_.get(), src, dst, out);
  }

  void route_degraded(const sim::Network& net, const graph::Graph& g,
                      const sim::DistanceOracle& oracle, int src, int dst,
                      util::Rng& rng, sim::Route& out) const override {
    const auto start = Clock::now();
    inner_->route_degraded(net, g, oracle, src, dst, rng, out);
    const auto stop = Clock::now();
    Tally& t = my_tally();
    ++t.degraded_calls;
    t.degraded_ns += nanos(stop - start);
    count_route(t, &oracle, src, dst, out);
  }

 private:
  std::shared_ptr<const sim::RoutingAlgorithm> inner_;
  std::shared_ptr<const sim::DistanceOracle> oracle_;
};

class TimedPattern final : public sim::TrafficPattern {
 public:
  explicit TimedPattern(std::shared_ptr<const sim::TrafficPattern> inner)
      : TrafficPattern(inner->terminals()), inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  int destination(int src, util::Rng& rng) const override {
    const auto start = Clock::now();
    const int dst = inner_->destination(src, rng);
    const auto stop = Clock::now();
    Tally& t = my_tally();
    ++t.traffic_calls;
    t.traffic_ns += nanos(stop - start);
    return dst;
  }

 private:
  std::shared_ptr<const sim::TrafficPattern> inner_;
};

// ---- record checks ----------------------------------------------------------

struct CaseCheck {
  std::size_t cases = 0;
  std::size_t failed = 0;
};

/// A case fails when its record is missing, differs from the reference
/// at rtol 0 / atol 0, carries a status, or holds an unfinished workload.
CaseCheck check_records(const exp::RunDocument& reference,
                        const exp::RunDocument& candidate) {
  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  const exp::DiffReport report =
      exp::diff_documents(reference, candidate, exact);
  std::set<std::string> failed(report.only_in_baseline.begin(),
                               report.only_in_baseline.end());
  failed.insert(report.only_in_candidate.begin(),
                report.only_in_candidate.end());
  for (const exp::FieldDrift& drift : report.drifts) failed.insert(drift.key);
  for (const exp::RunRecord& record : candidate.records) {
    bool unfinished = false;
    for (const exp::RunPoint& point : record.points) {
      unfinished = unfinished || (point.has_workload && !point.workload_done);
    }
    if (!record.status.empty() || unfinished) {
      failed.insert(exp::record_key(record));
    }
  }
  if (!failed.empty()) exp::print_diff_report(report, stderr);
  return {reference.records.size() + report.only_in_candidate.size(),
          failed.size()};
}

exp::RunDocument load_records(const std::string& path) {
  std::string text;
  if (!util::read_text_file(path, text)) {
    throw std::invalid_argument("cannot read records file " + path);
  }
  return exp::parse_records_document(text);
}

// ---- the traced suite run ---------------------------------------------------

/// Mirrors SuiteRunner: the workload's canonical name decides in workload
/// mode, the pattern kind otherwise.
void stamp_pattern_seed(const exp::ScenarioSpec& spec,
                        exp::RunRecord& record) {
  const bool seeded = spec.workload.empty()
                          ? exp::pattern_uses_seed(spec.pattern)
                          : sim::workload_uses_seed(record.pattern);
  if (seeded) {
    record.pattern_seed =
        spec.pattern_seed != 0 ? spec.pattern_seed : spec.config.seed;
  }
}

/// The cost one empty span adds to the code it wraps: two clock reads.
double empty_span_ns() {
  constexpr int kSpans = 1 << 20;
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    (void)Clock::now();
    (void)Clock::now();
  }
  return static_cast<double>(nanos(Clock::now() - start)) / kSpans;
}

struct Layers {
  double parse_s = 0.0;
  double resolve_s = 0.0;
  double topo_s = 0.0;
  double oracle_s = 0.0;
  std::int64_t oracle_bytes = 0;
  double compile_s = 0.0;
  std::int64_t workload_packets = 0;
  double workload_rss_mb = 0.0;
  double construct_s = 0.0;
  double network_rss_mb = 0.0;
  double sweep_s = 0.0;
  double reset_s = 0.0;
  double phase_s = 0.0;
  double write_s = 0.0;
  std::int64_t write_bytes = 0;
};

/// Standalone topology + oracle builds, one per distinct topology spec:
/// the registry does both inside ScenarioRegistry::make, where they
/// cannot be told apart from outside. Returns each spec's terminal count.
/// The probes bypass the registry so its cache stays cold and the case
/// loop's resolve time matches a pf_sim run's.
std::map<std::string, int> probe_topologies(const exp::Suite& suite,
                                            Layers& layers) {
  std::map<std::string, int> terminals;
  for (const exp::SuiteCase& cs : suite.cases) {
    if (terminals.count(cs.spec.topology) != 0) continue;
    topo::TopologySpec parsed = topo::parse_topology_spec(cs.spec.topology);
    const std::int64_t p = topo::extract_endpoints(parsed);
    auto start = Clock::now();
    const topo::TopologyInstance inst =
        topo::make_topology(parsed.family, parsed.params);
    layers.topo_s += seconds_since(start);
    start = Clock::now();
    const sim::DistanceOracle oracle(inst.graph);
    layers.oracle_s += seconds_since(start);
    layers.oracle_bytes += static_cast<std::int64_t>(oracle.matrix_bytes());
    int count = 0;
    for (const int e : inst.endpoints(
             static_cast<int>(p > 0 ? p : inst.default_concentration()))) {
      count += e;
    }
    terminals[cs.spec.topology] = count;
  }
  return terminals;
}

/// The workload step of every case: Workload::make where the case names
/// a workload, an empty span otherwise. All compiled workloads stay alive
/// together, as in a suite run, so the RSS growth is their footprint.
void probe_workloads(const exp::Suite& suite,
                     const std::map<std::string, int>& terminals,
                     Layers& layers) {
  std::vector<std::shared_ptr<const sim::Workload>> compiled;
  const double rss_before = rss_mb();
  for (const exp::SuiteCase& cs : suite.cases) {
    const exp::ScenarioSpec& spec = cs.spec;
    const int ranks = terminals.at(spec.topology);
    const std::uint64_t seed =
        spec.pattern_seed != 0 ? spec.pattern_seed : spec.config.seed;
    const auto start = Clock::now();
    if (!spec.workload.empty()) {
      compiled.push_back(sim::Workload::make(spec.workload, ranks, seed));
    }
    layers.compile_s += seconds_since(start);
  }
  for (const auto& workload : compiled) {
    layers.workload_packets += workload->total_packets();
  }
  layers.workload_rss_mb = rss_mb() - rss_before;
}

/// One Network construction for the case, timed, with its RSS growth.
void probe_network(const exp::SuiteCase& cs, const exp::Scenario& scenario,
                   Layers& layers) {
  const double load = cs.saturation ? cs.sat_hi : cs.loads.front();
  const double rss_before = rss_mb();
  const auto start = Clock::now();
  const sim::Network net(scenario.setup->graph, scenario.setup->endpoints,
                         *scenario.routing, *scenario.pattern,
                         scenario.config, load, scenario.workload.get());
  layers.construct_s += seconds_since(start);
  layers.network_rss_mb =
      std::max(layers.network_rss_mb, rss_mb() - rss_before);
}

std::vector<exp::RunRecord> run_suite(const exp::Suite& suite, bool traced,
                                      Layers& layers) {
  probe_workloads(suite, probe_topologies(suite, layers), layers);

  // Resolve every case up front on this thread, as SuiteRunner does, and
  // probe each case's Network while nothing else runs: RSS is per process.
  exp::ScenarioRegistry& registry = exp::ScenarioRegistry::shared();
  const std::size_t total = suite.cases.size();
  std::vector<exp::Scenario> scenarios(total);
  std::vector<double> setup_seconds(total);
  for (std::size_t i = 0; i < total; ++i) {
    const exp::SuiteCase& cs = suite.cases[i];
    const auto start = Clock::now();
    scenarios[i] = registry.make(cs.spec);
    setup_seconds[i] = seconds_since(start);
    layers.resolve_s += setup_seconds[i];
    if (!exp::serves_all_terminals(*scenarios[i].setup)) {
      throw std::invalid_argument("case '" + scenarios[i].label +
                                  "' has disconnected terminals");
    }
    probe_network(cs, scenarios[i], layers);
    if (traced) {
      scenarios[i].routing = std::make_shared<TimedRouting>(
          scenarios[i].routing, scenarios[i].setup->oracle);
      scenarios[i].pattern =
          std::make_shared<TimedPattern>(scenarios[i].pattern);
    }
  }

  // Cases run concurrently, one pool worker each; a case's own points
  // then run inline on that worker. Records do not depend on the split.
  std::vector<exp::RunRecord> records(total);
  std::vector<double> sweep_seconds(total);
  std::vector<std::exception_ptr> errors(total);
  util::parallel_for(0, total, [&](std::size_t i) {
    const exp::SuiteCase& cs = suite.cases[i];
    const auto start = Clock::now();
    try {
      records[i] = cs.saturation
                       ? exp::saturation_search(scenarios[i], cs.sat_lo,
                                                cs.sat_hi, cs.sat_tol,
                                                cs.sat_iters,
                                                cs.timeout_seconds)
                       : exp::run_sweep(scenarios[i], cs.loads,
                                        cs.timeout_seconds);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    sweep_seconds[i] = seconds_since(start);
  });
  for (std::size_t i = 0; i < total; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    exp::RunRecord& record = records[i];
    stamp_pattern_seed(suite.cases[i].spec, record);
    record.perf.setup_seconds = setup_seconds[i];
    layers.sweep_s += sweep_seconds[i];
    layers.reset_s += record.perf.reset_seconds;
    layers.phase_s += record.perf.warmup_seconds +
                      record.perf.measure_seconds +
                      record.perf.drain_seconds;
  }
  return records;
}

std::string layers_json(const Layers& l, bool traced, const CaseCheck* check) {
  util::JsonWriter out(0);
  out.begin_object();
  const auto num = [&out](const char* key, double v) { out.key(key).value(v); };
  const auto count = [&out](const char* key, std::int64_t v) {
    out.key(key).value(v);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  num("exp.suite.parse_s", l.parse_s);
  num("exp.scenario.resolve_s", l.resolve_s);
  num("topo.build_s", l.topo_s);
  num("sim.oracle.build_s", l.oracle_s);
  count("sim.oracle.bytes", l.oracle_bytes);
  num("sim.workload.compile_s", l.compile_s);
  count("sim.workload.packets", l.workload_packets);
  num("sim.workload.rss_mb", l.workload_rss_mb);
  num("sim.network.construct_s", l.construct_s);
  num("sim.network.rss_mb", l.network_rss_mb);
  num("exp.engine.sweep_s", l.sweep_s);
  num("exp.engine.reset_s", l.reset_s);
  num("exp.engine.reset_share", ratio(l.reset_s, l.sweep_s));
  num("sim.network.phase_s", l.phase_s);
  num("exp.results.write_s", l.write_s);
  count("exp.results.bytes", l.write_bytes);
  if (traced) {
    const Tally t = total_tally();
    const double route_s = static_cast<double>(t.route_ns) * 1e-9;
    const double degraded_s = static_cast<double>(t.degraded_ns) * 1e-9;
    const double traffic_s = static_cast<double>(t.traffic_ns) * 1e-9;
    num("sim.network.self_s", l.phase_s - route_s - degraded_s - traffic_s);
    num("sim.network.ns_per_hop",
        ratio(l.phase_s * 1e9, static_cast<double>(t.hops)));
    count("sim.routing.calls", t.route_calls);
    num("sim.routing.s", route_s);
    num("sim.routing.ns_per_call",
        ratio(static_cast<double>(t.route_ns),
              static_cast<double>(t.route_calls)));
    count("sim.routing.hops", t.hops);
    num("sim.routing.nonmin_frac",
        ratio(static_cast<double>(t.nonmin), static_cast<double>(t.routes)));
    count("sim.routing.degraded_calls", t.degraded_calls);
    num("sim.routing.degraded_s", degraded_s);
    num("sim.routing.degraded_share", ratio(degraded_s, l.phase_s));
    count("sim.traffic.calls", t.traffic_calls);
    num("sim.traffic.s", traffic_s);
    num("sim.traffic.ns_per_call",
        ratio(static_cast<double>(t.traffic_ns),
              static_cast<double>(t.traffic_calls)));
    num("sim.traffic.share", ratio(traffic_s, l.phase_s));
    num("trace.clock_ns", empty_span_ns());
  }
  if (check != nullptr) {
    count("cases", static_cast<std::int64_t>(check->cases));
    count("failed", static_cast<std::int64_t>(check->failed));
  }
  out.end_object();
  return out.str();
}

int cmd_run(const util::CliArgs& args) {
  const std::string suite_path = args.positional(0, "suite file");
  const bool traced = !args.has("plain");
  const std::string reference_path = args.str_or("reference", "");
  const std::string records_path = args.str_or("records", "");

  std::string text;
  if (!util::read_text_file(suite_path, text)) {
    throw std::invalid_argument("cannot read suite file " + suite_path);
  }
  Layers layers;
  auto start = Clock::now();
  const exp::Suite suite = exp::parse_suite(text);
  layers.parse_s = seconds_since(start);

  const std::vector<exp::RunRecord> records =
      run_suite(suite, traced, layers);

  start = Clock::now();
  const std::string document = exp::to_json(records, "bench_layers");
  layers.write_s = seconds_since(start);
  layers.write_bytes = static_cast<std::int64_t>(document.size());
  if (!records_path.empty() &&
      !util::write_text_file(records_path, document)) {
    throw std::invalid_argument("cannot write records file " + records_path);
  }

  CaseCheck check;
  if (!reference_path.empty()) {
    exp::RunDocument mine;
    mine.records = records;
    check = check_records(load_records(reference_path), mine);
  }
  std::printf("%s\n",
              layers_json(layers, traced,
                          reference_path.empty() ? nullptr : &check)
                  .c_str());
  return check.failed == 0 ? 0 : 1;
}

int cmd_check(const util::CliArgs& args) {
  const CaseCheck check =
      check_records(load_records(args.positional(0, "reference records")),
                    load_records(args.positional(1, "candidate records")));
  std::printf("{\"cases\": %zu, \"failed\": %zu}\n", check.cases,
              check.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args = util::CliArgs::parse(argc, argv);
  try {
    if (args.command() == "run") return cmd_run(args);
    if (args.command() == "check") return cmd_check(args);
    std::fprintf(stderr,
                 "usage: bench_layers run <suite.json> [--plain] "
                 "[--reference REF] [--records OUT]\n"
                 "       bench_layers check <reference.json> "
                 "<candidate.json>\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_layers: %s\n", e.what());
  }
  return 2;
}
