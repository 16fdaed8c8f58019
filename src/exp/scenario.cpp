#include "exp/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace pf::exp {
namespace {

std::string join_kinds(const std::vector<std::string>& kinds) {
  std::string out;
  for (const auto& kind : kinds) {
    if (!out.empty()) out += ' ';
    out += kind;
  }
  return out;
}

}  // namespace

std::string FailureSpec::canonical() const {
  if (empty()) return "";
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (!out.empty()) out += ',';
    out += part;
  };
  if (link_rate > 0.0) {
    // Shortest representation that round-trips: readable in labels
    // ("kill=0.05", not "kill=0.050000000000000003") yet still an exact
    // cache key.
    char buf[40];
    for (int precision = 3; precision <= 17; ++precision) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, link_rate);
      if (std::stod(buf) == link_rate) break;
    }
    append("kill=" + std::string(buf) + "@" + std::to_string(seed));
  }
  if (!links.empty()) {
    std::string part = "links=";
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (i > 0) part += ';';
      part += std::to_string(links[i].first) + "-" +
              std::to_string(links[i].second);
    }
    append(part);
  }
  if (!routers.empty()) {
    std::string part = "routers=";
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (i > 0) part += ';';
      part += std::to_string(routers[i]);
    }
    append(part);
  }
  return out;
}

graph::Graph apply_failures(const graph::Graph& g, const FailureSpec& spec,
                            std::vector<char>* dead_router) {
  if (dead_router != nullptr) {
    dead_router->assign(static_cast<std::size_t>(g.num_vertices()), 0);
  }
  if (spec.empty()) return g;

  std::vector<graph::Edge> kill;
  if (spec.link_rate > 0.0) {
    // Shuffle the full (sorted) edge list and kill a prefix — the exact
    // construction of the Fig. 14 / failed-links studies, so one seed
    // yields nested kill sets across rates.
    std::vector<graph::Edge> order = g.edge_list();
    util::Rng rng(spec.seed);
    util::shuffle(order, rng);
    // The +1e-9 keeps pct/100.0-style rates on the integer-arithmetic
    // count (E * pct / 100) the original benches used.
    const auto count = static_cast<std::size_t>(
        static_cast<double>(order.size()) * spec.link_rate + 1e-9);
    order.resize(std::min(count, order.size()));
    kill = std::move(order);
  }
  for (const auto& [u, v] : spec.links) {
    if (u < 0 || v < 0 || u >= g.num_vertices() || v >= g.num_vertices()) {
      throw std::invalid_argument(
          "failure spec '" + spec.canonical() + "': link " +
          std::to_string(u) + "-" + std::to_string(v) +
          " out of range for a " + std::to_string(g.num_vertices()) +
          "-router graph");
    }
    // A phantom link would silently yield an intact graph labeled as
    // damaged — wrong conclusions with no error. Refuse it.
    if (!g.has_edge(u, v)) {
      throw std::invalid_argument(
          "failure spec '" + spec.canonical() + "': link " +
          std::to_string(u) + "-" + std::to_string(v) +
          " does not exist in the graph");
    }
    kill.emplace_back(u, v);
  }
  for (const int r : spec.routers) {
    if (r < 0 || r >= g.num_vertices()) {
      throw std::invalid_argument(
          "failure spec '" + spec.canonical() + "': router " +
          std::to_string(r) + " out of range for a " +
          std::to_string(g.num_vertices()) + "-router graph");
    }
    if (dead_router != nullptr) {
      (*dead_router)[static_cast<std::size_t>(r)] = 1;
    }
    for (const std::int32_t u : g.neighbors(r)) {
      kill.emplace_back(static_cast<std::int32_t>(r), u);
    }
  }
  // Normalize + dedupe: explicit duplicate links (or a random kill
  // colliding with an explicit one) must behave as a single removal.
  for (auto& [u, v] : kill) {
    if (u > v) std::swap(u, v);
  }
  std::sort(kill.begin(), kill.end());
  kill.erase(std::unique(kill.begin(), kill.end()), kill.end());
  graph::Graph damaged = g.without_edges(kill);
  if (dead_router != nullptr) {
    // A router whose links all died (e.g. a kill-rate that isolates it)
    // is dead in every way that matters — mark it like an explicit
    // routers= kill so endpoint placement strips it identically.
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) > 0 && damaged.degree(v) == 0) {
        (*dead_router)[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  return damaged;
}

std::string FailureSchedule::canonical() const {
  if (empty()) return "";
  if (!name.empty()) return name;
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (!out.empty()) out += ',';
    out += part;
  };
  // Single-character separators are appended on their own: GCC 12
  // misreports -Wrestrict on `"@" + std::to_string(...)` once inlined.
  for (const auto& ev : events) {
    std::string part =
        ev.kind == "link_up" ? "up" : (ev.kind == "router_down" ? "rdown"
                                                                : "down");
    part += '@';
    part += std::to_string(ev.at) + "=";
    if (ev.kind == "router_down") {
      part += std::to_string(ev.router);
    } else {
      part += std::to_string(ev.link.first) + "-" +
              std::to_string(ev.link.second);
    }
    append(part);
  }
  for (const auto& flap : flaps) {
    std::string part = "flap=";
    if (flap.count > 0) {
      part += std::to_string(flap.count) + "n";
    } else {
      char buf[40];
      for (int precision = 3; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, flap.rate);
        if (std::stod(buf) == flap.rate) break;
      }
      part += buf;
    }
    part += '@';
    part += std::to_string(flap.seed) + "+" + std::to_string(flap.down_at);
    if (flap.up_after > 0) {
      part += '/';
      part += std::to_string(flap.up_after);
    }
    if (flap.repeats > 1) {
      part += 'x';
      part += std::to_string(flap.repeats) + "p" +
              std::to_string(flap.period);
    }
    append(part);
  }
  if (policy != "drop") append(policy);
  return out;
}

sim::FaultTimeline FailureSchedule::compile(const graph::Graph& g) const {
  sim::FaultTimeline timeline;
  if (empty()) return timeline;
  const auto fail = [this](const std::string& what) -> std::invalid_argument {
    return std::invalid_argument("failure schedule '" + canonical() +
                                 "': " + what);
  };
  if (policy == "reinject") {
    timeline.policy = sim::FaultPolicy::Reinject;
  } else if (policy != "drop") {
    throw fail("unknown policy '" + policy + "' (known: drop reinject)");
  }
  const auto check_link = [&](std::int32_t u, std::int32_t v) {
    if (u < 0 || v < 0 || u >= g.num_vertices() || v >= g.num_vertices() ||
        !g.has_edge(u, v)) {
      throw fail("link " + std::to_string(u) + "-" + std::to_string(v) +
                 " is not in the graph");
    }
  };
  for (const auto& ev : events) {
    if (ev.at < 0) throw fail("event cycle must be >= 0");
    sim::FaultEvent out;
    out.cycle = ev.at;
    if (ev.kind == "link_down" || ev.kind == "link_up") {
      out.kind = ev.kind == "link_up" ? sim::FaultEvent::Kind::LinkUp
                                      : sim::FaultEvent::Kind::LinkDown;
      check_link(ev.link.first, ev.link.second);
      out.u = ev.link.first;
      out.v = ev.link.second;
    } else if (ev.kind == "router_down") {
      if (ev.router < 0 || ev.router >= g.num_vertices()) {
        throw fail("router " + std::to_string(ev.router) +
                   " out of range for a " +
                   std::to_string(g.num_vertices()) + "-router graph");
      }
      out.kind = sim::FaultEvent::Kind::RouterDown;
      out.u = ev.router;
    } else {
      throw fail("unknown event kind '" + ev.kind +
                 "' (known: link_down link_up router_down)");
    }
    timeline.events.push_back(out);
  }
  for (const auto& flap : flaps) {
    if (flap.rate < 0.0 || flap.count < 0 || flap.down_at < 0 ||
        flap.up_after < 0 || flap.repeats < 1 ||
        (flap.repeats > 1 && flap.period <= 0)) {
      throw fail("flap needs rate/count >= 0, down_at/up_after >= 0, "
                 "repeats >= 1 (with period > 0 when repeating)");
    }
    // Shuffle-prefix link selection, exactly like FailureSpec::link_rate
    // (same +1e-9 count fudge), so flap sets nest across rates too.
    std::vector<graph::Edge> order = g.edge_list();
    util::Rng rng(flap.seed);
    util::shuffle(order, rng);
    const auto count =
        flap.count > 0
            ? static_cast<std::size_t>(flap.count)
            : static_cast<std::size_t>(
                  static_cast<double>(order.size()) * flap.rate + 1e-9);
    order.resize(std::min(count, order.size()));
    const std::uint64_t per_link = static_cast<std::uint64_t>(flap.repeats) *
                                   (flap.up_after > 0 ? 2 : 1);
    if (order.size() * per_link > sim::kMaxExpansion) {
      throw fail("flap expands to " + std::to_string(order.size()) +
                 " link(s) x " + std::to_string(per_link) +
                 " events, which exceeds 2^26");
    }
    for (const auto& [u, v] : order) {
      for (int rep = 0; rep < flap.repeats; ++rep) {
        std::int64_t base = 0, up = 0;
        if (__builtin_mul_overflow(std::int64_t{rep}, flap.period, &base) ||
            __builtin_add_overflow(base, flap.down_at, &base) ||
            __builtin_add_overflow(base, flap.up_after, &up)) {
          throw fail("flap event cycle overflows int64 at repeat " +
                     std::to_string(rep));
        }
        timeline.events.push_back({sim::FaultEvent::Kind::LinkDown, base,
                                   u, v});
        if (flap.up_after > 0) {
          timeline.events.push_back({sim::FaultEvent::Kind::LinkUp, up, u,
                                     v});
        }
      }
    }
  }
  // The Network stable-sorts by cycle again; pre-sorting here keeps the
  // canonical event order independent of flap/event interleaving.
  std::stable_sort(timeline.events.begin(), timeline.events.end(),
                   [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return timeline;
}

const std::vector<std::string>& routing_kinds() {
  static const std::vector<std::string> kinds = {
      "MIN", "VAL", "CVAL", "UGAL", "UGALPF", "NCA", "ALG"};
  return kinds;
}

std::unique_ptr<sim::RoutingAlgorithm> make_routing(
    const NetSetup& setup, const std::string& kind,
    const RoutingOptions& options) {
  const auto need_oracle = [&setup, &kind]() -> const sim::DistanceOracle& {
    if (!setup.oracle) {
      throw std::invalid_argument("routing " + kind + " needs a setup with "
                                  "a DistanceOracle (" +
                                  setup.name + " has none)");
    }
    return *setup.oracle;
  };
  if (kind == "NCA") {
    if (!setup.fattree) {
      throw std::invalid_argument(
          "routing NCA requires a fat-tree setup (got " + setup.name + ")");
    }
    return std::make_unique<sim::FatTreeNcaRouting>(*setup.fattree);
  }
  if (kind == "ALG") {
    if (!setup.polarfly) {
      throw std::invalid_argument(
          "routing ALG requires a PolarFly setup (got " + setup.name + ")");
    }
    return std::make_unique<sim::AlgebraicPolarFlyRouting>(*setup.polarfly);
  }
  if (kind == "MIN") {
    return std::make_unique<sim::MinimalRouting>(setup.graph, need_oracle());
  }
  if (kind == "VAL") {
    return std::make_unique<sim::ValiantRouting>(setup.graph, need_oracle());
  }
  if (kind == "CVAL") {
    return std::make_unique<sim::CompactValiantRouting>(setup.graph,
                                                        need_oracle());
  }
  if (kind == "UGAL" || kind == "UGALPF") {
    const bool compact = kind == "UGALPF";
    const double threshold =
        options.ugal_threshold >= 0.0
            ? options.ugal_threshold
            : (compact ? kDefaultUgalThreshold : 0.0);
    return std::make_unique<sim::UgalRouting>(setup.graph, need_oracle(),
                                              compact, threshold);
  }
  throw std::invalid_argument("unknown routing '" + kind + "' (known: " +
                              join_kinds(routing_kinds()) + ")");
}

const std::vector<std::string>& pattern_kinds() {
  static const std::vector<std::string> kinds = {
      "uniform", "tornado", "randperm", "perm1hop", "perm2hop", "bitcomp"};
  return kinds;
}

bool pattern_uses_seed(const std::string& kind) {
  return kind == "randperm" || kind == "perm1hop" || kind == "perm2hop";
}

std::unique_ptr<sim::TrafficPattern> make_pattern(const NetSetup& setup,
                                                  const std::string& kind,
                                                  std::uint64_t seed) {
  using sim::PermutationTraffic;
  if (kind == "uniform") {
    return std::make_unique<sim::UniformTraffic>(setup.terminals());
  }
  if (kind == "tornado") {
    return std::make_unique<PermutationTraffic>(
        PermutationTraffic::tornado(setup.terminals()));
  }
  if (kind == "randperm") {
    return std::make_unique<PermutationTraffic>(
        PermutationTraffic::random(setup.terminals(), seed));
  }
  if (kind == "perm1hop" || kind == "perm2hop") {
    const int distance = kind == "perm1hop" ? 1 : 2;
    return std::make_unique<PermutationTraffic>(
        PermutationTraffic::at_distance(setup.graph, setup.terminals(),
                                        distance, seed));
  }
  if (kind == "bitcomp") {
    return std::make_unique<PermutationTraffic>(
        PermutationTraffic::bit_complement(setup.terminals()));
  }
  throw std::invalid_argument("unknown pattern '" + kind + "' (known: " +
                              join_kinds(pattern_kinds()) + ")");
}

std::shared_ptr<const NetSetup> ScenarioRegistry::topology(
    const std::string& spec) {
  // One spec syntax across every surface: the shared topo parser turns
  // "family:k=v,k=v" into the canonical cache key + params. The key is
  // taken before extract_endpoints so p= stays part of the identity.
  topo::TopologySpec parsed = topo::parse_topology_spec(spec);
  const std::string key = topo::canonical_spec(parsed);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = topologies_.find(key);
    if (it != topologies_.end()) return it->second;
  }

  // Build outside the lock (construction may parallel_for internally);
  // a racing duplicate build is wasted work, not an error.
  const int p = topo::extract_endpoints(parsed);
  auto inst = topo::make_topology(parsed.family, parsed.params);
  auto setup = std::make_shared<NetSetup>();
  setup->name = inst.label;
  setup->endpoints = inst.endpoints(p > 0 ? p : inst.default_concentration());
  setup->graph = std::move(inst.graph);
  setup->fattree = std::move(inst.fattree);
  setup->polarfly = inst.polarfly;
  // With p= taken out the canonical spec names the graph alone, so
  // setups that differ only in endpoints share one oracle.
  setup->oracle = oracle(topo::canonical_spec(parsed), setup->graph,
                         std::move(inst.polarfly));

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = topologies_.emplace(key, std::move(setup));
  return it->second;
}

std::shared_ptr<const NetSetup> ScenarioRegistry::topology(
    const std::string& spec, const FailureSpec& failure) {
  if (failure.empty()) return topology(spec);
  // '|' never appears in a topology spec, so the combined key cannot
  // collide with an intact entry.
  const std::string key = spec + "|" + failure.canonical();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = topologies_.find(key);
    if (it != topologies_.end()) return it->second;
  }

  const auto base = topology(spec);
  std::vector<char> dead;
  auto setup = std::make_shared<NetSetup>();
  setup->name = base->name + " [" + failure.canonical() + "]";
  setup->graph = apply_failures(base->graph, failure, &dead);
  setup->endpoints = base->endpoints;
  for (std::size_t v = 0; v < dead.size(); ++v) {
    if (dead[v]) setup->endpoints[v] = 0;
  }
  // Oracles must see the damaged graph (minimal routing on the survivor
  // paths); structural handles stay unset — ALG/NCA assume intact
  // topology and refuse damaged setups via make_routing's checks.
  setup->oracle = oracle(key, setup->graph);

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = topologies_.emplace(key, std::move(setup));
  return it->second;
}

std::size_t ScenarioRegistry::evict_damaged() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t evicted = 0;
  for (auto it = topologies_.begin(); it != topologies_.end();) {
    if (it->first.find('|') != std::string::npos) {
      it = topologies_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  for (auto it = oracles_.begin(); it != oracles_.end();) {
    if (it->first.find('|') != std::string::npos) {
      it = oracles_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

std::shared_ptr<const sim::DistanceOracle> ScenarioRegistry::oracle(
    const std::string& key, const graph::Graph& g,
    std::shared_ptr<const core::PolarFly> pf) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = oracles_.find(key);
    if (it != oracles_.end()) return it->second;
  }
  auto oracle = pf ? std::make_shared<const sim::DistanceOracle>(std::move(pf))
                   : std::make_shared<const sim::DistanceOracle>(g);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = oracles_.emplace(key, std::move(oracle));
  return it->second;
}

std::shared_ptr<const sim::Workload> ScenarioRegistry::workload(
    const std::string& spec, int ranks, std::uint64_t seed) {
  if (spec.substr(0, spec.find(':')) == "trace") {
    return sim::Workload::make(spec, ranks, seed);
  }
  const auto key = std::make_tuple(
      spec, ranks, sim::workload_uses_seed(spec) ? seed : std::uint64_t{0});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = workloads_.find(key);
    if (it != workloads_.end()) {
      if (auto live = it->second.lock()) return live;
    }
  }
  // Compile outside the lock; a racing duplicate is wasted work only.
  auto compiled = sim::Workload::make(spec, ranks, seed);
  std::lock_guard<std::mutex> lock(mutex_);
  std::weak_ptr<const sim::Workload>& slot = workloads_[key];
  if (auto live = slot.lock()) return live;
  slot = compiled;
  std::erase_if(workloads_,
                [](const auto& entry) { return entry.second.expired(); });
  return compiled;
}

Scenario ScenarioRegistry::make(const ScenarioSpec& spec) {
  // Factory errors name the full offending spec, not just the one bad
  // field — a suite of hundreds of expanded cases is undebuggable
  // otherwise.
  const auto describe = [&spec]() {
    std::string out = "scenario {topology='" + spec.topology +
                      "', routing='" + spec.routing + "', pattern='" +
                      spec.pattern + "'";
    if (!spec.workload.empty()) {
      out += ", workload='" + spec.workload + "'";
    }
    if (!spec.failure.empty()) {
      out += ", failure='" + spec.failure.canonical() + "'";
    }
    if (!spec.schedule.empty()) {
      out += ", schedule='" + spec.schedule.canonical() + "'";
    }
    if (!spec.name.empty()) out += ", name='" + spec.name + "'";
    return out + "}";
  };
  try {
    Scenario scenario;
    scenario.setup = topology(spec.topology, spec.failure);
    scenario.routing =
        make_routing(*scenario.setup, spec.routing, spec.routing_options);
    const std::uint64_t seed =
        spec.pattern_seed != 0 ? spec.pattern_seed : spec.config.seed;
    scenario.pattern = make_pattern(*scenario.setup, spec.pattern, seed);
    if (!spec.workload.empty()) {
      scenario.workload = workload(
          spec.workload,
          static_cast<int>(scenario.setup->terminals().size()), seed);
    }
    scenario.config = spec.config;
    // Live faults run against whatever graph the Network sees — i.e. the
    // (possibly statically damaged) setup graph, so a schedule over a
    // FailureSpec'd topology validates against the survivor links.
    scenario.config.faults = spec.schedule.compile(scenario.setup->graph);
    const std::string traffic_name = scenario.workload
                                         ? scenario.workload->name()
                                         : scenario.pattern->name();
    scenario.label = !spec.name.empty()
                         ? spec.name
                         : scenario.setup->name + " / " +
                               scenario.routing->name() + " / " +
                               traffic_name;
    return scenario;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(describe() + ": " + e.what());
  }
}

ScenarioRegistry& ScenarioRegistry::shared() {
  static ScenarioRegistry registry;
  return registry;
}

}  // namespace pf::exp
