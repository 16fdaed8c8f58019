// The scenario layer of the experiment engine: every evaluation in the
// paper is a {topology, routing, traffic} triple swept over offered load.
// This header owns the NetSetup bundle and the string-keyed routing /
// traffic factories, plus a ScenarioRegistry that builds setups from
// topology spec strings and caches them (and their DistanceOracles, the
// expensive part off intact PolarFly) so every sweep point and every
// routing over the same topology shares one oracle, and compiled
// workloads so every routing over the same workload shares one send
// table.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/polarfly.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"

namespace pf::exp {

/// One simulated network: topology graph + endpoint placement + the state
/// routing algorithms need. Oracle and family handles are shared so many
/// scenarios over the same topology cost one all-pairs BFS (none on
/// intact PolarFly, whose oracle reads the `polarfly` handle).
struct NetSetup {
  std::string name;
  graph::Graph graph;
  std::vector<int> endpoints;
  std::shared_ptr<const sim::DistanceOracle> oracle;
  std::shared_ptr<const topo::FatTree> fattree;    ///< fat-tree setups only
  std::shared_ptr<const core::PolarFly> polarfly;  ///< PolarFly setups only

  std::vector<int> terminals() const {
    return sim::terminal_routers(endpoints);
  }
};

/// The adaptation threshold SS VII-C fixes at 2/3: the detour candidate is
/// only considered once the minimal first-hop occupancy exceeds it.
inline constexpr double kDefaultUgalThreshold = 2.0 / 3.0;

struct RoutingOptions {
  /// Adaptation threshold for the UGAL family; negative selects the
  /// kind's paper default (UGAL: 0 = always consider the detour,
  /// UGALPF: 2/3).
  double ugal_threshold = -1.0;
};

/// Routing algorithm factory over a setup. Throws std::invalid_argument
/// naming the known kinds on an unknown kind (or on NCA/ALG without the
/// matching structural handle).
std::unique_ptr<sim::RoutingAlgorithm> make_routing(
    const NetSetup& setup, const std::string& kind,
    const RoutingOptions& options = {});

/// The routing kinds make_routing accepts.
const std::vector<std::string>& routing_kinds();

/// Traffic pattern factory: uniform | tornado | randperm | perm1hop |
/// perm2hop | bitcomp. Throws std::invalid_argument naming the known
/// kinds on an unknown kind.
std::unique_ptr<sim::TrafficPattern> make_pattern(const NetSetup& setup,
                                                  const std::string& kind,
                                                  std::uint64_t seed);

const std::vector<std::string>& pattern_kinds();

/// True for pattern kinds whose construction consumes the seed
/// (randperm/perm1hop/perm2hop) — callers record it for reproducibility.
bool pattern_uses_seed(const std::string& kind);

// ---- failure specs -------------------------------------------------------

/// First-class failure injection: which links/routers of a topology are
/// dead before the experiment starts. The damage pass is shared by every
/// consumer (suites, benches, pf_sim), so oracles are always rebuilt on
/// the damaged graph and the same spec is bit-reproducible everywhere.
struct FailureSpec {
  /// Fraction of links killed at random: the full edge list (u < v,
  /// sorted — graph::Graph::edge_list order) is shuffled with
  /// util::Rng(seed) and the first floor(E * link_rate) edges die. The
  /// same seed therefore yields nested kill sets across rates, exactly
  /// like the paper's Fig. 14 removal orders.
  double link_rate = 0.0;
  std::uint64_t seed = 0;                ///< RNG seed for random kills
  std::vector<graph::Edge> links;        ///< explicit links to kill
  std::vector<int> routers;              ///< routers to kill (all links + endpoints)

  bool empty() const {
    return link_rate <= 0.0 && links.empty() && routers.empty();
  }

  /// Canonical spec string: "" when empty, otherwise e.g.
  /// "kill=0.05@57005", "links=0-1;2-5", "routers=3;7" joined by ','.
  /// Doubles as the damaged-graph cache-key fragment and label suffix.
  std::string canonical() const;
};

/// The shared damage pass: removes the spec's random links, explicit
/// links, and every link incident to a killed router. `dead_router`
/// (optional, resized to num_vertices) marks killed routers so endpoint
/// placement can skip them. Throws std::invalid_argument (naming the
/// spec) on out-of-range routers or link endpoints.
graph::Graph apply_failures(const graph::Graph& g, const FailureSpec& spec,
                            std::vector<char>* dead_router = nullptr);

/// Runtime failure injection, the live counterpart of FailureSpec: timed
/// link/router events plus seeded random flap processes, compiled against
/// a concrete graph into the sim::FaultTimeline the Network executes
/// mid-run. An empty schedule compiles to an empty timeline (no runtime
/// cost, bit-identical statistics).
struct FailureSchedule {
  /// One scripted event. `kind` is "link_down" | "link_up" |
  /// "router_down"; links use `link`, router kills use `router`.
  struct Event {
    std::string kind = "link_down";
    std::int64_t at = 0;             ///< cycle (0 = first simulated cycle)
    graph::Edge link{-1, -1};
    int router = -1;
  };
  /// A seeded random flap process: a set of links (shuffle-prefix over
  /// the edge list, exactly like FailureSpec::link_rate) goes down at
  /// `down_at` and, when `up_after` > 0, comes back that many cycles
  /// later; `repeats` > 1 replays the cycle every `period` cycles.
  struct Flap {
    double rate = 0.0;        ///< fraction of links (alternative: count)
    int count = 0;            ///< absolute number of links
    std::uint64_t seed = 0;
    std::int64_t down_at = 0;
    std::int64_t up_after = 0;  ///< 0 = the links stay down
    std::int64_t period = 0;
    int repeats = 1;
  };

  std::string name;           ///< optional label override
  std::vector<Event> events;
  std::vector<Flap> flaps;
  std::string policy = "drop";  ///< "drop" | "reinject" (stranded packets)

  bool empty() const { return events.empty() && flaps.empty(); }

  /// Canonical schedule string: "" when empty, `name` when set, otherwise
  /// a compact generated form. Doubles as the label suffix for suite
  /// expansion over multiple schedules.
  std::string canonical() const;

  /// Validates against `g` (event links must exist, routers in range)
  /// and expands flaps into concrete events. Throws std::invalid_argument
  /// naming the schedule on invalid input, on a flap that would expand to
  /// more than 2^26 events (checked before expanding) and on a flap
  /// event cycle that overflows int64.
  sim::FaultTimeline compile(const graph::Graph& g) const;
};

// ---- scenario registry ---------------------------------------------------

/// A fully specified sweep-ready experiment, by string keys.
struct ScenarioSpec {
  /// "family:key=value,..." — family and parameters as understood by
  /// topo::make_topology, plus p=<endpoints per router> (default: the
  /// family's balanced concentration). Example: "pf:q=13,p=7".
  std::string topology;
  std::string routing = "MIN";
  std::string pattern = "uniform";
  /// Non-empty selects workload mode: a sim::Workload spec (see
  /// Workload::make) compiled over the topology's terminals. The pattern
  /// then only provides the terminal -> router map, and the label /
  /// record identity use the workload's canonical name.
  std::string workload;
  FailureSpec failure;             ///< applied before routing state is built
  FailureSchedule schedule;        ///< applied live, during execution
  sim::SimConfig config;
  RoutingOptions routing_options;
  std::uint64_t pattern_seed = 0;  ///< 0 -> config.seed
  std::string name;                ///< optional label override
};

/// A resolved spec: shared topology state plus owned routing/pattern.
struct Scenario {
  std::shared_ptr<const NetSetup> setup;
  std::shared_ptr<const sim::RoutingAlgorithm> routing;
  std::shared_ptr<const sim::TrafficPattern> pattern;
  std::shared_ptr<const sim::Workload> workload;  ///< null: pattern mode
  sim::SimConfig config;
  std::string label;
};

/// String-keyed topology/oracle/workload cache + scenario resolution.
/// Thread-safe. Damaged graphs are cached under the combined key
/// "<topology>|<failure.canonical()>", so an intact entry is never
/// mistaken for a damaged one (and vice versa), and two different
/// failure specs over the same base topology get distinct oracles.
/// Compiled workloads are shared by (spec, ranks, seed) while any
/// scenario still holds them; seed-blind generators share across seeds,
/// and trace:file= specs are re-read on every make() (the file may have
/// changed).
class ScenarioRegistry {
 public:
  /// Parses a topology spec (see ScenarioSpec::topology), constructing and
  /// caching the setup: p endpoints per router (fat trees: per leaf
  /// switch), named by the instance label. Repeated calls share one setup;
  /// specs that differ only in p= share one oracle (the algebraic one
  /// when the instance carries a PolarFly).
  std::shared_ptr<const NetSetup> topology(const std::string& spec);

  /// The damaged variant: the base setup is built (and cached) intact,
  /// then the failure spec's damage pass runs, the oracle is recomputed
  /// on the damaged graph, and killed routers lose their endpoints.
  /// Structural handles (polarfly/fattree) are dropped — topology-aware
  /// routing (ALG/NCA) has no validity guarantee on a damaged graph.
  std::shared_ptr<const NetSetup> topology(const std::string& spec,
                                           const FailureSpec& failure);

  /// The oracle for `key`, made on first use: from `pf`'s algebra when
  /// given (intact ER_q, no matrix), else by an all-pairs BFS of `g`.
  /// Shared across all sweep points and routings over the same topology.
  std::shared_ptr<const sim::DistanceOracle> oracle(
      const std::string& key, const graph::Graph& g,
      std::shared_ptr<const core::PolarFly> pf = nullptr);

  Scenario make(const ScenarioSpec& spec);

  /// Drops every cached setup whose key carries a failure-spec fragment
  /// (damaged graphs are one-suite artifacts; intact topologies and their
  /// oracles stay). Returns the number of entries evicted.
  std::size_t evict_damaged();

  /// The process-wide registry every surface (pf_sim, suites, benches)
  /// shares setups and oracles through.
  static ScenarioRegistry& shared();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const NetSetup>> topologies_;
  std::map<std::string, std::shared_ptr<const sim::DistanceOracle>> oracles_;
  /// Weak: a workload lives exactly as long as the scenarios using it.
  std::map<std::tuple<std::string, int, std::uint64_t>,
           std::weak_ptr<const sim::Workload>>
      workloads_;

  std::shared_ptr<const sim::Workload> workload(const std::string& spec,
                                                int ranks,
                                                std::uint64_t seed);
};

}  // namespace pf::exp
