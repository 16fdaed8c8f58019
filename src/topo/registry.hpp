// The topology family registry: one string-keyed constructor for every
// supported family, returning a uniform TopologyInstance that the apps
// and the simulator consume. Families keep their structured handles
// (PolarFly for algebraic routing, FatTree for NCA) alongside the graph.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/polarfly.hpp"
#include "graph/graph.hpp"
#include "topo/fattree.hpp"

namespace pf::topo {

using TopologyParams = std::map<std::string, std::int64_t>;

struct TopologyInstance {
  std::string label;   ///< human-readable, e.g. "PolarFly ER_13"
  std::string family;  ///< registry key, e.g. "polarfly"
  graph::Graph graph;
  int radix = 0;

  /// Set for family polarfly: enables algebraic routing and class info.
  std::shared_ptr<const core::PolarFly> polarfly;
  /// Set for family fattree: enables NCA routing and leaf placement.
  std::shared_ptr<const FatTree> fattree;

  /// Default endpoints per router: half the radix (fat tree: arity per
  /// leaf), the balanced 1:2 concentration used throughout the paper.
  int default_concentration() const;

  /// Endpoint counts per router: p on every router, except fat trees
  /// where only level-0 leaf switches host p endpoints each.
  std::vector<int> endpoints(int p) const;
};

/// Constructs a topology by family name (aliases included). Throws
/// std::invalid_argument on unknown families, missing parameters, a
/// parameter the family does not take, a parameter outside [0, INT_MAX]
/// (a jellyfish seed: [0, INT64_MAX]), or infeasible sizes.
///
/// Families (parameters): polarfly|pf (q), polarfly-exp|pfx
/// (q, n [, quadric]), slimfly|sf (q), dragonfly|df (a, h, p), fattree|ft
/// (levels, arity), jellyfish|jf (n, k [, seed]), hyperx (a [, b]), torus
/// (k, d), hypercube (d), brown (q), petersen, hoffman-singleton.
TopologyInstance make_topology(const std::string& family,
                               const TopologyParams& params);

// ---- topology spec strings ----------------------------------------------
//
// A *spec* names a fully parameterized topology in one string:
// "family:key=value,key=value" (or a bare "family" for parameterless
// families), e.g. "pf:q=13,p=7" or "dragonfly:a=6,h=3,p=3". Specs are the
// lingua franca of the scenario/suite layer and of `pf_topo --topology` —
// one syntax for every CLI surface and every suites/*.json file.

/// A parsed spec: canonical family name plus its integer parameters.
struct TopologySpec {
  std::string family;
  TopologyParams params;
};

/// Resolves the short family aliases (pf, pfx, sf, df, ft, jf, hs) to
/// their canonical names; canonical and unknown names pass through.
std::string canonical_family(const std::string& family);

/// Parses "family" or "family:key=value,...". Parameter values must be
/// integers and each key may appear once. Throws std::invalid_argument
/// naming the offending spec and item; does not validate the family or
/// parameter names (make_topology does, so unknown families fail with
/// the full families list).
TopologySpec parse_topology_spec(const std::string& spec);

/// The canonical identity string of a spec: canonical family plus its
/// parameters in sorted key order — equal strings iff equal topologies.
/// (The scenario registry's cache key.)
std::string canonical_spec(const TopologySpec& spec);

/// Removes the spec's `p=` parameter — endpoints per router, the
/// scenario/suite meaning — and returns it (-1 when unset; a value
/// outside [0, INT_MAX] throws, as for every parameter), leaving the
/// structural parameters behind for make_topology. Dragonfly keeps `p`
/// in place: there it is structural AND the endpoint count. The one
/// place this convention lives; pf_topo, pf_sim and the scenario
/// registry all go through it.
int extract_endpoints(TopologySpec& spec);

/// Parse-and-construct convenience over parse_topology_spec.
TopologyInstance make_topology(const std::string& spec);

/// One line per family: name, parameters, description.
std::string topology_usage();

}  // namespace pf::topo
