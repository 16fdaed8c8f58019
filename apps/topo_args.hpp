// Shared app helper: read --topology into a TopologySpec. The flag
// accepts either a bare family plus per-family parameter flags (see
// topo::topology_usage()) or a full spec string — "pf:q=13,p=7" — the
// same syntax the scenario/suite layer uses, so one topology name works
// across pf_topo, pf_sim and suites/*.json. Parameter flags layer on top
// of (and override) spec parameters.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "topo/registry.hpp"
#include "util/cli.hpp"

namespace pf::apps {

/// Collects the spec string and/or registry parameter flags present in
/// `args`, p= (endpoints per router, the suite layer's meaning) included.
/// --seed is not among them: pf_sim's --seed is the simulation seed, and
/// a Jellyfish graph seed comes from the spec string, as in a suite.
/// Nothing is constructed yet. Throws util::CliError / std::invalid_argument
/// with a user-facing message on bad input.
inline topo::TopologySpec topology_from_args(const util::CliArgs& args) {
  topo::TopologySpec spec = topo::parse_topology_spec(args.str("topology"));
  for (const char* key :
       {"q", "a", "b", "h", "p", "n", "k", "d", "arity", "levels"}) {
    if (!args.has(key)) continue;
    // make_topology narrows each of these parameters to int.
    spec.params[key] =
        args.integer_in<std::int64_t>(key, 0, std::numeric_limits<int>::max());
  }
  return spec;
}

/// The graph the flags name, constructed (pf_topo): here --seed is the
/// Jellyfish graph seed, the only seed a bare topology has. p= only
/// counts where it is structural (dragonfly).
inline topo::TopologyInstance instance_from_args(const util::CliArgs& args) {
  topo::TopologySpec spec = topology_from_args(args);
  if (spec.family == "jellyfish" && args.has("seed")) {
    spec.params["seed"] = args.integer_in<std::int64_t>(
        "seed", 0, std::numeric_limits<std::int64_t>::max());
  }
  topo::extract_endpoints(spec);
  return topo::make_topology(spec.family, spec.params);
}

}  // namespace pf::apps
