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
#include <string_view>

#include "topo/registry.hpp"
#include "util/cli.hpp"

namespace pf::apps {

/// Collects the spec string and/or registry parameter flags present in
/// `args`, p= (endpoints per router, the suite layer's meaning) included.
/// Nothing is constructed yet. Throws util::CliError / std::invalid_argument
/// with a user-facing message on bad input.
inline topo::TopologySpec topology_from_args(const util::CliArgs& args) {
  topo::TopologySpec spec = topo::parse_topology_spec(args.str("topology"));
  for (const char* key :
       {"q", "a", "b", "h", "p", "n", "k", "d", "lift", "arity", "levels",
        "seed"}) {
    // Only jellyfish has a graph seed; elsewhere pf_sim's --seed is the
    // simulation seed alone, with its full 64-bit range.
    const bool seed = std::string_view(key) == "seed";
    if ((seed && spec.family != "jellyfish") || !args.has(key)) continue;
    // make_topology narrows every parameter but the 64-bit seed to int.
    spec.params[key] = args.integer_in<std::int64_t>(
        key, 0,
        seed ? std::numeric_limits<std::int64_t>::max()
             : std::numeric_limits<int>::max());
  }
  return spec;
}

/// The graph the flags name, constructed; p= only counts where it is
/// structural (dragonfly).
inline topo::TopologyInstance instance_from_args(const util::CliArgs& args) {
  topo::TopologySpec spec = topology_from_args(args);
  topo::extract_endpoints(spec);
  return topo::make_topology(spec.family, spec.params);
}

}  // namespace pf::apps
