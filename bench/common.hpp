// Bench-local conveniences for the analytic figure/table benches: the
// reduced/full scale switch and the Tab. V configuration set. The
// sweep-driven figures and ablations are entries of
// suites/paper_figs.json, run with `pf_sim suite`.
//
// Set PF_BENCH_FULL=1 to run the paper-scale configurations.
#pragma once

#include <array>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "topo/registry.hpp"

namespace pf::bench {

inline bool full_scale() {
  const char* env = std::getenv("PF_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// One Tab. V configuration: the name the tables print and its graph.
struct NamedTopology {
  std::string name;
  topo::TopologyInstance inst;
};

/// The Tab. V configuration set (or its reduced-scale twin), graphs only:
/// each spec is the suite-file syntax, its p= the endpoints per router.
inline std::vector<NamedTopology> make_table5_topologies() {
  using Table = std::array<std::pair<const char*, const char*>, 6>;
  static const Table kFull = {{
      {"PF", "pf:q=31,p=16"},               // 993 @ 32
      {"SF", "sf:q=23,p=18"},               // 1058 @ 35
      {"DF1", "df:a=12,h=6,p=6"},           // 876 @ 17
      {"DF2", "df:a=6,h=27,p=10"},          // 978 @ 32
      {"JF", "jf:n=993,k=32,p=16"},         // 993 @ 32
      {"FT", "ft:levels=3,arity=18,p=18"},  // 972 switches
  }};
  static const Table kReduced = {{
      {"PF", "pf:q=13,p=7"},              // 183 @ 14
      {"SF", "sf:q=11,p=8"},              // 242 @ 16
      {"DF1", "df:a=6,h=3,p=3"},          // 114 @ 8
      {"DF2", "df:a=4,h=11,p=5"},         // 180 @ 14
      {"JF", "jf:n=183,k=14,p=7"},        // 183 @ 14
      {"FT", "ft:levels=3,arity=6,p=6"},  // 108 switches
  }};
  std::vector<NamedTopology> out;
  for (const auto& [name, spec] : full_scale() ? kFull : kReduced) {
    out.push_back({name, topo::make_topology(spec)});
  }
  return out;
}

}  // namespace pf::bench
