// Tab. V: the simulated network configurations. Constructs each topology
// at paper scale and checks router counts and network radixes against
// the table: the binary exits 1 naming every cell that differs.
//
// Network radix is the router graph's degree, the ports that lead to
// other routers. For the Dragonflies that is (a - 1) + h; their router
// radix (a - 1) + h + p also counts the endpoint ports.
#include <cstdio>

#include "core/polarfly.hpp"
#include "graph/algos.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/slimfly.hpp"
#include "util/table.hpp"

namespace {

/// One row of the table: what was built next to what the paper lists.
struct Config {
  const char* network;
  const char* parameters;
  int routers;
  int radix;
  int paper_routers;
  int paper_radix;
  int diameter;
};

}  // namespace

int main() {
  using namespace pf;
  util::print_banner("Tab. V - simulated configurations (paper scale)");

  const core::PolarFly pf(31);
  const topo::SlimFly sf(23);
  const topo::Dragonfly df1(12, 6, 6);
  const topo::Dragonfly df2(6, 27, 10);
  const topo::Jellyfish jf(993, 32, 7);
  const topo::FatTree ft(3, 18);
  const auto diameter = [](const graph::Graph& g) {
    return graph::all_pairs_stats(g).diameter;
  };
  const Config configs[] = {
      {"PolarFly (PF)", "q=31, p=16", pf.num_vertices(), pf.radix(), 993,
       32, diameter(pf.graph())},
      {"Slim Fly (SF)", "q=23, p=18", sf.num_vertices(), sf.radix(), 1058,
       35, diameter(sf.graph())},
      {"Balanced Dragonfly (DF1)", "a=12, h=6, p=6", df1.num_vertices(),
       df1.graph().max_degree(), 876, 17, diameter(df1.graph())},
      {"Equivalent Dragonfly (DF2)", "a=6, h=27, p=10", df2.num_vertices(),
       df2.graph().max_degree(), 978, 32, diameter(df2.graph())},
      {"Jellyfish (JF)", "N=993, k=32, p=16", jf.num_vertices(), jf.radix(),
       993, 32, diameter(jf.graph())},
      {"Fat Tree (FT)", "n=3, k=18 (radix-36 switches)", ft.num_vertices(),
       ft.radix(), 972, 36, diameter(ft.graph())},
  };

  util::Table table({"network", "parameters", "routers", "net radix",
                     "paper routers", "paper radix", "diameter"});
  int mismatches = 0;
  for (const Config& c : configs) {
    table.row(c.network, c.parameters, c.routers, c.radix, c.paper_routers,
              c.paper_radix, c.diameter);
    if (c.routers != c.paper_routers) {
      std::fprintf(stderr, "tab05: %s has %d routers, the paper lists %d\n",
                   c.network, c.routers, c.paper_routers);
      ++mismatches;
    }
    if (c.radix != c.paper_radix) {
      std::fprintf(stderr,
                   "tab05: %s has network radix %d, the paper lists %d\n",
                   c.network, c.radix, c.paper_radix);
      ++mismatches;
    }
  }
  table.print();
  std::printf(
      "\nFat-tree diameter above counts switch-to-switch hops "
      "(endpoint-to-endpoint adds the two access links).\n");
  return mismatches == 0 ? 0 : 1;
}
