// Fig. 12: bisection bandwidth — the fraction of links crossing a balanced
// bisection (found by the multilevel partitioner, our METIS substitute) as
// a function of network radix. PolarFly approaches the optimal 50%,
// beating Slim Fly (~33%) and Dragonfly (~17%); fat trees are 50% by
// construction.
#include <cstdio>

#include "common.hpp"
#include "graph/partition.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/hyperx.hpp"
#include "topo/jellyfish.hpp"
#include "topo/slimfly.hpp"
#include "util/table.hpp"

namespace {

using namespace pf;

void report(util::Table& table, const std::string& series, int radix,
            const graph::Graph& g) {
  graph::BisectionOptions options;
  options.seed = 0xb15ec7ULL;
  const auto result = graph::bisect(g, options);
  table.row(series, radix, g.num_vertices(), g.num_edges(),
            result.cut_fraction);
}

}  // namespace

int main() {
  using namespace pf;
  const std::uint32_t max_radix = bench::full_scale() ? 128 : 64;
  util::print_banner(
      "Fig. 12 - fraction of links in a balanced bisection vs radix");
  util::Table table({"series", "radix", "routers", "links", "cut fraction"});

  for (const std::uint32_t q :
       {7u, 11u, 17u, 23u, 31u, 43u, 61u, 89u, 127u}) {
    if (q + 1 > max_radix) break;
    const core::PolarFly pf(q);
    report(table, "PolarFly", pf.radix(), pf.graph());
  }
  for (const std::uint32_t q : {5u, 11u, 17u, 23u, 29u, 43u, 83u}) {
    const topo::SlimFly sf(q);
    if (static_cast<std::uint32_t>(sf.radix()) > max_radix) break;
    report(table, "SlimFly", sf.radix(), sf.graph());
  }
  for (const int h : {2, 3, 4, 6, 8, 12}) {
    const topo::Dragonfly df = topo::Dragonfly::balanced(h);
    if (static_cast<std::uint32_t>(df.radix()) > max_radix ||
        df.num_vertices() > (bench::full_scale() ? 40000 : 12000)) {
      break;
    }
    report(table, "Dragonfly", df.radix(), df.graph());
  }
  for (const std::uint32_t q : {7u, 11u, 17u, 23u, 31u, 43u, 61u}) {
    if (q + 1 > max_radix) break;
    const core::PolarFly pf(q);
    const topo::Jellyfish jf(pf.num_vertices(), pf.radix(), 0x1e11ULL);
    report(table, "Jellyfish", jf.radix(), jf.graph());
  }
  for (const int arity : {4, 8, 12, 18}) {
    const topo::FatTree ft(3, arity);
    if (2 * arity > static_cast<int>(max_radix)) break;
    report(table, "FatTree", ft.radix(), ft.graph());
  }
  table.print();
  std::printf(
      "\nPaper: PolarFly exceeds 40%% beyond radix 18, approaching the "
      "optimal 50%%; SlimFly ~33%%, Dragonfly ~17%%.\n");
  return 0;
}
