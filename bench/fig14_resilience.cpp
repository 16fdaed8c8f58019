// Fig. 14: fault tolerance — network diameter and average shortest path
// length as links fail, and the disconnection point. For each topology,
// random link-failure runs remove edges in a random order; the run with
// the median disconnection ratio is reported ratio-by-ratio, as in the
// paper. Damage is declared as exp::FailureSpec link kill-rates and
// applied by the shared damage pass — one seed yields nested kill sets
// across rates, exactly the prefix-removal construction of the paper.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "exp/scenario.hpp"
#include "graph/algos.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace pf;

exp::FailureSpec failure_at(int pct, std::uint64_t seed) {
  exp::FailureSpec spec;
  spec.link_rate = pct / 100.0;
  spec.seed = seed;
  return spec;
}

/// Fraction of removed links at which the graph first disconnects under
/// seed's removal order (resolution: steps of 2%). Each step pays one
/// O(E) shuffle inside apply_failures (the declarative spec has no way
/// to hand over a precomputed order); that is deliberate — the cost is
/// dwarfed by the per-step without_edges + connectivity check, and every
/// damaged graph here is bit-reproducible from its (rate, seed) spec.
double disconnection_ratio(const graph::Graph& g, std::uint64_t seed) {
  for (int pct = 2; pct <= 100; pct += 2) {
    const graph::Graph damaged = exp::apply_failures(g, failure_at(pct, seed));
    if (!graph::is_connected(damaged)) return pct / 100.0;
  }
  return 1.0;
}

}  // namespace

int main() {
  using namespace pf;
  const int runs = bench::full_scale() ? 100 : 12;
  const auto topologies = bench::make_table5_topologies();
  std::printf("runs per topology: %d\n", runs);

  const auto run_seed = [](int r) {
    return 0xfa11ULL + 977 * static_cast<std::uint64_t>(r);
  };

  util::print_banner("Fig. 14 - disconnection ratio (median over runs)");
  util::Table summary({"network", "routers", "links", "median disconnect"});

  std::vector<std::uint64_t> median_seeds;
  for (const auto& [name, inst] : topologies) {
    std::vector<double> ratios(runs);
    util::parallel_for(0, static_cast<std::size_t>(runs), [&](std::size_t r) {
      ratios[r] = disconnection_ratio(inst.graph,
                                      run_seed(static_cast<int>(r)));
    });
    // Median run (by disconnection ratio).
    std::vector<int> index(runs);
    for (int r = 0; r < runs; ++r) index[r] = r;
    std::sort(index.begin(), index.end(), [&](const int a, const int b) {
      return ratios[a] < ratios[b];
    });
    const int median = index[runs / 2];
    summary.row(name, inst.graph.num_vertices(), inst.graph.num_edges(),
                ratios[median]);
    median_seeds.push_back(run_seed(median));
  }
  summary.print();

  util::print_banner(
      "Fig. 14 - diameter / avg path length vs link failure ratio (median "
      "run)");
  util::Table detail({"network", "failure ratio", "diameter", "avg path",
                      "connected"});
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const auto& [name, inst] = topologies[i];
    for (int pct = 0; pct <= 70; pct += 10) {
      const graph::Graph damaged =
          exp::apply_failures(inst.graph, failure_at(pct, median_seeds[i]));
      const auto stats = graph::all_pairs_stats(damaged);
      detail.row(name, pct / 100.0, stats.diameter,
                 stats.avg_path_length, stats.connected ? "yes" : "NO");
      if (!stats.connected) break;
    }
  }
  detail.print();
  std::printf(
      "\nPaper: PolarFly's diameter jumps to 4 with ~5%% failures (no 2/3-"
      "hop backup between quadrics and neighbors)\nbut stays at 4 beyond "
      "55%% failures thanks to Theta(q^2) length-4 path diversity "
      "(Tab. VI).\n");
  return 0;
}
