// pf_topo — topology construction, analysis and export from the command
// line. The downstream entry point for anyone who wants PolarFly (or a
// baseline) as an adjacency list rather than a C++ API.
//
// Subcommands:
//   generate  --topology F [params] [--format edgelist|dot|csv] [--out P]
//   stats     --topology F [params] [--exact-connectivity]
//   layout    --q Q                      PolarFly rack assignment (Alg. 1)
//   expand    --q Q --method quadric|nonquadric --count N
//   feasible  [--max-radix K=128]        feasible radix/Moore table
//   families                             list supported topologies
#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>

#include "core/expansion.hpp"
#include "core/feasibility.hpp"
#include "core/layout.hpp"
#include "graph/algos.hpp"
#include "graph/centrality.hpp"
#include "graph/export.hpp"
#include "graph/flow.hpp"
#include "graph/partition.hpp"
#include "graph/spectral.hpp"
#include "topo/registry.hpp"
#include "topo_args.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace pf::apps {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();

int usage() {
  std::printf(
      "pf_topo <command> [options]\n"
      "\n"
      "--topology takes a family name plus parameter flags, or a spec\n"
      "string like \"pf:q=13\" — the same syntax pf_sim and suite files\n"
      "use (parameter flags override spec parameters).\n"
      "\n"
      "commands:\n"
      "  generate   construct a topology and write it out\n"
      "             --topology F [family params]\n"
      "             --format edgelist|dot|csv (default edgelist)\n"
      "             --out PATH (default stdout; required for dot/csv)\n"
      "  stats      structural summary (N, radix, diameter, APL, girth,\n"
      "             triangles, bisection, spectral gap)\n"
      "             --topology F [family params] | --from EDGELIST\n"
      "             [--exact-connectivity] [--betweenness]\n"
      "  layout     PolarFly rack assignment (Alg. 1 / even-q stars) --q Q\n"
      "  route      shortest route between two routers\n"
      "             --topology F [family params] --src A --dst B\n"
      "  expand     incremental expansion preview\n"
      "             --q Q --method quadric|nonquadric --count N\n"
      "  feasible   feasible radixes & Moore efficiencies [--max-radix K]\n"
      "  families   list topology families and their parameters\n");
  return 2;
}

int cmd_generate(const util::CliArgs& args) {
  const auto inst = instance_from_args(args);
  const std::string format = args.str_or("format", "edgelist");
  const std::string out = args.str_or("out", "");

  if (format == "edgelist") {
    std::FILE* f = out.empty() ? stdout : std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "# %s  N=%d  radix=%d  edges=%lld\n", inst.label.c_str(),
                 inst.graph.num_vertices(), inst.radix,
                 static_cast<long long>(inst.graph.num_edges()));
    for (const auto& [u, v] : inst.graph.edge_list()) {
      std::fprintf(f, "%d %d\n", u, v);
    }
    if (!out.empty()) std::fclose(f);
  } else if (format == "dot" || format == "csv") {
    if (out.empty()) {
      std::fprintf(stderr, "--format %s requires --out PATH\n",
                   format.c_str());
      return 1;
    }
    const bool ok = format == "dot"
                        ? graph::write_dot(inst.graph, out, {}, inst.family)
                        : graph::write_edge_csv(inst.graph, out);
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s (%s, N=%d)\n", out.c_str(), inst.label.c_str(),
                inst.graph.num_vertices());
  } else {
    std::fprintf(stderr, "unknown --format %s\n", format.c_str());
    return 1;
  }
  return 0;
}

int cmd_stats(const util::CliArgs& args) {
  topo::TopologyInstance inst;
  if (args.has("from")) {
    const std::string path = args.str("from");
    inst.label = path;
    inst.family = "file";
    inst.graph = graph::read_edge_list(path);
    inst.radix = graph::degree_stats(inst.graph).max;
  } else {
    inst = instance_from_args(args);
  }
  const auto& g = inst.graph;
  const auto distances = graph::all_pairs_stats(g);
  const auto degrees = graph::degree_stats(g);
  const auto bisection = graph::bisect(g);
  const auto spectrum = graph::estimate_spectrum(g);

  util::print_banner(inst.label);
  util::Table table({"metric", "value"});
  table.row("routers", g.num_vertices());
  table.row("links", static_cast<std::int64_t>(g.num_edges()));
  table.row("radix (max degree)", degrees.max);
  table.row("min degree", degrees.min);
  table.row("connected", distances.connected ? "yes" : "no");
  table.row("diameter", distances.diameter);
  table.row("avg path length", distances.avg_path_length);
  table.row("girth", graph::girth(g));
  table.row("triangles", graph::count_triangles(g));
  table.row("bisection cut fraction", bisection.cut_fraction);
  table.row("lambda1", spectrum.lambda1);
  table.row("lambda2", spectrum.lambda2);
  table.row("moore bound (D=2)",
            static_cast<std::int64_t>(core::moore_bound(degrees.max)));
  table.row("moore efficiency",
            static_cast<double>(g.num_vertices()) /
                static_cast<double>(core::moore_bound(degrees.max)));
  if (args.has("exact-connectivity")) {
    table.row("edge connectivity", graph::edge_connectivity(g));
    table.row("vertex connectivity", graph::vertex_connectivity(g));
  }
  if (args.has("betweenness")) {
    // Relay-load balance: max/mean vertex betweenness — 1.0 means every
    // router forwards an equal share of through-traffic.
    const auto scores = graph::vertex_betweenness(g);
    double sum = 0.0;
    double peak = 0.0;
    for (const double s : scores) {
      sum += s;
      peak = std::max(peak, s);
    }
    const double mean = sum / static_cast<double>(scores.size());
    table.row("relay load (mean betweenness)", mean);
    table.row("relay imbalance (max/mean)", mean > 0 ? peak / mean : 1.0);
  }
  table.print();

  if (inst.polarfly) {
    const auto& pf = *inst.polarfly;
    std::printf("\nvertex classes: %zu quadrics (W), %zu V1, %zu V2\n",
                pf.quadrics().size(),
                pf.vertices_of_class(core::VertexClass::V1).size(),
                pf.vertices_of_class(core::VertexClass::V2).size());
  }
  return 0;
}

int cmd_layout(const util::CliArgs& args) {
  const core::PolarFly pf(args.integer_in("q", 2, kIntMax));
  const bool even = pf.q() % 2 == 0;
  const auto layout =
      even ? core::make_layout_even(pf) : core::make_layout(pf);

  std::printf("PolarFly q=%u layout (%s %d)\n", pf.q(),
              even ? "nucleus" : "starter quadric",
              layout.starter_quadric);
  util::Table table({"cluster", "kind", "center", "size", "vertices"});
  for (std::size_t c = 0; c < layout.clusters.size(); ++c) {
    std::string vertices;
    for (const int v : layout.clusters[c]) {
      if (!vertices.empty()) vertices += " ";
      vertices += std::to_string(v);
    }
    const char* kind = c == 0 ? (even ? "nucleus" : "quadrics")
                              : (even ? "star" : "fan");
    table.row(static_cast<std::int64_t>(c), kind, layout.centers[c],
              static_cast<std::int64_t>(layout.clusters[c].size()),
              vertices);
  }
  table.print();

  if (even) {
    std::printf(
        "\ninter-rack links: C0-Ci = 1, Ci-Cj = %d (i, j >= 1)\n",
        static_cast<int>(pf.q()) - 1);
  } else {
    std::printf(
        "\ninter-rack links: C0-Ci = %d, Ci-Cj = %d (i, j >= 1)\n",
        static_cast<int>(pf.q()) + 1, static_cast<int>(pf.q()) - 2);
  }
  return 0;
}

int cmd_expand(const util::CliArgs& args) {
  const core::PolarFly pf(args.integer_in("q", 2, kIntMax));
  const auto layout = core::make_layout(pf);
  const std::string method = args.str("method");
  const int count = args.integer_in("count", 0, kIntMax);

  const auto expanded =
      method == "quadric"
          ? core::expand_quadric(pf, layout, count)
          : method == "nonquadric"
              ? core::expand_nonquadric(pf, layout, count)
              : throw util::CliError("--method must be quadric|nonquadric");

  const auto base_stats = graph::all_pairs_stats(pf.graph());
  const auto stats = graph::all_pairs_stats(expanded.graph);
  const auto degrees = graph::degree_stats(expanded.graph);

  util::print_banner("expanded pf(q=" + std::to_string(pf.q()) + ") +" +
                     std::to_string(count) + " " + method + " clusters");
  util::Table table({"metric", "base", "expanded"});
  table.row("routers", pf.num_vertices(), expanded.graph.num_vertices());
  table.row("max degree", pf.radix(),
            degrees.max);
  table.row("diameter", base_stats.diameter, stats.diameter);
  table.row("avg path length", base_stats.avg_path_length,
            stats.avg_path_length);
  table.print();
  return 0;
}

int cmd_route(const util::CliArgs& args) {
  const auto inst = instance_from_args(args);
  const int src = args.integer_in("src", 0, kIntMax);
  const int dst = args.integer_in("dst", 0, kIntMax);
  const int n = inst.graph.num_vertices();
  if (src >= n || dst >= n || src == dst) {
    throw util::CliError("--src/--dst must be distinct vertices in [0, " +
                         std::to_string(n) + ")");
  }

  if (inst.polarfly && !inst.graph.has_edge(src, dst)) {
    // PolarFly: the unique minimal route falls out of the algebra.
    const auto& pf = *inst.polarfly;
    const int mid = pf.intermediate(src, dst);
    const auto a = pf.coordinates(src);
    const auto m = pf.coordinates(mid);
    const auto b = pf.coordinates(dst);
    std::printf(
        "%d [%u,%u,%u] -> %d [%u,%u,%u] -> %d [%u,%u,%u]\n"
        "(2 hops; intermediate = normalized cross product, SS IV-D)\n",
        src, a[0], a[1], a[2], mid, m[0], m[1], m[2], dst, b[0], b[1],
        b[2]);
    return 0;
  }

  // General topology: one BFS shortest path.
  const auto dist = graph::bfs_distances(inst.graph, dst);
  if (dist[src] < 0) {
    std::printf("%d and %d are disconnected\n", src, dst);
    return 1;
  }
  std::printf("%d", src);
  int at = src;
  while (at != dst) {
    for (const std::int32_t next : inst.graph.neighbors(at)) {
      if (dist[next] == dist[at] - 1) {
        at = next;
        std::printf(" -> %d", at);
        break;
      }
    }
  }
  std::printf("  (%d hops)\n", dist[src]);
  return 0;
}

int cmd_feasible(const util::CliArgs& args) {
  const auto max_radix = static_cast<std::uint32_t>(
      args.integer_in("max-radix", 128, 0, kIntMax));
  util::print_banner("feasible PolarFly configurations, radix <= " +
                     std::to_string(max_radix));
  util::Table table({"q", "radix", "routers", "moore_efficiency"});
  for (const auto& config : core::polarfly_configs(max_radix)) {
    table.row(config.q, config.radix,
              static_cast<std::int64_t>(config.nodes),
              config.moore_efficiency);
  }
  table.print();
  return 0;
}

int run(int argc, char** argv) {
  const util::CliArgs args = util::CliArgs::parse(argc, argv);
  const std::string& command = args.command();
  int status;
  if (command == "generate") {
    status = cmd_generate(args);
  } else if (command == "stats") {
    status = cmd_stats(args);
  } else if (command == "layout") {
    status = cmd_layout(args);
  } else if (command == "expand") {
    status = cmd_expand(args);
  } else if (command == "route") {
    status = cmd_route(args);
  } else if (command == "feasible") {
    status = cmd_feasible(args);
  } else if (command == "families") {
    std::printf("%s", topo::topology_usage().c_str());
    status = 0;
  } else {
    return usage();
  }
  for (const auto& key : args.unused_keys()) {
    std::fprintf(stderr, "warning: unused option --%s\n", key.c_str());
  }
  for (const auto& operand : args.unused_positionals()) {
    std::fprintf(stderr, "warning: unused argument '%s'\n",
                 operand.c_str());
  }
  return status;
}

}  // namespace
}  // namespace pf::apps

int main(int argc, char** argv) {
  try {
    return pf::apps::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf_topo: %s\n", e.what());
    return 1;
  }
}
