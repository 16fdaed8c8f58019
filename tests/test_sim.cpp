// Simulator subsystem: oracle correctness, route validity for every
// scheme, traffic patterns, deadlock verification, and end-to-end
// latency/throughput sanity at low load.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/polarfly.hpp"
#include "exp/engine.hpp"
#include "graph/algos.hpp"
#include "sim/deadlock.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"

namespace {

using namespace pf;

struct PfFixture {
  PfFixture()
      : pf(5),
        oracle(pf.graph()),
        endpoints(sim::uniform_endpoints(pf.num_vertices(), 3)),
        pattern(sim::terminal_routers(endpoints)) {}

  core::PolarFly pf;
  sim::DistanceOracle oracle;
  std::vector<int> endpoints;
  sim::UniformTraffic pattern;
};

void expect_valid_route(const graph::Graph& g, const sim::Route& route,
                        int src, int dst) {
  ASSERT_GE(route.len, 1);
  EXPECT_EQ(route.hops[0], src);
  EXPECT_EQ(route.back(), dst);
  std::set<int> seen;
  for (int h = 0; h + 1 < route.len; ++h) {
    EXPECT_TRUE(g.has_edge(route.hops[static_cast<std::size_t>(h)],
                           route.hops[static_cast<std::size_t>(h) + 1]))
        << "hop " << h;
  }
}

TEST(DistanceOracle, MatchesBfs) {
  PfFixture fx;
  EXPECT_EQ(fx.oracle.diameter(), 2);
  const auto dist = graph::bfs_distances(fx.pf.graph(), 3);
  for (int v = 0; v < fx.pf.num_vertices(); ++v) {
    EXPECT_EQ(fx.oracle.distance(3, v), dist[static_cast<std::size_t>(v)]);
  }
}

TEST(DistanceOracle, MatchesBfsEverywherePf7AndTorus) {
  const core::PolarFly pf7(7);
  const topo::Torus torus(5, 2);
  for (const graph::Graph* g : {&pf7.graph(), &torus.graph()}) {
    const sim::DistanceOracle oracle(*g);
    int max_seen = 0;
    for (int s = 0; s < g->num_vertices(); ++s) {
      const auto dist = graph::bfs_distances(*g, s);
      for (int v = 0; v < g->num_vertices(); ++v) {
        ASSERT_EQ(oracle.distance(s, v), dist[static_cast<std::size_t>(v)])
            << "s=" << s << " v=" << v;
        max_seen = std::max(max_seen, dist[static_cast<std::size_t>(v)]);
      }
    }
    EXPECT_EQ(oracle.diameter(), max_seen);
  }
}

TEST(DistanceOracle, BothCellWidthsMatchBfsEverywhere) {
  // The matrix holds int8 cells unless the diameter exceeds 127. A
  // 300-router ring (diameter 150) forces the int16 fallback, the 5x5
  // torus does not; both must agree with BFS on every ordered pair and
  // sample minimal paths through either width.
  const topo::Torus torus(5, 2);
  const topo::Torus ring(300, 1);
  for (const graph::Graph* g : {&torus.graph(), &ring.graph()}) {
    const sim::DistanceOracle oracle(*g);
    const int n = g->num_vertices();
    const std::size_t cell = oracle.diameter() > 127 ? 2 : 1;
    EXPECT_EQ(oracle.matrix_bytes(),
              cell * static_cast<std::size_t>(n) * static_cast<std::size_t>(n))
        << "n=" << n;
    int max_seen = 0;
    for (int s = 0; s < n; ++s) {
      const auto dist = graph::bfs_distances(*g, s);
      for (int v = 0; v < n; ++v) {
        ASSERT_EQ(oracle.distance(s, v), dist[static_cast<std::size_t>(v)])
            << "n=" << n << " s=" << s << " v=" << v;
        max_seen = std::max(max_seen, dist[static_cast<std::size_t>(v)]);
      }
    }
    EXPECT_EQ(oracle.diameter(), max_seen);
    // A Route holds kMaxLen routers, so only the ring's nearer pairs fit.
    util::Rng rng(123);
    for (int s = 0; s < n; s += 7) {
      for (int d = 0; d < n; ++d) {
        if (oracle.distance(s, d) >= sim::Route::kMaxLen) continue;
        sim::Route route;
        oracle.sample_min_path(*g, s, d, rng, route);
        expect_valid_route(*g, route, s, d);
        ASSERT_EQ(route.len - 1, oracle.distance(s, d))
            << "s=" << s << " d=" << d;
      }
    }
  }
  EXPECT_EQ(sim::DistanceOracle(ring.graph()).diameter(), 150);
}

TEST(DistanceOracle, SampleMinPathIsMinimalAndValid) {
  const core::PolarFly pf7(7);
  const topo::Torus torus(5, 2);
  util::Rng rng(17);
  for (const graph::Graph* g : {&pf7.graph(), &torus.graph()}) {
    const sim::DistanceOracle oracle(*g);
    for (int s = 0; s < g->num_vertices(); s += 3) {
      for (int d = 0; d < g->num_vertices(); d += 5) {
        sim::Route route;
        oracle.sample_min_path(*g, s, d, rng, route);
        ASSERT_GE(route.len, 1);
        EXPECT_EQ(route.hops[0], s);
        EXPECT_EQ(route.back(), d);
        EXPECT_EQ(route.len - 1, oracle.distance(s, d));
        for (int h = 0; h + 1 < route.len; ++h) {
          EXPECT_TRUE(
              g->has_edge(route.hops[static_cast<std::size_t>(h)],
                          route.hops[static_cast<std::size_t>(h) + 1]));
        }
      }
    }
  }
}

TEST(Routing, AllSchemesProduceValidRoutes) {
  PfFixture fx;
  const sim::SimConfig config;
  std::vector<std::unique_ptr<sim::RoutingAlgorithm>> schemes;
  schemes.push_back(
      std::make_unique<sim::MinimalRouting>(fx.pf.graph(), fx.oracle));
  schemes.push_back(
      std::make_unique<sim::ValiantRouting>(fx.pf.graph(), fx.oracle));
  schemes.push_back(
      std::make_unique<sim::CompactValiantRouting>(fx.pf.graph(),
                                                   fx.oracle));
  schemes.push_back(std::make_unique<sim::UgalRouting>(fx.pf.graph(),
                                                       fx.oracle, false));
  schemes.push_back(std::make_unique<sim::UgalRouting>(
      fx.pf.graph(), fx.oracle, true, 2.0 / 3.0));
  schemes.push_back(
      std::make_unique<sim::AlgebraicPolarFlyRouting>(fx.pf));

  const sim::MinimalRouting minimal(fx.pf.graph(), fx.oracle);
  const sim::Network idle(fx.pf.graph(), fx.endpoints, minimal, fx.pattern,
                          config, 0.0);
  util::Rng rng(7);
  sim::Route route;
  for (const auto& scheme : schemes) {
    EXPECT_FALSE(scheme->name().empty());
    EXPECT_GE(scheme->max_hops(), 2);
    for (int s = 0; s < fx.pf.num_vertices(); s += 5) {
      for (int d = 1; d < fx.pf.num_vertices(); d += 7) {
        if (s == d) continue;
        route.clear();
        scheme->route(idle, s, d, rng, route);
        expect_valid_route(fx.pf.graph(), route, s, d);
        EXPECT_LE(route.len - 1, scheme->max_hops()) << scheme->name();
      }
    }
  }
}

TEST(Routing, MinimalIsShortest) {
  PfFixture fx;
  const sim::MinimalRouting minimal(fx.pf.graph(), fx.oracle);
  const sim::Network idle(fx.pf.graph(), fx.endpoints, minimal, fx.pattern,
                          sim::SimConfig{}, 0.0);
  util::Rng rng(11);
  sim::Route route;
  for (int s = 0; s < fx.pf.num_vertices(); s += 3) {
    for (int d = 0; d < fx.pf.num_vertices(); d += 4) {
      if (s == d) continue;
      route.clear();
      minimal.route(idle, s, d, rng, route);
      EXPECT_EQ(route.len - 1, fx.oracle.distance(s, d));
    }
  }
}

/// Folds the eight little-endian bytes of `value` into an FNV-1a hash.
void fnv1a(std::uint64_t& h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a of every route VAL, CVAL, UGAL and UGAL-PF draw over all
/// ordered router pairs, then of the RNG's next draw (its final state),
/// recorded before route() and route_degraded() shared one body. The
/// degraded view isolates router 5 and drops three links of router 1,
/// so unreachable destinations and intermediates are pinned too. Rows:
/// PolarFly q=7, then the 5x5 torus.
struct AdaptivePin {
  std::uint64_t intact[4];
  std::uint64_t degraded[4];
};
constexpr AdaptivePin kAdaptivePins[] = {
    {{0x6102810ae3164d44ULL, 0xce35cf33851f871bULL, 0xda1b7d7d8e5b17bcULL,
      0xeb74c9b12fa55ae4ULL},
     {0x1c4f842d8caac1adULL, 0x6bbaca564ea5f773ULL, 0x97b12dd1daa49142ULL,
      0xa88532ca9d01ff00ULL}},
    {{0x5333ec817ff0a7a4ULL, 0x65a8c38882f2d5ceULL, 0xea2d0d23a347ace3ULL,
      0xa7b1dc5c3f766becULL},
     {0x4e269ae2e68ec212ULL, 0xe0665c70e3321569ULL, 0xb653566dc8cc2fdbULL,
      0x3eb4d4c70719afe4ULL}},
};

/// One kAdaptivePins row half for (g, oracle): the hashes of VAL, CVAL,
/// UGAL and UGAL-PF, drawn through route() when `view` is null, else
/// through route_degraded() on (`view`, `view_oracle`).
std::array<std::uint64_t, 4> adaptive_route_hashes(
    const graph::Graph& g, const sim::DistanceOracle& oracle,
    const graph::Graph* view = nullptr,
    const sim::DistanceOracle* view_oracle = nullptr) {
  const int n = g.num_vertices();
  const auto endpoints = sim::uniform_endpoints(n, 2);
  const sim::UniformTraffic pattern(sim::terminal_routers(endpoints));
  const sim::MinimalRouting minimal(g, oracle);
  const sim::Network idle(g, endpoints, minimal, pattern, sim::SimConfig{},
                          0.0);
  const sim::ValiantRouting val(g, oracle);
  const sim::CompactValiantRouting cval(g, oracle);
  const sim::UgalRouting ugal(g, oracle, false);
  const sim::UgalRouting ugal_pf(g, oracle, true);
  const sim::RoutingAlgorithm* schemes[] = {&val, &cval, &ugal, &ugal_pf};
  std::array<std::uint64_t, 4> hashes{};
  for (std::size_t k = 0; k < 4; ++k) {
    util::Rng rng(779712);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        sim::Route route;
        if (view != nullptr) {
          schemes[k]->route_degraded(idle, *view, *view_oracle, s, d, rng,
                                     route);
        } else {
          schemes[k]->route(idle, s, d, rng, route);
        }
        fnv1a(h, static_cast<std::uint64_t>(route.len));
        for (int i = 0; i < route.len; ++i) {
          fnv1a(h, static_cast<std::uint64_t>(
                       route.hops[static_cast<std::size_t>(i)]));
        }
      }
    }
    fnv1a(h, rng.next());
    hashes[k] = h;
  }
  return hashes;
}

constexpr const char* kAdaptiveSchemes[] = {"VAL", "CVAL", "UGAL",
                                            "UGAL-PF"};

TEST(Routing, AdaptiveRoutesArePinned) {
  const core::PolarFly pf7(7);
  const topo::Torus torus(5, 2);
  const graph::Graph* graphs[] = {&pf7.graph(), &torus.graph()};
  for (std::size_t gi = 0; gi < 2; ++gi) {
    const graph::Graph& g = *graphs[gi];
    const int n = g.num_vertices();
    std::vector<graph::Edge> live;
    int dropped = 0;
    for (int u = 0; u < n; ++u) {
      for (const std::int32_t v : g.neighbors(u)) {
        if (u >= v || u == 5 || v == 5) continue;
        if (u == 1 && dropped < 3) {
          ++dropped;
          continue;
        }
        live.emplace_back(u, v);
      }
    }
    const graph::Graph view = graph::Graph::from_edges(n, std::move(live));
    const sim::DistanceOracle oracle(g);
    const sim::DistanceOracle view_oracle(view);
    const auto intact = adaptive_route_hashes(g, oracle);
    const auto degraded =
        adaptive_route_hashes(g, oracle, &view, &view_oracle);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(intact[k], kAdaptivePins[gi].intact[k])
          << kAdaptiveSchemes[k] << " graph " << gi << " intact 0x"
          << std::hex << intact[k];
      EXPECT_EQ(degraded[k], kAdaptivePins[gi].degraded[k])
          << kAdaptiveSchemes[k] << " graph " << gi << " degraded 0x"
          << std::hex << degraded[k];
    }
  }
}

// ---- the algebraic ER_q oracle ---------------------------------------------

TEST(PfOracle, MatchesBfsEverywhere) {
  // Prime and prime-power fields, even q, and quadric endpoints: over
  // every ordered pair the algebraic oracle gives the BFS matrix's
  // distance, the same sampled minimal route, and leaves the RNG in the
  // same state (compared through its next draw).
  for (const std::uint32_t q : {2u, 3u, 4u, 5u, 7u, 8u, 9u, 11u, 13u}) {
    const auto pf = std::make_shared<const core::PolarFly>(q);
    const sim::DistanceOracle algebraic(pf);
    const sim::DistanceOracle bfs(pf->graph());
    EXPECT_EQ(algebraic.matrix_bytes(), 0u) << "q=" << q;
    EXPECT_GT(bfs.matrix_bytes(), 0u) << "q=" << q;
    EXPECT_EQ(algebraic.diameter(), bfs.diameter()) << "q=" << q;
    util::Rng rng_algebraic(q);
    util::Rng rng_bfs(q);
    const int n = pf->num_vertices();
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        ASSERT_EQ(algebraic.distance(s, d), bfs.distance(s, d))
            << "q=" << q << " s=" << s << " d=" << d;
        sim::Route a;
        sim::Route b;
        algebraic.sample_min_path(pf->graph(), s, d, rng_algebraic, a);
        bfs.sample_min_path(pf->graph(), s, d, rng_bfs, b);
        ASSERT_EQ(a.len, b.len) << "q=" << q << " s=" << s << " d=" << d;
        for (int h = 0; h < a.len; ++h) {
          ASSERT_EQ(a.hops[static_cast<std::size_t>(h)],
                    b.hops[static_cast<std::size_t>(h)])
              << "q=" << q << " s=" << s << " d=" << d << " hop " << h;
        }
        ASSERT_EQ(rng_algebraic.next(), rng_bfs.next())
            << "q=" << q << " s=" << s << " d=" << d;
      }
    }
  }
}

TEST(PfOracle, AdaptiveRoutesMatchBfsPins) {
  // The intact rows of Routing.AdaptiveRoutesArePinned's PolarFly pins,
  // drawn through the algebraic oracle instead of the BFS matrix.
  const auto pf7 = std::make_shared<const core::PolarFly>(7);
  const sim::DistanceOracle oracle(pf7);
  const auto intact = adaptive_route_hashes(pf7->graph(), oracle);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(intact[k], kAdaptivePins[0].intact[k])
        << kAdaptiveSchemes[k] << " 0x" << std::hex << intact[k];
  }
}

TEST(PfOracle, ClosedFormDistances) {
  // ER_q has q(q+1)^2 directed links and every other pair of distinct
  // routers is at distance 2, so the mean distance is
  // 2 - q(q+1)^2 / (N(N-1)) with N = q^2 + q + 1.
  const struct {
    std::uint32_t q;
    double mean;
  } cases[] = {{7, 1.85965}, {13, 1.92350}};
  for (const auto& c : cases) {
    const sim::DistanceOracle oracle(
        std::make_shared<const core::PolarFly>(c.q));
    const std::int64_t q = c.q;
    const std::int64_t n = q * q + q + 1;
    std::int64_t adjacent = 0;
    std::int64_t total = 0;
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        const int dist = oracle.distance(s, d);
        adjacent += dist == 1;
        total += dist;
      }
    }
    EXPECT_EQ(adjacent, q * (q + 1) * (q + 1)) << "q=" << q;
    const double mean =
        static_cast<double>(total) / static_cast<double>(n * (n - 1));
    EXPECT_DOUBLE_EQ(mean, 2.0 - static_cast<double>(q * (q + 1) * (q + 1)) /
                                     static_cast<double>(n * (n - 1)))
        << "q=" << q;
    EXPECT_NEAR(mean, c.mean, 5e-6) << "q=" << q;
  }
}

TEST(Oracle, MinMeanHopsMatchesClosedForm) {
  // Under MIN routing on ER_q every packet takes its unique minimal path,
  // so its hop count is the router distance: 0 to a terminal on its own
  // router, 1 to one of the q(q+1)^2 / N neighbours on average, else 2.
  // With p terminals per router and destinations uniform over the other
  // Np - 1 terminals the expected measured mean_hops is
  // (N-1)p/(Np-1) x (2 - q(q+1)^2/(N(N-1))). Destinations are drawn
  // independently per packet, so the sample mean's standard error is
  // sqrt(Var(hops) / delivered); the bound is 5 of them.
  for (const std::uint32_t q : {7u, 13u}) {
    const int p = static_cast<int>(q + 1) / 2;
    const auto setup = *exp::ScenarioRegistry::shared().topology(
        "pf:q=" + std::to_string(q) + ",p=" + std::to_string(p));
    const sim::MinimalRouting routing(setup.graph, *setup.oracle);
    const sim::UniformTraffic pattern(setup.terminals());
    sim::SimConfig config;
    config.warmup_cycles = 200;
    config.measure_cycles = 2000;
    config.drain_cycles = 2000;
    sim::Network net(setup.graph, setup.endpoints, routing, pattern, config,
                     0.05);
    net.run_phases();
    ASSERT_TRUE(net.converged()) << "q=" << q;

    const double n = static_cast<double>(q * q + q + 1);
    const double adjacent = static_cast<double>(q * (q + 1) * (q + 1));
    const double others = n * p - 1.0;
    const double p1 = p * (adjacent / n) / others;
    const double p2 = p * (n - 1.0 - adjacent / n) / others;
    const double mean = p1 + 2.0 * p2;
    EXPECT_NEAR(mean,
                (n - 1.0) * p / others * (2.0 - adjacent / (n * (n - 1.0))),
                1e-12);
    const double variance = p1 + 4.0 * p2 - mean * mean;
    const auto delivered = static_cast<double>(net.delivered_packets());
    ASSERT_GT(delivered, 1000.0) << "q=" << q;
    const double stderr_mean = std::sqrt(variance / delivered);
    EXPECT_NEAR(net.mean_hops(), mean, 5.0 * stderr_mean)
        << "q=" << q << " delivered=" << delivered;
  }
}

TEST(Routing, FatTreeNca) {
  const topo::FatTree ft(3, 4);
  const sim::FatTreeNcaRouting nca(ft);
  std::vector<int> endpoints(static_cast<std::size_t>(ft.num_vertices()), 0);
  for (int leaf = 0; leaf < ft.switches_per_level(); ++leaf) {
    endpoints[static_cast<std::size_t>(ft.switch_id(0, leaf))] = ft.arity();
  }
  const sim::UniformTraffic pattern(sim::terminal_routers(endpoints));
  const sim::Network idle(ft.graph(), endpoints, nca, pattern,
                          sim::SimConfig{}, 0.0);
  util::Rng rng(3);
  sim::Route route;
  for (int a = 0; a < ft.switches_per_level(); ++a) {
    for (int b = 0; b < ft.switches_per_level(); b += 3) {
      if (a == b) continue;
      route.clear();
      nca.route(idle, ft.switch_id(0, a), ft.switch_id(0, b), rng, route);
      expect_valid_route(ft.graph(), route, ft.switch_id(0, a),
                         ft.switch_id(0, b));
      EXPECT_EQ(route.len - 1, 2 * ft.nca_level(a, b));
    }
  }
}

TEST(Traffic, PatternsArePermutations) {
  PfFixture fx;
  const auto terminals = sim::terminal_routers(fx.endpoints);
  const int t = static_cast<int>(terminals.size());
  util::Rng rng(5);

  const auto check_permutation = [t](const sim::PermutationTraffic& perm) {
    std::set<int> targets;
    for (int i = 0; i < t; ++i) {
      util::Rng dummy(0);
      const int d = perm.destination(i, dummy);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, t);
      targets.insert(d);
    }
    EXPECT_EQ(static_cast<int>(targets.size()), t);
  };
  check_permutation(sim::PermutationTraffic::tornado(terminals));
  check_permutation(sim::PermutationTraffic::random(terminals, 77));
  check_permutation(sim::PermutationTraffic::bit_complement(terminals));
  const auto perm1 = sim::PermutationTraffic::at_distance(
      fx.pf.graph(), terminals, 1, 77);
  check_permutation(perm1);
  EXPECT_EQ(perm1.name(), "Perm1Hop");
  const auto perm2 = sim::PermutationTraffic::at_distance(
      fx.pf.graph(), terminals, 2, 77);
  check_permutation(perm2);
  EXPECT_EQ(perm2.name(), "Perm2Hop");
  // The permutation() accessor and destination() agree slot for slot,
  // and Perm1Hop pairs mostly adjacent routers.
  int at_one = 0;
  for (int i = 0; i < t; ++i) {
    util::Rng dummy(0);
    const int d = perm1.destination(i, dummy);
    EXPECT_EQ(d, perm1.permutation()[static_cast<std::size_t>(i)]);
    if (fx.oracle.distance(terminals[static_cast<std::size_t>(i)],
                           perm1.router_of(d)) == 1) {
      ++at_one;
    }
  }
  EXPECT_GE(at_one, t * 9 / 10);
  // Almost every pair should actually be at distance 2.
  int at_two = 0;
  for (int i = 0; i < t; ++i) {
    util::Rng dummy(0);
    const int d = perm2.destination(i, dummy);
    if (fx.oracle.distance(terminals[static_cast<std::size_t>(i)],
                           perm2.router_of(d)) == 2) {
      ++at_two;
    }
  }
  EXPECT_GE(at_two, t * 9 / 10);

  // randperm has no fixed points.
  const auto rp = sim::PermutationTraffic::random(terminals, 9);
  for (int i = 0; i < t; ++i) {
    util::Rng dummy(0);
    EXPECT_NE(rp.destination(i, dummy), i);
  }
  (void)rng;
}

TEST(Traffic, UniformExcludesSelfAndDrawsUniformly) {
  // Uniform traffic must never pick the source itself, and the draws
  // must actually be uniform over the other T-1 terminals: aggregate
  // destination counts over a fixed draw budget and chi-square them
  // against the flat expectation. With T = 93 cells the statistic has
  // mean ~92 and sd ~13.6; the 170 ceiling sits past five sigma, so a
  // biased generator fails while the pinned seed keeps the test exact.
  PfFixture fx;
  const int t = fx.pattern.num_terminals();
  ASSERT_EQ(t, 93);
  const int draws_per_src = 400;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(t), 0);
  util::Rng rng(0xc0ffeeULL);
  for (int src = 0; src < t; ++src) {
    for (int k = 0; k < draws_per_src; ++k) {
      const int d = fx.pattern.destination(src, rng);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, t);
      ASSERT_NE(d, src);
      ++counts[static_cast<std::size_t>(d)];
    }
  }
  // Every destination is reachable from t - 1 sources at rate
  // draws_per_src / (t - 1), so the per-cell expectation is flat.
  const double expected = static_cast<double>(draws_per_src);
  double chi2 = 0.0;
  for (const std::int64_t c : counts) {
    const double delta = static_cast<double>(c) - expected;
    chi2 += delta * delta / expected;
  }
  EXPECT_LT(chi2, 170.0) << "chi2=" << chi2;
}

TEST(Simulator, LowLoadDelivers) {
  PfFixture fx;
  const sim::MinimalRouting routing(fx.pf.graph(), fx.oracle);
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 600;
  config.drain_cycles = 2000;
  sim::Network net(fx.pf.graph(), fx.endpoints, routing, fx.pattern, config,
                   0.2);
  net.run_phases();
  EXPECT_TRUE(net.converged());
  EXPECT_GT(net.delivered_packets(), 100);
  EXPECT_NEAR(net.accepted_load(), 0.2, 0.05);
  // Zero-load-ish latency: ~2 hops + serialization, far below 100.
  EXPECT_GT(net.avg_latency(), config.packet_size);
  EXPECT_LT(net.avg_latency(), 60.0);
  EXPECT_GE(net.p99_latency(), net.avg_latency());
}

TEST(Simulator, SweepFindsSaturation) {
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const sim::MinimalRouting routing(setup.graph, *setup.oracle);
  const sim::UniformTraffic pattern(setup.terminals());
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 1200;
  const auto loads = util::load_steps(0.2, 1.0, 3);
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_NEAR(loads[1], 0.6, 1e-12);
  const auto sweep =
      exp::run_sweep(setup, routing, pattern, config, loads, "test");
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_GT(sweep.saturation(), 0.15);
  for (const auto& point : sweep.points) {
    EXPECT_LE(point.accepted, point.offered + 0.05);
  }
  // Latency grows with load.
  EXPECT_GE(sweep.points[2].avg_latency, sweep.points[0].avg_latency);
}

/// Drives one network through a reset+run sequence and, after every leg,
/// expects bit-identical outputs to a network freshly constructed at
/// that leg's load — the promise Network::reset makes, no matter what the
/// previous run left behind. Telemetry blocks (empty when off) and the
/// workload accessors (defaults without a workload) are compared too.
void expect_reset_matches_fresh(const PfFixture& fx,
                                const sim::RoutingAlgorithm& routing,
                                const sim::TrafficPattern& pattern,
                                const sim::SimConfig& config,
                                const std::vector<double>& loads,
                                const sim::Workload* workload = nullptr) {
  sim::Network reused(fx.pf.graph(), fx.endpoints, routing, pattern, config,
                      loads.front(), workload);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i > 0) reused.reset(loads[i]);
    reused.run_phases();
    sim::Network fresh(fx.pf.graph(), fx.endpoints, routing, pattern,
                       config, loads[i], workload);
    fresh.run_phases();
    EXPECT_GT(fresh.delivered_packets(), 0) << "leg " << i;
    EXPECT_EQ(reused.accepted_load(), fresh.accepted_load())
        << "leg " << i << " load " << loads[i];
    EXPECT_EQ(reused.avg_latency(), fresh.avg_latency()) << i;
    EXPECT_EQ(reused.p99_latency(), fresh.p99_latency()) << i;
    EXPECT_EQ(reused.latency_counts().order_hash(),
              fresh.latency_counts().order_hash())
        << i;
    EXPECT_EQ(reused.delivered_packets(), fresh.delivered_packets()) << i;
    EXPECT_EQ(reused.measured_hops(), fresh.measured_hops()) << i;
    EXPECT_EQ(reused.peak_vc_packets(), fresh.peak_vc_packets()) << i;
    EXPECT_EQ(reused.converged(), fresh.converged()) << i;
    EXPECT_EQ(reused.stalled(), fresh.stalled()) << i;
    EXPECT_EQ(reused.current_cycle(), fresh.current_cycle()) << i;
    EXPECT_TRUE(reused.collect_telemetry() == fresh.collect_telemetry())
        << i;
    EXPECT_EQ(reused.workload_done(), fresh.workload_done()) << i;
    EXPECT_EQ(reused.workload_completion_cycles(),
              fresh.workload_completion_cycles())
        << i;
    EXPECT_EQ(reused.workload_phase_cycles(), fresh.workload_phase_cycles())
        << i;
  }
}

TEST(Simulator, ResetMatchesFreshConstructionBothEngines) {
  // Reset must be bit-identical to fresh construction under both cores,
  // across load swings: a run that drained every packet (low load)
  // followed by one that leaves the network saturated, and back.
  PfFixture fx;
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 2000;
  for (const sim::SimEngine engine :
       {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    config.engine = engine;
    expect_reset_matches_fresh(fx, ugal, fx.pattern, config,
                               {0.3, 0.05, 0.9, 0.3});
  }
}

TEST(Simulator, ResetWithTelemetryMatchesFreshConstruction) {
  // The telemetry collector is built once and rewound by reset: every
  // histogram, window series, hot link and peak must restart from zero.
  // Small windows and a small cap make the series roll and coalesce.
  PfFixture fx;
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 2000;
  config.telemetry.enabled = true;
  config.telemetry.window_cycles = 32;
  config.telemetry.max_windows = 8;
  config.telemetry.top_links = 4;
  for (const sim::SimEngine engine :
       {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    config.engine = engine;
    expect_reset_matches_fresh(fx, ugal, fx.pattern, config,
                               {0.3, 0.9, 0.3});
  }
}

TEST(Simulator, ResetInWorkloadModeMatchesFreshConstruction) {
  // Workload mode replaces the injection schedule with phase-gated sends
  // and a pacing period derived from the load: reset must rebuild the
  // per-rank progression and reschedule every first send.
  PfFixture fx;
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);
  const auto w =
      sim::Workload::make("alltoall", fx.pattern.num_terminals(), 0xabcdULL);
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 500;
  config.drain_cycles = 30000;
  sim::Network probe(fx.pf.graph(), fx.endpoints, ugal, fx.pattern, config,
                     0.9, w.get());
  probe.run_phases();
  ASSERT_TRUE(probe.workload_done());  // the legs must run it to the end
  for (const sim::SimEngine engine :
       {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    config.engine = engine;
    expect_reset_matches_fresh(fx, ugal, fx.pattern, config,
                               {0.3, 0.9, 0.3}, w.get());
  }
}

TEST(Simulator, ResetAfterFaultedRunMatchesFreshConstruction) {
  // A runtime fault timeline leaves state a fault-free run never touches
  // (dead links, flushed packets, reroutes). After a faulted run, reset +
  // rerun must still match a fresh network bit for bit — including
  // re-arming the timeline itself.
  PfFixture fx;
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 4000;
  config.faults.policy = sim::FaultPolicy::Reinject;
  const int neighbor = fx.pf.graph().neighbors(0)[0];
  config.faults.events.push_back(
      {sim::FaultEvent::Kind::LinkDown, 150, 0, neighbor});
  config.faults.events.push_back(
      {sim::FaultEvent::Kind::LinkUp, 450, 0, neighbor});
  for (const sim::SimEngine engine :
       {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    config.engine = engine;
    expect_reset_matches_fresh(fx, ugal, fx.pattern, config,
                               {0.3, 0.5, 0.3});
  }
}

TEST(Simulator, ResetAfterStalledRunMatchesFreshConstruction) {
  // A dead router under reinject policy livelocks the drain until the
  // watchdog fires: the stalled run leaves packets in flight (the free
  // list never refills), which the reset must sweep up exactly.
  PfFixture fx;
  const sim::MinimalRouting min_routing(fx.pf.graph(), fx.oracle);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 20000;
  config.stall_cycles = 150;
  config.faults.policy = sim::FaultPolicy::Reinject;
  config.faults.events.push_back(
      {sim::FaultEvent::Kind::RouterDown, 150, 7, -1});
  for (const sim::SimEngine engine :
       {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    config.engine = engine;
    sim::Network net(fx.pf.graph(), fx.endpoints, min_routing, fx.pattern,
                     config, 0.4);
    net.run_phases();
    ASSERT_TRUE(net.stalled());  // the scenario must actually stall
    expect_reset_matches_fresh(fx, min_routing, fx.pattern, config,
                               {0.4, 0.4, 0.2});
  }
}

/// Runs the same scenario under both engines and expects every measured
/// statistic to match bit for bit.
/// FNV-1a of a finished run's order-sensitive outputs: every measured
/// latency in delivery order (the FNV-1a the latency counts fold as they
/// count), then the delivered count, the peak VC depth and the final
/// cycle.
std::uint64_t run_hash(const sim::Network& net) {
  std::uint64_t h = net.latency_counts().order_hash();
  fnv1a(h, static_cast<std::uint64_t>(net.delivered_packets()));
  fnv1a(h, static_cast<std::uint64_t>(net.peak_vc_packets()));
  fnv1a(h, static_cast<std::uint64_t>(net.current_cycle()));
  return h;
}

/// Runs one point under both engines, expects every statistic equal, and
/// returns the run_hash they share.
std::uint64_t expect_engines_bit_equal(const graph::Graph& g,
                              const std::vector<int>& endpoints,
                              const sim::RoutingAlgorithm& routing,
                              const sim::TrafficPattern& pattern,
                              sim::SimConfig config, double load) {
  config.engine = sim::SimEngine::Cycle;
  sim::Network cycle_net(g, endpoints, routing, pattern, config, load);
  cycle_net.run_phases();

  config.engine = sim::SimEngine::Event;
  sim::Network event_net(g, endpoints, routing, pattern, config, load);
  event_net.run_phases();

  EXPECT_EQ(event_net.accepted_load(), cycle_net.accepted_load()) << load;
  EXPECT_EQ(event_net.avg_latency(), cycle_net.avg_latency()) << load;
  EXPECT_EQ(event_net.p99_latency(), cycle_net.p99_latency()) << load;
  EXPECT_EQ(event_net.delivered_packets(), cycle_net.delivered_packets());
  EXPECT_EQ(event_net.measured_hops(), cycle_net.measured_hops());
  EXPECT_EQ(event_net.peak_vc_packets(), cycle_net.peak_vc_packets());
  EXPECT_EQ(event_net.converged(), cycle_net.converged());
  EXPECT_EQ(event_net.current_cycle(), cycle_net.current_cycle()) << load;
  EXPECT_EQ(run_hash(event_net), run_hash(cycle_net)) << load;
  return run_hash(event_net);
}

TEST(EventEngine, MatchesCycleCoreBitExactly) {
  // The event core must be a pure scheduling optimization: same routing,
  // same RNG draws, same statistics — at sparse loads (long skipped
  // spans) and moderate ones, under oblivious and adaptive routing.
  PfFixture fx;
  const sim::MinimalRouting min_routing(fx.pf.graph(), fx.oracle);
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);
  const auto randperm = sim::PermutationTraffic::random(
      sim::terminal_routers(fx.endpoints), 0xfeedULL);

  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 500;
  config.drain_cycles = 1500;
  for (const double load : {0.01, 0.05, 0.3}) {
    expect_engines_bit_equal(fx.pf.graph(), fx.endpoints, min_routing,
                             fx.pattern, config, load);
    expect_engines_bit_equal(fx.pf.graph(), fx.endpoints, ugal, randperm,
                             config, load);
  }
}

TEST(EventEngine, MatchesCycleCoreAboveInDegree64) {
  // HyperX a=65, b=2: 130 routers, every in-degree 65, so each router's
  // in-channel mask spans two words and the rotated allocator walk must
  // cross the word boundary (and wrap back into the start word) in the
  // same order as a walk over all 65 channels. Both engines share the
  // mask walk, so their equality cannot catch a walk that skips or
  // reorders channels; the pins can: they were recorded by a rotated
  // walk over every incoming channel, with no masks.
  const auto hx = topo::make_topology("hyperx:a=65,b=2");
  ASSERT_EQ(hx.graph.num_vertices(), 130);
  for (int v = 0; v < hx.graph.num_vertices(); ++v) {
    ASSERT_EQ(hx.graph.degree(v), 65);
  }
  const sim::DistanceOracle oracle(hx.graph);
  const auto endpoints = sim::uniform_endpoints(hx.graph.num_vertices(), 2);
  const sim::UniformTraffic uniform(sim::terminal_routers(endpoints));
  const sim::MinimalRouting min_routing(hx.graph, oracle);
  const sim::UgalRouting ugal(hx.graph, oracle, false);

  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 500;
  config.drain_cycles = 1800;
  // 8450 channels x 16 VCs of rings (1.08 MB) switch the visit's
  // prefetching gather stage on, so the pins cover its walk of the
  // two-word masks too.
  ASSERT_TRUE(sim::Network(hx.graph, endpoints, min_routing, uniform, config,
                           0.05)
                  .gathers());
  struct Leg {
    const sim::RoutingAlgorithm* routing;
    double load;
    std::uint64_t pin;
  };
  const Leg legs[] = {
      {&min_routing, 0.05, 0x2ccc9c52eeee8d5eULL},
      {&ugal, 0.05, 0xc1f64d2a30a119e9ULL},
      {&min_routing, 0.9, 0x3a2fc0574b5814e1ULL},
      {&ugal, 0.9, 0x6eaf25eb59ed6d70ULL},
  };
  for (const Leg& leg : legs) {
    const std::uint64_t h = expect_engines_bit_equal(
        hx.graph, endpoints, *leg.routing, uniform, config, leg.load);
    EXPECT_EQ(h, leg.pin) << leg.routing->name() << " load " << leg.load
                          << " 0x" << std::hex << h;
  }
}

TEST(EventEngine, AgendaTieBreakMatchesAscendingRouterOrder) {
  // At saturation nearly every router wakes every cycle, so the agenda
  // constantly pops same-cycle ties — and same-cycle ordering is
  // observable: a credit freed at router v must be visible to an
  // upstream u > v within the same cycle (the cycle core iterates
  // ascending), and larger packets keep rings full so those same-cycle
  // credit wakes dominate. Any tie-break deviation diverges from the
  // cycle core here.
  PfFixture fx;
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);

  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 500;
  config.drain_cycles = 2500;
  config.packet_size = 16;
  for (const double load : {0.9, 1.0}) {
    expect_engines_bit_equal(fx.pf.graph(), fx.endpoints, ugal, fx.pattern,
                             config, load);
  }
}

TEST(EventEngine, GapTelemetryWindowsAreExact) {
  // Telemetry must account skipped spans exactly: per-window link
  // utilization and VC occupancy series, window coalescing boundaries,
  // and peak tracking all match the cycle core even when the event core
  // jumps hundreds of cycles at a time. Small windows + a small cap
  // force rolls and coalesces to land inside skipped spans.
  PfFixture fx;
  const sim::MinimalRouting min_routing(fx.pf.graph(), fx.oracle);

  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 2000;
  config.drain_cycles = 1500;
  config.telemetry.enabled = true;
  config.telemetry.window_cycles = 64;
  config.telemetry.max_windows = 8;
  config.telemetry.top_links = 4;

  const double load = 0.02;  // sparse: most cycles are skipped
  config.engine = sim::SimEngine::Cycle;
  sim::Network cycle_net(fx.pf.graph(), fx.endpoints, min_routing,
                         fx.pattern, config, load);
  cycle_net.run_phases();
  const sim::PointTelemetry a = cycle_net.collect_telemetry();

  config.engine = sim::SimEngine::Event;
  sim::Network event_net(fx.pf.graph(), fx.endpoints, min_routing,
                         fx.pattern, config, load);
  event_net.run_phases();
  const sim::PointTelemetry b = event_net.collect_telemetry();

  ASSERT_TRUE(a.present);
  ASSERT_TRUE(b.present);
  EXPECT_EQ(b.window, a.window);
  EXPECT_EQ(b.latency_p50, a.latency_p50);
  EXPECT_EQ(b.latency_p99, a.latency_p99);
  EXPECT_EQ(b.latency_max, a.latency_max);
  EXPECT_EQ(b.latency_hist, a.latency_hist);
  EXPECT_EQ(b.hops_hist, a.hops_hist);
  EXPECT_EQ(b.link_util_mean, a.link_util_mean);
  EXPECT_EQ(b.link_util_max, a.link_util_max);
  EXPECT_EQ(b.peak_backlog, a.peak_backlog);
  EXPECT_EQ(b.peak_backlog_router, a.peak_backlog_router);
  ASSERT_EQ(b.hot_links.size(), a.hot_links.size());
  for (std::size_t i = 0; i < a.hot_links.size(); ++i) {
    EXPECT_EQ(b.hot_links[i].u, a.hot_links[i].u) << i;
    EXPECT_EQ(b.hot_links[i].v, a.hot_links[i].v) << i;
    EXPECT_EQ(b.hot_links[i].util, a.hot_links[i].util) << i;
    EXPECT_EQ(b.hot_links[i].series, a.hot_links[i].series) << i;
  }
  ASSERT_EQ(b.vc_occupancy.size(), a.vc_occupancy.size());
  for (std::size_t c = 0; c < a.vc_occupancy.size(); ++c) {
    EXPECT_EQ(b.vc_occupancy[c], a.vc_occupancy[c]) << c;
  }
}

TEST(EventEngine, MatchesCycleCoreOnWorkloads) {
  // Workload mode swaps the injection process for phase-gated compiled
  // sends — a new wake source the event core must schedule exactly. Every
  // statistic, the completion cycle, and every per-phase cycle must match
  // the cycle core bit for bit, for deterministic collectives, seeded
  // irregular flows, and release-gated bursts alike.
  PfFixture fx;
  const sim::MinimalRouting min_routing(fx.pf.graph(), fx.oracle);
  const sim::UgalRouting ugal(fx.pf.graph(), fx.oracle, true, 2.0 / 3.0);
  const int ranks = fx.pattern.num_terminals();

  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 500;
  config.drain_cycles = 30000;
  for (const char* spec :
       {"rd_allreduce", "stencil2d", "hotspot", "bursty:bursts=2,gap=200"}) {
    const auto w = sim::Workload::make(spec, ranks, 0xabcdULL);
    for (const auto* routing :
         std::initializer_list<const sim::RoutingAlgorithm*>{&min_routing,
                                                             &ugal}) {
      for (const double load : {0.3, 0.9}) {
        config.engine = sim::SimEngine::Cycle;
        sim::Network cycle_net(fx.pf.graph(), fx.endpoints, *routing,
                               fx.pattern, config, load, w.get());
        cycle_net.run_phases();

        config.engine = sim::SimEngine::Event;
        sim::Network event_net(fx.pf.graph(), fx.endpoints, *routing,
                               fx.pattern, config, load, w.get());
        event_net.run_phases();

        ASSERT_TRUE(cycle_net.workload_done()) << spec;
        EXPECT_EQ(event_net.workload_done(), cycle_net.workload_done());
        EXPECT_EQ(event_net.workload_completion_cycles(),
                  cycle_net.workload_completion_cycles())
            << spec << " load " << load;
        EXPECT_EQ(event_net.workload_phase_cycles(),
                  cycle_net.workload_phase_cycles());
        EXPECT_EQ(event_net.workload_lost(), cycle_net.workload_lost());
        EXPECT_EQ(event_net.accepted_load(), cycle_net.accepted_load());
        EXPECT_EQ(event_net.avg_latency(), cycle_net.avg_latency());
        EXPECT_EQ(event_net.p99_latency(), cycle_net.p99_latency());
        EXPECT_EQ(event_net.delivered_packets(),
                  cycle_net.delivered_packets());
        EXPECT_EQ(event_net.measured_hops(), cycle_net.measured_hops());
        EXPECT_EQ(event_net.peak_vc_packets(), cycle_net.peak_vc_packets());
        EXPECT_EQ(event_net.converged(), cycle_net.converged());
        EXPECT_EQ(event_net.current_cycle(), cycle_net.current_cycle());
      }
    }
  }
}

TEST(Simulator, VcQueueOrderIsPinned) {
  // Pins the FIFO order of the VC queues: any change to which packet a
  // queue hands out next shifts the delivery order, hence the latency
  // sequence hashed here. UGAL-PF on PF q=7 (3 hop classes x 5 sub-VCs)
  // at VC depths of 1, 4 and 68 packets (64, 256 and 4096 flits per
  // port; a random permutation at load 1.0 fills the deep queues), a
  // flap under each fault policy (the dead-channel flush walks whole
  // queues), and a reset() reuse leg. Both engines must reproduce every
  // pin, recorded on the flat ring buffers the queues replaced.
  const core::PolarFly pf7(7);
  const sim::DistanceOracle oracle(pf7.graph());
  const auto endpoints = sim::uniform_endpoints(pf7.num_vertices(), 4);
  const auto terminals = sim::terminal_routers(endpoints);
  const sim::UniformTraffic uniform(terminals);
  const auto randperm = sim::PermutationTraffic::random(terminals, 0xfeedULL);
  const sim::UgalRouting ugal_pf(pf7.graph(), oracle, true);

  sim::SimConfig base;
  base.warmup_cycles = 200;
  base.measure_cycles = 400;
  base.drain_cycles = 2000;
  sim::FaultTimeline flap;  // four links down at cycle 300, up at 700
  for (const auto kind :
       {sim::FaultEvent::Kind::LinkDown, sim::FaultEvent::Kind::LinkUp}) {
    for (const int u : {0, 3, 11, 20}) {
      flap.events.push_back(
          {kind, kind == sim::FaultEvent::Kind::LinkDown ? 300 : 700, u,
           pf7.graph().neighbors(u)[1]});
    }
  }
  struct Leg {
    const char* name;
    int buf_per_port;
    double load;
    const sim::TrafficPattern* pattern;
    bool faults;
    sim::FaultPolicy policy;
    std::uint64_t pin;
  };
  const Leg legs[] = {
      {"depth1", 64, 0.9, &uniform, false, sim::FaultPolicy::Drop,
       0x6409aaffa0d4ee26ULL},
      {"depth4", 256, 0.9, &uniform, false, sim::FaultPolicy::Drop,
       0x4882bdfbcf50a589ULL},
      {"depth68", 4096, 1.0, &randperm, false, sim::FaultPolicy::Drop,
       0xc36d41ed60a041b5ULL},
      {"flap-drop", 256, 0.9, &uniform, true, sim::FaultPolicy::Drop,
       0xfe1af340b94f40b4ULL},
      {"flap-reinject", 256, 0.9, &uniform, true, sim::FaultPolicy::Reinject,
       0x2ecb84ac48f105fULL},
  };
  // The depth68 network, reset to load 0.6 and run again.
  const std::uint64_t reset_pin = 0x8bda659de294dc5fULL;
  for (const sim::SimEngine engine :
       {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    for (const Leg& leg : legs) {
      sim::SimConfig config = base;
      config.engine = engine;
      config.buf_per_port = leg.buf_per_port;
      if (leg.faults) {
        config.faults = flap;
        config.faults.policy = leg.policy;
      }
      sim::Network net(pf7.graph(), endpoints, ugal_pf, *leg.pattern, config,
                       leg.load);
      net.run_phases();
      const std::uint64_t h = run_hash(net);
      EXPECT_EQ(h, leg.pin) << leg.name << " engine "
                            << static_cast<int>(engine) << " 0x" << std::hex
                            << h;
      if (leg.faults) {
        // The flush must actually have found queued packets.
        EXPECT_GT(net.degradation().dropped + net.degradation().reinjected,
                  0)
            << leg.name;
      }
      if (leg.buf_per_port == 4096) {
        EXPECT_GT(net.peak_vc_packets(), 64);
        net.reset(0.6);
        net.run_phases();
        const std::uint64_t hr = run_hash(net);
        EXPECT_EQ(hr, reset_pin) << "reset engine "
                                 << static_cast<int>(engine) << " 0x"
                                 << std::hex << hr;
      }
    }
  }
}

/// lower_bound's position of v in u's sorted row, or -1: the binary
/// search that Graph::neighbor_index replaces.
int reference_index(const graph::Graph& g, int u, int v) {
  const auto row = g.neighbors(u);
  const auto* it = std::lower_bound(row.begin(), row.end(), v);
  return it != row.end() && *it == v ? static_cast<int>(it - row.begin())
                                     : -1;
}

TEST(ChannelId, NeighborIndexMatchesBinarySearchOnEveryFamily) {
  // A small instance of every registry family, plus the largest PolarFly
  // the benchmark runs and two wide HyperX graphs: PolarFly and K65xK2
  // rows are evenly spread, so most lookups hit the interpolated entry,
  // while Dragonfly and K65xK65 (degree 128) rows cluster, so most fall
  // back to the binary search.
  const std::vector<std::string> specs = {
      "pf:q=7",        "pfx:q=5,n=2",         "pfx:q=5,n=1,quadric=1",
      "sf:q=5",        "df:a=4,h=2,p=2",      "ft:levels=3,arity=4",
      "jf:n=30,k=4,seed=9", "hyperx:a=5",     "torus:k=4,d=2",
      "hypercube:d=5", "brown:q=5",           "petersen",
      "hs",            "pf:q=47",             "hyperx:a=65,b=2",
      "hyperx:a=65",
  };
  for (const std::string& spec : specs) {
    const graph::Graph g = topo::make_topology(spec).graph;
    const int n = g.num_vertices();
    // Non-edges: every pair on small graphs, a stride on large ones.
    const int stride = n > 500 ? 97 : 1;
    std::int64_t edges = 0;
    std::int64_t non_edges = 0;
    for (int u = 0; u < n; ++u) {
      for (const int v : g.neighbors(u)) {
        ASSERT_EQ(g.neighbor_index(u, v), reference_index(g, u, v))
            << spec << ' ' << u << "->" << v;
        ++edges;
      }
      for (int v = u % stride; v < n; v += stride) {
        if (reference_index(g, u, v) >= 0) continue;
        ASSERT_EQ(g.neighbor_index(u, v), -1) << spec << ' ' << u << ' ' << v;
        ++non_edges;
      }
      ASSERT_EQ(g.neighbor_index(u, -1), -1) << spec;
      ASSERT_EQ(g.neighbor_index(u, n), -1) << spec;
    }
    EXPECT_EQ(edges, 2 * g.num_edges()) << spec;
    EXPECT_GT(non_edges, 0) << spec;
  }
}

TEST(ChannelId, NonEdgesThrow) {
  // Network::channel_id backs first_hop_occupancy: every link resolves,
  // and every non-link (self-pairs included) throws.
  PfFixture fx;
  const sim::MinimalRouting min_routing(fx.pf.graph(), fx.oracle);
  const sim::Network net(fx.pf.graph(), fx.endpoints, min_routing,
                         fx.pattern, sim::SimConfig{}, 0.1);
  const graph::Graph& g = fx.pf.graph();
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (g.has_edge(u, v)) {
        EXPECT_EQ(net.first_hop_occupancy(u, v), 0.0) << u << "->" << v;
      } else {
        EXPECT_THROW((void)net.first_hop_occupancy(u, v),
                     std::invalid_argument)
            << u << ' ' << v;
      }
    }
  }
}

TEST(Simulator, RejectsInvalidConfigurationsAtConstruction) {
  PfFixture fx;
  // Route bound: Valiant on a 13-ary 2-torus detours up to 2 * 12 = 24
  // hops = 25 routers > Route::kMaxLen.
  const topo::Torus torus(13, 2);
  const sim::DistanceOracle oracle(torus.graph());
  const sim::ValiantRouting long_valiant(torus.graph(), oracle);
  ASSERT_GT(long_valiant.max_hops() + 1, sim::Route::kMaxLen);
  const auto endpoints = sim::uniform_endpoints(torus.graph().num_vertices(),
                                                2);
  const sim::UniformTraffic pattern(sim::terminal_routers(endpoints));
  sim::SimConfig config;
  config.vcs = 24;
  EXPECT_THROW(sim::Network(torus.graph(), endpoints, long_valiant, pattern,
                            config, 0.1),
               std::invalid_argument);

  // VC classes: Valiant on PolarFly needs 4 classes, vcs=2 cannot host
  // one class per hop.
  const sim::ValiantRouting valiant(fx.pf.graph(), fx.oracle);
  sim::SimConfig small;
  small.vcs = 2;
  EXPECT_THROW(sim::Network(fx.pf.graph(), fx.endpoints, valiant,
                            fx.pattern, small, 0.1),
               std::invalid_argument);
}

TEST(Deadlock, HopClassesMakeMinimalAcyclic) {
  PfFixture fx;
  const sim::MinimalRouting routing(fx.pf.graph(), fx.oracle);
  const sim::Network idle(fx.pf.graph(), fx.endpoints, routing, fx.pattern,
                          sim::SimConfig{}, 0.0);
  util::Rng rng(1);
  const auto route_fn = [&](int s, int d, util::Rng& r, sim::Route& out) {
    out.clear();
    routing.route(idle, s, d, r, out);
  };
  const auto ok = sim::check_channel_dependencies(fx.pf.graph(), route_fn,
                                                  2, 2, 99);
  EXPECT_TRUE(ok.acyclic);
  EXPECT_GT(ok.nodes, 0);
  EXPECT_GT(ok.edges, 0);
  EXPECT_EQ(ok.cycle_length, 0);

  // A single VC class on a diameter-2 expander with 2-hop routes cannot
  // close a dependency cycle either (every route has just one
  // dependency), but forcing all hops of 4-hop Valiant routes into one
  // class must create cycles.
  const sim::ValiantRouting valiant(fx.pf.graph(), fx.oracle);
  const auto route_val = [&](int s, int d, util::Rng& r, sim::Route& out) {
    out.clear();
    valiant.route(idle, s, d, r, out);
  };
  const auto bad = sim::check_channel_dependencies(fx.pf.graph(), route_val,
                                                   2, 1, 99);
  EXPECT_FALSE(bad.acyclic);
  EXPECT_GT(bad.cycle_length, 0);
  // With one class per hop it is safe again.
  const auto good = sim::check_channel_dependencies(
      fx.pf.graph(), route_val, 2, valiant.max_hops(), 99);
  EXPECT_TRUE(good.acyclic);
}

TEST(Harness, TerminalHelpers) {
  const auto endpoints = std::vector<int>{2, 0, 1};
  const auto terminals = sim::terminal_routers(endpoints);
  ASSERT_EQ(terminals.size(), 3u);
  EXPECT_EQ(terminals[0], 0);
  EXPECT_EQ(terminals[1], 0);
  EXPECT_EQ(terminals[2], 2);
  EXPECT_EQ(sim::uniform_endpoints(4, 3), (std::vector<int>{3, 3, 3, 3}));
}

}  // namespace
