#include "sim/routing.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/algos.hpp"
#include "util/parallel.hpp"

namespace pf::sim {

DistanceOracle::DistanceOracle(const graph::Graph& g)
    : n_(g.num_vertices()) {
  build(g);
  if (diameter_ > 127) {
    // int8 cannot hold these distances (already truncated in dist8_);
    // rebuild wide. Only path-like graphs far outside the paper's
    // design space get here.
    wide_ = true;
    dist8_.clear();
    dist8_.shrink_to_fit();
    build(g);
  }
}

DistanceOracle::DistanceOracle(std::shared_ptr<const core::PolarFly> pf)
    : n_(pf ? pf->num_vertices() : 0), diameter_(2), pf_(std::move(pf)) {
  if (!pf_) throw std::invalid_argument("DistanceOracle needs a PolarFly");
}

void DistanceOracle::build(const graph::Graph& g) {
  const std::size_t cells =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  if (wide_) {
    dist_.assign(cells, -1);
  } else {
    dist8_.assign(cells, -1);
  }
  std::vector<int> diameters(static_cast<std::size_t>(n_), 0);
  util::parallel_for(0, static_cast<std::size_t>(n_), [&](std::size_t src) {
    const auto row = graph::bfs_distances(g, static_cast<int>(src));
    int local_max = 0;
    for (int v = 0; v < n_; ++v) {
      const int d = row[static_cast<std::size_t>(v)];
      const std::size_t i = src * static_cast<std::size_t>(n_) +
                            static_cast<std::size_t>(v);
      if (wide_) {
        dist_[i] = static_cast<std::int16_t>(d);
      } else {
        dist8_[i] = static_cast<std::int8_t>(d);
      }
      local_max = std::max(local_max, d);
    }
    diameters[src] = local_max;
  });
  diameter_ = *std::max_element(diameters.begin(), diameters.end());
}

namespace {

/// The minimal-path descent shared by both storage widths. The distance
/// values (and so every rng.below draw) are identical across widths.
template <typename Dist>
void sample_descent(const graph::Graph& g, const Dist* to_d, int s, int d,
                    util::Rng& rng, Route& out) {
  int at = s;
  while (at != d) {
    const int remaining = to_d[at];
    // Reservoir-sample uniformly among descending neighbors.
    int pick = -1;
    int seen = 0;
    for (const std::int32_t v : g.neighbors(at)) {
      if (to_d[v] == remaining - 1) {
        ++seen;
        if (rng.below(static_cast<std::uint64_t>(seen)) == 0) {
          pick = static_cast<int>(v);
        }
      }
    }
    if (pick < 0) throw std::logic_error("min-path sampling: no descent");
    out.push(pick);
    at = pick;
  }
}

}  // namespace

void DistanceOracle::sample_min_path(const graph::Graph& g, int s, int d,
                                     util::Rng& rng, Route& out) const {
  if (out.len == 0 || out.back() != s) out.push(s);
  if (pf_) {
    // On ER_q every hop has exactly one descending neighbor, so the
    // descent below would draw rng.below(1) -- one next() -- per hop.
    if (s == d) return;
    if (pf_->dot(s, d) != 0) {
      rng.next();
      out.push(pf_->intermediate(s, d));
    }
    rng.next();
    out.push(d);
    return;
  }
  // BFS distances on an undirected graph are symmetric, so all lookups
  // can read along row d — contiguous and cache-resident for the whole
  // descent, unlike one scattered row access per neighbor.
  const std::size_t row = static_cast<std::size_t>(d) *
                          static_cast<std::size_t>(n_);
  if (wide_) {
    sample_descent(g, &dist_[row], s, d, rng, out);
  } else {
    sample_descent(g, &dist8_[row], s, d, rng, out);
  }
}

void MinimalRouting::route(const Network& net, int src, int dst,
                           util::Rng& rng, Route& out) const {
  (void)net;
  oracle_.sample_min_path(graph_, src, dst, rng, out);
}

namespace {

// One body per adaptive routing over a (graph, oracle) view: route()
// passes the intact tables, route_degraded() the live-links view. The
// reachability checks also keep detours off routers a static failure
// isolated. They read along row dst (the oracle is symmetric), the row
// sample_min_path walks anyway.

/// No usable path: dst unreachable, or the direct route overflows.
bool unusable(const DistanceOracle& oracle, int src, int dst) {
  const int direct = oracle.distance(dst, src);
  return direct < 0 || direct + 1 > Route::kMaxLen;
}

void valiant(const graph::Graph& g, const DistanceOracle& oracle, int src,
             int dst, util::Rng& rng, Route& out) {
  if (unusable(oracle, src, dst)) return;
  const int n = g.num_vertices();
  // A random intermediate that is connected to both ends (and whose
  // detour fits a Route); fall back to the direct minimal path when none
  // turns up.
  int mid = -1;
  for (int tries = 0; tries < 8; ++tries) {
    const int cand = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (cand == src || cand == dst) continue;
    const int to_cand = oracle.distance(cand, src);
    const int from_cand = oracle.distance(dst, cand);
    if (to_cand >= 0 && from_cand >= 0 &&
        to_cand + from_cand + 1 <= Route::kMaxLen) {
      mid = cand;
      break;
    }
  }
  if (mid < 0) {
    oracle.sample_min_path(g, src, dst, rng, out);
    return;
  }
  oracle.sample_min_path(g, src, mid, rng, out);
  oracle.sample_min_path(g, mid, dst, rng, out);
}

void compact_valiant(const graph::Graph& g, const DistanceOracle& oracle,
                     int src, int dst, util::Rng& rng, Route& out) {
  if (unusable(oracle, src, dst)) return;
  const auto row = g.neighbors(src);
  // A random neighbor that isn't the destination and still reaches it.
  int mid = -1;
  for (int tries = 0; tries < 8 && row.size() != 0; ++tries) {
    const int cand = row[rng.below(row.size())];
    const int rest = oracle.distance(dst, cand);
    if (cand != dst && rest >= 0 && rest + 2 <= Route::kMaxLen) {
      mid = cand;
      break;
    }
  }
  if (mid < 0) {
    oracle.sample_min_path(g, src, dst, rng, out);
    return;
  }
  out.push(src);
  out.push(mid);
  oracle.sample_min_path(g, mid, dst, rng, out);
}

}  // namespace

void ValiantRouting::route(const Network& net, int src, int dst,
                           util::Rng& rng, Route& out) const {
  (void)net;
  valiant(graph_, oracle_, src, dst, rng, out);
}

void ValiantRouting::route_degraded(const Network& net, const graph::Graph& g,
                                    const DistanceOracle& oracle, int src,
                                    int dst, util::Rng& rng,
                                    Route& out) const {
  (void)net;
  valiant(g, oracle, src, dst, rng, out);
}

void CompactValiantRouting::route(const Network& net, int src, int dst,
                                  util::Rng& rng, Route& out) const {
  (void)net;
  compact_valiant(graph_, oracle_, src, dst, rng, out);
}

void CompactValiantRouting::route_degraded(const Network& net,
                                           const graph::Graph& g,
                                           const DistanceOracle& oracle,
                                           int src, int dst, util::Rng& rng,
                                           Route& out) const {
  (void)net;
  compact_valiant(g, oracle, src, dst, rng, out);
}

void UgalRouting::route(const Network& net, int src, int dst,
                        util::Rng& rng, Route& out) const {
  UgalRouting::route_degraded(net, graph_, oracle_, src, dst, rng, out);
}

void UgalRouting::route_degraded(const Network& net, const graph::Graph& g,
                                 const DistanceOracle& oracle, int src,
                                 int dst, util::Rng& rng, Route& out) const {
  if (unusable(oracle, src, dst)) return;
  Route minimal;
  oracle.sample_min_path(g, src, dst, rng, minimal);
  if (minimal.len < 2) {  // src == dst
    out = minimal;
    return;
  }

  // Adaptivity gate: stick to the minimal path while its first hop's
  // class-0 buffer occupancy is at or below the threshold.
  if (threshold_ > 0.0 &&
      net.first_hop_occupancy(src, minimal.hops[1]) <= threshold_) {
    out = minimal;
    return;
  }

  Route detour;
  if (compact_) {
    compact_valiant(g, oracle, src, dst, rng, detour);
  } else {
    valiant(g, oracle, src, dst, rng, detour);
  }
  if (detour.len < 2) {
    out = minimal;
    return;
  }

  // Classic UGAL decision: queue length x path length.
  const std::int64_t min_cost =
      static_cast<std::int64_t>(net.out_queue_flits(src, minimal.hops[1])) *
      (minimal.len - 1);
  const std::int64_t detour_cost =
      static_cast<std::int64_t>(net.out_queue_flits(src, detour.hops[1])) *
      (detour.len - 1);
  out = min_cost <= detour_cost ? minimal : detour;
}

void FatTreeNcaRouting::route(const Network& net, int src, int dst,
                              util::Rng& rng, Route& out) const {
  (void)net;
  out.push(src);
  if (src == dst) return;
  const int src_leaf = ft_.index_of(src);
  const int dst_leaf = ft_.index_of(dst);
  if (ft_.level_of(src) != 0 || ft_.level_of(dst) != 0) {
    throw std::invalid_argument("NCA routing runs between leaf switches");
  }
  const int nca = ft_.nca_level(src_leaf, dst_leaf);

  // Up phase: pick the varied digit at random at every level (all up
  // paths are valid — the down phase can fix any prefix).
  int index = src_leaf;
  int stride = 1;
  for (int level = 0; level < nca; ++level) {
    const int digit = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(ft_.arity())));
    index += (digit - ft_.digit(index, level)) * stride;
    out.push(ft_.switch_id(level + 1, index));
    stride *= ft_.arity();
  }
  // Down phase: restore the destination's digits, most significant of the
  // varied range first.
  for (int level = nca; level > 0; --level) {
    stride /= ft_.arity();
    index += (ft_.digit(dst_leaf, level - 1) - ft_.digit(index, level - 1)) *
             stride;
    out.push(ft_.switch_id(level - 1, index));
  }
}

void AlgebraicPolarFlyRouting::route(const Network& net, int src, int dst,
                                     util::Rng& rng, Route& out) const {
  (void)net;
  (void)rng;
  out.push(src);
  if (src == dst) return;
  if (pf_.dot(src, dst) == 0) {  // adjacent: one dot product
    out.push(dst);
    return;
  }
  const int mid = pf_.intermediate(src, dst);  // one cross product
  out.push(mid);
  out.push(dst);
}

}  // namespace pf::sim
