// Routing algorithms over the simulator: a DistanceOracle (an all-pairs
// BFS matrix, or ER_q's algebra on intact PolarFly) drives minimal
// routing and the Valiant / UGAL family; FatTreeNcaRouting and
// AlgebraicPolarFlyRouting are the two table-free structural schemes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/polarfly.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace pf::sim {

/// Hop distances plus uniform sampling of minimal paths, in one of two
/// forms. The graph form runs a BFS from every vertex into an all-pairs
/// matrix and serves any topology, damaged or not. The PolarFly form
/// answers for intact ER_q from its algebra (SS IV-D) and holds no
/// matrix. Both give the same distances, routes and RNG draws on ER_q.
class DistanceOracle {
 public:
  /// The matrix stores int8 distances (every design-space graph has a
  /// single-digit diameter); a graph whose diameter exceeds 127 is
  /// rebuilt with int16 cells. The width never changes a distance, so
  /// routes and RNG draws are the same either way.
  explicit DistanceOracle(const graph::Graph& g);

  /// Intact ER_q: distinct u, v are adjacent iff u . v = 0, and a
  /// non-adjacent pair's only common neighbor is their cross product, so
  /// diameter() == 2 and matrix_bytes() == 0. Shares ownership of `pf`:
  /// a cached oracle cannot outlive the PolarFly it reads.
  explicit DistanceOracle(std::shared_ptr<const core::PolarFly> pf);

  int distance(int u, int v) const {
    if (pf_) return u == v ? 0 : pf_->dot(u, v) == 0 ? 1 : 2;
    const std::size_t i =
        static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
        static_cast<std::size_t>(v);
    // Both widths hold -1 for unreachable; sign extension keeps the
    // distance() < 0 checks working.
    return wide_ ? static_cast<int>(dist_[i]) : static_cast<int>(dist8_[i]);
  }

  int diameter() const { return diameter_; }
  /// Bytes held by the distance matrix (footprint reporting).
  std::size_t matrix_bytes() const {
    return dist_.capacity() * sizeof(std::int16_t) +
           dist8_.capacity() * sizeof(std::int8_t);
  }

  /// Appends to `out` a uniformly random minimal path s .. d (inclusive;
  /// out typically starts empty or ending at s).
  void sample_min_path(const graph::Graph& g, int s, int d, util::Rng& rng,
                       Route& out) const;

 private:
  void build(const graph::Graph& g);

  int n_ = 0;
  int diameter_ = 0;
  bool wide_ = false;  ///< int16 cells: the diameter exceeds 127
  std::vector<std::int16_t> dist_;  ///< -1 when unreachable (diameter > 127)
  std::vector<std::int8_t> dist8_;  ///< same contract (every other graph)
  std::shared_ptr<const core::PolarFly> pf_;  ///< set: the ER_q form
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;
  virtual std::string name() const = 0;
  /// Upper bound on route hops — sets the VC class count for deadlock
  /// freedom (one class per hop).
  virtual int max_hops() const = 0;
  virtual void route(const Network& net, int src, int dst, util::Rng& rng,
                     Route& out) const = 0;
  /// Routing on a live-links-only view of the network (runtime faults).
  /// `g`/`oracle` describe the degraded graph; implementations that can
  /// should path on them and leave `out` empty when dst is unreachable.
  /// VAL, CVAL and UGAL share one body between both entry points: route()
  /// is route_degraded() on the intact (graph, oracle) view.
  /// The default keeps the intact tables (stale routes — the caller
  /// rejection-samples against dead links), which is how MIN ends up
  /// reporting unreachable pairs instead of adapting.
  virtual void route_degraded(const Network& net, const graph::Graph& g,
                              const DistanceOracle& oracle, int src, int dst,
                              util::Rng& rng, Route& out) const {
    (void)g;
    (void)oracle;
    route(net, src, dst, rng, out);
  }
};

/// Uniformly sampled shortest path.
class MinimalRouting final : public RoutingAlgorithm {
 public:
  MinimalRouting(const graph::Graph& g, const DistanceOracle& oracle)
      : graph_(g), oracle_(oracle) {}
  std::string name() const override { return "MIN"; }
  int max_hops() const override { return std::max(1, oracle_.diameter()); }
  void route(const Network& net, int src, int dst, util::Rng& rng,
             Route& out) const override;

 private:
  const graph::Graph& graph_;
  const DistanceOracle& oracle_;
};

/// Valiant: minimal to a uniformly random intermediate router, then
/// minimal to the destination. Draws that hit src, dst or a router
/// unreachable from either are redrawn; after 8 such draws the packet
/// takes the minimal path.
class ValiantRouting final : public RoutingAlgorithm {
 public:
  ValiantRouting(const graph::Graph& g, const DistanceOracle& oracle)
      : graph_(g), oracle_(oracle) {}
  std::string name() const override { return "VAL"; }
  int max_hops() const override { return 2 * std::max(1, oracle_.diameter()); }
  void route(const Network& net, int src, int dst, util::Rng& rng,
             Route& out) const override;
  void route_degraded(const Network& net, const graph::Graph& g,
                      const DistanceOracle& oracle, int src, int dst,
                      util::Rng& rng, Route& out) const override;

 private:
  const graph::Graph& graph_;
  const DistanceOracle& oracle_;
};

/// Compact Valiant: detour through a random *neighbor* of the source —
/// on PolarFly a 3-hop worst case instead of Valiant's 4.
class CompactValiantRouting final : public RoutingAlgorithm {
 public:
  CompactValiantRouting(const graph::Graph& g, const DistanceOracle& oracle)
      : graph_(g), oracle_(oracle) {}
  std::string name() const override { return "CVAL"; }
  int max_hops() const override { return std::max(1, oracle_.diameter()) + 1; }
  void route(const Network& net, int src, int dst, util::Rng& rng,
             Route& out) const override;
  void route_degraded(const Network& net, const graph::Graph& g,
                      const DistanceOracle& oracle, int src, int dst,
                      util::Rng& rng, Route& out) const override;

 private:
  const graph::Graph& graph_;
  const DistanceOracle& oracle_;
};

/// UGAL: pick minimal vs a detour candidate by comparing first-hop queue
/// length x path length. `compact` selects the compact-Valiant detour
/// (UGAL-PF) instead of classic Valiant; `threshold` gates adaptivity:
/// the detour is only considered once the minimal first-hop buffer
/// occupancy exceeds it (0 = always consider, > 1 = never, i.e. MIN).
class UgalRouting final : public RoutingAlgorithm {
 public:
  UgalRouting(const graph::Graph& g, const DistanceOracle& oracle,
              bool compact, double threshold = 0.0)
      : graph_(g), oracle_(oracle), compact_(compact),
        threshold_(threshold) {}
  std::string name() const override { return compact_ ? "UGAL-PF" : "UGAL"; }
  int max_hops() const override {
    const int d = std::max(1, oracle_.diameter());
    return compact_ ? d + 1 : 2 * d;
  }
  void route(const Network& net, int src, int dst, util::Rng& rng,
             Route& out) const override;
  void route_degraded(const Network& net, const graph::Graph& g,
                      const DistanceOracle& oracle, int src, int dst,
                      util::Rng& rng, Route& out) const override;

 private:
  const graph::Graph& graph_;
  const DistanceOracle& oracle_;
  bool compact_ = false;
  double threshold_ = 0.0;
};

/// Fat-tree nearest-common-ancestor routing: adaptive random up-links to
/// the NCA level, deterministic digit-fixing down-path.
class FatTreeNcaRouting final : public RoutingAlgorithm {
 public:
  explicit FatTreeNcaRouting(const topo::FatTree& ft) : ft_(ft) {}
  std::string name() const override { return "NCA"; }
  int max_hops() const override { return 2 * (ft_.levels() - 1); }
  void route(const Network& net, int src, int dst, util::Rng& rng,
             Route& out) const override;

 private:
  const topo::FatTree& ft_;
};

/// Table-free PolarFly routing (SS IV-D): adjacency is a dot product;
/// the 2-hop intermediate is the normalized cross product.
class AlgebraicPolarFlyRouting final : public RoutingAlgorithm {
 public:
  explicit AlgebraicPolarFlyRouting(const core::PolarFly& pf) : pf_(pf) {}
  std::string name() const override { return "ALG"; }
  int max_hops() const override { return 2; }
  void route(const Network& net, int src, int dst, util::Rng& rng,
             Route& out) const override;

 private:
  const core::PolarFly& pf_;
};

}  // namespace pf::sim
