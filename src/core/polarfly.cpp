#include "core/polarfly.hpp"

#include <stdexcept>

namespace pf::core {

PolarFly::PolarFly(std::uint32_t q) : field_(q) {
  const int n = static_cast<int>(q * q + q + 1);

  // Canonical point enumeration: (0,0,1), then (0,1,z), then (1,y,z).
  // point_index inverts this arithmetically, so construction never needs
  // a hash map.
  points_.reserve(static_cast<std::size_t>(n));
  points_.push_back({0, 0, 1});
  for (std::uint32_t z = 0; z < q; ++z) points_.push_back({0, 1, z});
  for (std::uint32_t y = 0; y < q; ++y) {
    for (std::uint32_t z = 0; z < q; ++z) points_.push_back({1, y, z});
  }

  // Adjacency: for each point u, enumerate its polar line u-perp — the
  // q + 1 projective solutions of u . x = 0 — in O(q) by spanning it with
  // two independent solutions. O(N q) = O(q^3) overall.
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (q + 1) / 2 + q + 1);
  quadrics_.clear();
  for (int ui = 0; ui < n; ++ui) {
    const auto& u = points_[static_cast<std::size_t>(ui)];
    // Two independent points on u-perp. With u = (a,b,c), the vectors
    // (b,-a,0), (c,0,-a), (0,c,-b) span candidates; pick two independent.
    const std::uint32_t a = u[0];
    const std::uint32_t b = u[1];
    const std::uint32_t c = u[2];
    std::array<std::uint32_t, 3> b1;
    std::array<std::uint32_t, 3> b2;
    if (a != 0) {
      b1 = {b, field_.neg(a), 0};
      b2 = {c, 0, field_.neg(a)};
    } else if (b != 0) {
      b1 = {b, field_.neg(a), 0};  // = (b, 0, 0) -> (1,0,0) direction
      b2 = {0, c, field_.neg(b)};
    } else {
      b1 = {1, 0, 0};
      b2 = {0, 1, 0};
    }
    // Points on the line: b1, and b2 + s*b1 for every s in GF(q).
    const int vi0 = point_index(normalize(b1));
    if (vi0 > ui) edges.emplace_back(ui, vi0);
    if (vi0 == ui) quadrics_.push_back(ui);  // u on its own polar line
    for (std::uint32_t s = 0; s < q; ++s) {
      std::array<std::uint32_t, 3> x;
      for (int k = 0; k < 3; ++k) {
        x[static_cast<std::size_t>(k)] =
            field_.add(b2[static_cast<std::size_t>(k)],
                       field_.mul(s, b1[static_cast<std::size_t>(k)]));
      }
      const int vi = point_index(normalize(x));
      if (vi > ui) edges.emplace_back(ui, vi);
      if (vi == ui) quadrics_.push_back(ui);
    }
  }
  graph_ = graph::Graph::from_edges(n, std::move(edges));

  // Classify: quadrics, then V1 = non-quadrics with a quadric neighbor.
  classes_.assign(static_cast<std::size_t>(n), VertexClass::V2);
  std::vector<std::uint8_t> is_quadric(static_cast<std::size_t>(n), 0);
  for (const int w : quadrics_) {
    classes_[static_cast<std::size_t>(w)] = VertexClass::Quadric;
    is_quadric[static_cast<std::size_t>(w)] = 1;
  }
  for (int v = 0; v < n; ++v) {
    if (classes_[static_cast<std::size_t>(v)] == VertexClass::Quadric) {
      continue;
    }
    for (const std::int32_t w : graph_.neighbors(v)) {
      if (is_quadric[static_cast<std::size_t>(w)]) {
        classes_[static_cast<std::size_t>(v)] = VertexClass::V1;
        break;
      }
    }
  }
}

std::array<std::uint32_t, 3> PolarFly::normalize(
    std::array<std::uint32_t, 3> point) const {
  for (int k = 0; k < 3; ++k) {
    const std::uint32_t lead = point[static_cast<std::size_t>(k)];
    if (lead == 0) continue;
    if (lead != 1) {
      const std::uint32_t inv = field_.inv(lead);
      for (int j = k; j < 3; ++j) {
        point[static_cast<std::size_t>(j)] =
            field_.mul(point[static_cast<std::size_t>(j)], inv);
      }
    }
    return point;
  }
  throw std::invalid_argument("cannot normalize the zero vector");
}

int PolarFly::point_index(const std::array<std::uint32_t, 3>& p) const {
  const std::uint32_t q = field_.order();
  if (p[0] == 1) return static_cast<int>(1 + q + p[1] * q + p[2]);
  if (p[1] == 1) return static_cast<int>(1 + p[2]);
  return 0;  // (0,0,1)
}

std::array<std::uint32_t, 3> PolarFly::coordinates(int v) const {
  return points_[static_cast<std::size_t>(v)];
}

std::vector<int> PolarFly::vertices_of_class(VertexClass c) const {
  std::vector<int> result;
  for (int v = 0; v < num_vertices(); ++v) {
    if (classes_[static_cast<std::size_t>(v)] == c) result.push_back(v);
  }
  return result;
}

int PolarFly::intermediate(int s, int d) const {
  if (s == d) throw std::invalid_argument("intermediate needs s != d");
  const auto& a = points_[static_cast<std::size_t>(s)];
  const auto& b = points_[static_cast<std::size_t>(d)];
  const auto& f = field_;
  // Cross product: orthogonal to both a and b, i.e. the pole of line sd.
  const std::array<std::uint32_t, 3> cross = {
      f.sub(f.mul(a[1], b[2]), f.mul(a[2], b[1])),
      f.sub(f.mul(a[2], b[0]), f.mul(a[0], b[2])),
      f.sub(f.mul(a[0], b[1]), f.mul(a[1], b[0]))};
  return point_index(normalize(cross));
}

}  // namespace pf::core
