// The PolarFly topology: the Erdős–Rényi polarity graph ER_q.
//
// Vertices are the q^2 + q + 1 points of the projective plane PG(2, q),
// normalized so the first nonzero coordinate is 1. Two distinct points u,
// v are joined iff u . v = 0 in GF(q) (each point is glued to its polar
// line). Self-conjugate points (u . u = 0, the "quadrics" W) would carry
// a self-loop and end up with degree q; all other points have degree
// q + 1. Any two distinct vertices have exactly one common neighbor — the
// normalized cross product — which gives diameter 2 and a table-free
// routing rule (SS IV-D of the paper).
//
// Non-quadric vertices split into V1 (adjacent to a quadric; polar line
// is a secant of the conic) and V2 (no quadric neighbor; polar line is
// external). For odd q, |W| = q+1, |V1| = q(q+1)/2, |V2| = q(q-1)/2.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "galois/field.hpp"
#include "graph/graph.hpp"

namespace pf::core {

enum class VertexClass { Quadric, V1, V2 };

class PolarFly {
 public:
  /// Builds ER_q; q must be a prime power.
  explicit PolarFly(std::uint32_t q);

  std::uint32_t q() const { return field_.order(); }
  int num_vertices() const { return graph_.num_vertices(); }

  /// Network radix = maximum degree = q + 1.
  int radix() const { return static_cast<int>(q()) + 1; }

  const graph::Graph& graph() const { return graph_; }
  const gf::Field& field() const { return field_; }

  /// Normalized homogeneous coordinates of vertex v.
  std::array<std::uint32_t, 3> coordinates(int v) const;

  /// Vertex index of normalized coordinates (first nonzero coord = 1).
  int point_index(const std::array<std::uint32_t, 3>& point) const;

  VertexClass vertex_class(int v) const {
    return classes_[static_cast<std::size_t>(v)];
  }

  /// The q + 1 self-conjugate vertices, ascending.
  const std::vector<int>& quadrics() const { return quadrics_; }

  std::vector<int> vertices_of_class(VertexClass c) const;

  /// The unique common neighbor of s and d (s != d): the normalized cross
  /// product of their coordinate vectors. For adjacent pairs this is the
  /// third vertex of their triangle — or s/d itself when that endpoint is
  /// a quadric adjacent to the other.
  int intermediate(int s, int d) const;

  /// u . v in GF(q) — 0 means adjacent (or u == v on the conic). Inline:
  /// the algebraic distance oracle calls it on every routing decision.
  std::uint32_t dot(int u, int v) const {
    const auto& a = points_[static_cast<std::size_t>(u)];
    const auto& b = points_[static_cast<std::size_t>(v)];
    std::uint32_t sum = 0;
    for (std::size_t k = 0; k < 3; ++k) {
      sum = field_.add(sum, field_.mul(a[k], b[k]));
    }
    return sum;
  }

 private:
  std::array<std::uint32_t, 3> normalize(
      std::array<std::uint32_t, 3> point) const;

  gf::Field field_;
  graph::Graph graph_;
  std::vector<std::array<std::uint32_t, 3>> points_;
  std::vector<VertexClass> classes_;
  std::vector<int> quadrics_;
};

}  // namespace pf::core
