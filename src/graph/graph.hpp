// The core graph type: an immutable undirected simple graph in CSR
// (compressed sparse row) form. Neighbor lists are sorted, so adjacency
// tests are short searches and edge enumeration is cache-friendly —
// every topology in topo/ and the simulator in sim/ run on this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace pf::graph {

using Edge = std::pair<std::int32_t, std::int32_t>;

class Graph {
 public:
  Graph() = default;

  /// Builds from an edge list; duplicates, self-loops and orientation are
  /// normalized away.
  static Graph from_edges(int num_vertices, std::vector<Edge> edges);

  int num_vertices() const { return num_vertices_; }

  /// Number of undirected edges.
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(targets_.size()) / 2;
  }

  /// Sorted neighbor range of v, usable in range-for.
  struct Neighbors {
    const std::int32_t* first;
    const std::int32_t* last;
    const std::int32_t* begin() const { return first; }
    const std::int32_t* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
    std::int32_t operator[](std::size_t i) const { return first[i]; }
  };

  Neighbors neighbors(int v) const {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }

  int degree(int v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  int min_degree() const;
  int max_degree() const;

  bool has_edge(int u, int v) const { return neighbor_index(u, v) >= 0; }

  /// Position of v in u's sorted neighbor row, or -1 when u and v are not
  /// adjacent. The entry an evenly spread row would give v, index
  /// v * degree / n, is tried first (PolarFly's rows put most neighbors
  /// there); a miss falls back to a binary search.
  int neighbor_index(int u, int v) const {
    const std::int32_t* first = targets_.data() + offsets_[u];
    const std::int32_t* last = targets_.data() + offsets_[u + 1];
    if (first != last &&
        static_cast<unsigned>(v) < static_cast<unsigned>(num_vertices_)) {
      const std::int64_t guess = static_cast<std::int64_t>(v) *
                                 (last - first) / num_vertices_;
      if (first[guess] == v) return static_cast<int>(guess);
    }
    const std::int32_t* it = std::lower_bound(first, last, v);
    return it != last && *it == v ? static_cast<int>(it - first) : -1;
  }

  /// All edges as (u, v) pairs with u < v.
  std::vector<Edge> edge_list() const;

  /// A copy with the given edges removed (orientation-insensitive).
  Graph without_edges(const std::vector<Edge>& removed) const;

 private:
  int num_vertices_ = 0;
  std::vector<std::int64_t> offsets_;   // size num_vertices_ + 1
  std::vector<std::int32_t> targets_;   // both directions of every edge
};

}  // namespace pf::graph
