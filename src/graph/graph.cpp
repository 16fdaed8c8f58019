#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace pf::graph {

Graph Graph::from_edges(int num_vertices, std::vector<Edge> edges) {
  for (auto& [u, v] : edges) {
    if (u < 0 || v < 0 || u >= num_vertices || v >= num_vertices) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // Drop self-loops (the polarity construction produces them at quadrics).
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.first == e.second; }),
              edges.end());

  Graph g;
  g.num_vertices_ = num_vertices;
  g.offsets_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (int v = 0; v < num_vertices; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.targets_.resize(static_cast<std::size_t>(g.offsets_[num_vertices]));
  std::vector<std::int64_t> cursor(g.offsets_.begin(),
                                   g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.targets_[static_cast<std::size_t>(cursor[u]++)] = v;
    g.targets_[static_cast<std::size_t>(cursor[v]++)] = u;
  }
  // Sorted-input edges give sorted rows for the lower endpoint only; sort
  // each row for neighbor_index.
  for (int v = 0; v < num_vertices; ++v) {
    std::sort(g.targets_.begin() + g.offsets_[v],
              g.targets_.begin() + g.offsets_[v + 1]);
  }
  return g;
}

int Graph::min_degree() const {
  int best = num_vertices_ == 0 ? 0 : degree(0);
  for (int v = 1; v < num_vertices_; ++v) best = std::min(best, degree(v));
  return best;
}

int Graph::max_degree() const {
  int best = 0;
  for (int v = 0; v < num_vertices_; ++v) best = std::max(best, degree(v));
  return best;
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (int u = 0; u < num_vertices_; ++u) {
    for (const std::int32_t v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

Graph Graph::without_edges(const std::vector<Edge>& removed) const {
  std::vector<Edge> normalized = removed;
  for (auto& [u, v] : normalized) {
    if (u > v) std::swap(u, v);
  }
  std::sort(normalized.begin(), normalized.end());
  std::vector<Edge> kept;
  kept.reserve(static_cast<std::size_t>(num_edges()));
  for (const auto& e : edge_list()) {
    if (!std::binary_search(normalized.begin(), normalized.end(), e)) {
      kept.push_back(e);
    }
  }
  return from_edges(num_vertices_, std::move(kept));
}

}  // namespace pf::graph
