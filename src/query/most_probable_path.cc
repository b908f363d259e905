#include "query/most_probable_path.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/check.h"

namespace ugs {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Dijkstra over w = -log p; fills distances and predecessors.
void Dijkstra(const UncertainGraph& graph, VertexId s,
              std::vector<double>* dist, std::vector<VertexId>* pred) {
  const std::size_t n = graph.num_vertices();
  UGS_CHECK(s < n);
  dist->assign(n, kInfinity);
  pred->assign(n, kInvalidEdge);
  (*dist)[s] = 0.0;
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  queue.push({0.0, s});
  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (d > (*dist)[u]) continue;
    for (const AdjacencyEntry& a : graph.Neighbors(u)) {
      double p = graph.edge(a.edge).p;
      if (p <= 0.0) continue;
      double nd = d - std::log(p);
      if (nd < (*dist)[a.neighbor]) {
        (*dist)[a.neighbor] = nd;
        (*pred)[a.neighbor] = u;
        queue.push({nd, a.neighbor});
      }
    }
  }
}

}  // namespace

MostProbablePath FindMostProbablePath(const UncertainGraph& graph,
                                      VertexId s, VertexId t) {
  UGS_CHECK(t < graph.num_vertices());
  std::vector<double> dist;
  std::vector<VertexId> pred;
  Dijkstra(graph, s, &dist, &pred);
  MostProbablePath result;
  if (dist[t] == kInfinity) return result;
  result.probability = std::exp(-dist[t]);
  for (VertexId v = t; v != s; v = pred[v]) {
    result.vertices.push_back(v);
  }
  result.vertices.push_back(s);
  std::reverse(result.vertices.begin(), result.vertices.end());
  return result;
}

std::vector<double> MostProbablePathProbabilities(const UncertainGraph& graph,
                                                  VertexId s) {
  std::vector<double> dist;
  std::vector<VertexId> pred;
  Dijkstra(graph, s, &dist, &pred);
  std::vector<double> out(graph.num_vertices(), 0.0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (dist[v] != kInfinity) out[v] = std::exp(-dist[v]);
  }
  return out;
}

}  // namespace ugs
