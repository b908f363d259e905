#include "query/knn.h"

#include <cmath>
#include <limits>
#include <queue>

#include "util/check.h"

namespace ugs {

std::vector<KnnResult> MostProbableKnn(const UncertainGraph& graph,
                                       VertexId source, std::size_t k) {
  const std::size_t n = graph.num_vertices();
  UGS_CHECK(source < n);
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInfinity);
  std::vector<char> settled(n, 0);
  dist[source] = 0.0;
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  queue.push({0.0, source});

  std::vector<KnnResult> result;
  result.reserve(k);
  while (!queue.empty() && result.size() < k) {
    auto [d, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    if (u != source) {
      result.push_back({u, std::exp(-d)});  // Settled in distance order.
    }
    for (const AdjacencyEntry& a : graph.Neighbors(u)) {
      double p = graph.edge(a.edge).p;
      if (p <= 0.0 || settled[a.neighbor]) continue;
      double nd = d - std::log(p);
      if (nd < dist[a.neighbor]) {
        dist[a.neighbor] = nd;
        queue.push({nd, a.neighbor});
      }
    }
  }
  return result;
}

}  // namespace ugs
