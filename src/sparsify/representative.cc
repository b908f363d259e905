#include "sparsify/representative.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ugs {

std::vector<EdgeId> ModalRepresentative(const UncertainGraph& graph) {
  std::vector<EdgeId> edges;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (graph.edge(e).p >= 0.5) edges.push_back(e);
  }
  return edges;
}

std::vector<EdgeId> GreedyDegreeRepresentative(const UncertainGraph& graph,
                                               Rng* rng, ThreadPool& pool) {
  const std::size_t n = graph.num_vertices();
  // Residual degree budgets: round(d_u), at least 1 for any vertex with
  // edges so no vertex is isolated by rounding.
  std::vector<int> budget(n);
  for (VertexId u = 0; u < n; ++u) {
    int b = static_cast<int>(std::llround(graph.ExpectedDegree(u)));
    if (b == 0 && graph.Degree(u) > 0) b = 1;
    budget[u] = b;
  }

  std::vector<VertexId> order(n);
  for (VertexId u = 0; u < n; ++u) order[u] = u;
  rng->Shuffle(&order);

  // Probability-sorted incidence lists (tie-broken by edge id so the
  // order is a pure function of the graph). Computed once per vertex, in
  // parallel, instead of re-sorting the unused remainder inside the
  // greedy loop; the loop then just skips used edges.
  std::vector<std::vector<EdgeId>> sorted_incident(n);
  pool.ParallelFor(n, [&](std::size_t u) {
    std::vector<EdgeId>& incident = sorted_incident[u];
    incident.reserve(graph.Degree(static_cast<VertexId>(u)));
    for (const AdjacencyEntry& a :
         graph.Neighbors(static_cast<VertexId>(u))) {
      incident.push_back(a.edge);
    }
    std::sort(incident.begin(), incident.end(), [&](EdgeId a, EdgeId b) {
      double pa = graph.edge(a).p;
      double pb = graph.edge(b).p;
      if (pa != pb) return pa > pb;
      return a < b;
    });
  });

  std::vector<char> used(graph.num_edges(), 0);
  std::vector<EdgeId> chosen;
  for (VertexId u : order) {
    if (budget[u] <= 0) continue;
    for (EdgeId e : sorted_incident[u]) {
      if (budget[u] <= 0) break;
      if (used[e]) continue;
      const UncertainEdge& ed = graph.edge(e);
      VertexId other = (ed.u == u) ? ed.v : ed.u;
      if (budget[other] <= 0) continue;
      used[e] = 1;
      chosen.push_back(e);
      --budget[u];
      --budget[other];
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

double RepresentativeDegreeMae(const UncertainGraph& graph,
                               const std::vector<EdgeId>& representative) {
  const std::size_t n = graph.num_vertices();
  if (n == 0) return 0.0;
  std::vector<double> degree(n, 0.0);
  for (EdgeId e : representative) {
    UGS_CHECK(e < graph.num_edges());
    degree[graph.edge(e).u] += 1.0;
    degree[graph.edge(e).v] += 1.0;
  }
  double total = 0.0;
  for (VertexId u = 0; u < n; ++u) {
    total += std::abs(degree[u] - graph.ExpectedDegree(u));
  }
  return total / static_cast<double>(n);
}

UncertainGraph MaterializeRepresentative(
    const UncertainGraph& graph, const std::vector<EdgeId>& representative) {
  std::vector<UncertainEdge> edges;
  edges.reserve(representative.size());
  for (EdgeId e : representative) {
    const UncertainEdge& ed = graph.edge(e);
    edges.push_back({ed.u, ed.v, 1.0});
  }
  return UncertainGraph::FromEdges(graph.num_vertices(), std::move(edges));
}

}  // namespace ugs
