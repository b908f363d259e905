#include "sparsify/spanner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "sparsify/backbone.h"
#include "util/check.h"
#include "util/union_find.h"

namespace ugs {
namespace {

constexpr VertexId kNoCluster = static_cast<VertexId>(-1);

/// The smallest stretch parameter t tried (a 3-spanner).
constexpr int kMinT = 2;

/// Per-vertex scan state reused across the clustering iterations: for the
/// current vertex, the best (least-weight) alive edge to each adjacent
/// cluster.
struct ClusterEdge {
  EdgeId edge = kInvalidEdge;
  double weight = std::numeric_limits<double>::infinity();
};

}  // namespace

std::vector<EdgeId> BaswanaSenSpanner(const UncertainGraph& graph,
                                      const std::vector<double>& weights,
                                      int t, Rng* rng) {
  UGS_CHECK_EQ(weights.size(), graph.num_edges());
  UGS_CHECK(t >= 1);
  const std::size_t n = graph.num_vertices();
  const std::size_t m = graph.num_edges();
  const double sample_probability =
      std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
               -1.0 / static_cast<double>(t));

  std::vector<char> alive(m, 1);
  std::vector<char> in_spanner(m, 0);
  std::vector<VertexId> cluster(n);
  for (VertexId v = 0; v < n; ++v) cluster[v] = v;

  auto add_to_spanner = [&](EdgeId e) { in_spanner[e] = 1; };
  auto kill_edges_to_cluster = [&](VertexId v, VertexId c) {
    for (const AdjacencyEntry& a : graph.Neighbors(v)) {
      if (alive[a.edge] && cluster[a.neighbor] == c) alive[a.edge] = 0;
    }
  };

  // ---- Phase 1: t-1 clustering iterations (lines 4-25). ----
  std::vector<char> sampled(n, 0);
  std::vector<VertexId> next_cluster(n);
  std::unordered_map<VertexId, ClusterEdge> adjacent;
  for (int iteration = 1; iteration <= t - 1; ++iteration) {
    // Line 5: sample clusters of C_{i-1} with probability n^{-1/t}.
    std::fill(sampled.begin(), sampled.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
      if (cluster[v] == v) {  // v is a cluster center.
        sampled[v] = rng->Bernoulli(sample_probability) ? 1 : 0;
      }
    }
    next_cluster = cluster;
    for (VertexId v = 0; v < n; ++v) {
      if (cluster[v] == kNoCluster) continue;      // Finished earlier.
      if (sampled[cluster[v]]) continue;           // Stays clustered.
      // Group v's alive edges by the neighbor's current cluster.
      adjacent.clear();
      for (const AdjacencyEntry& a : graph.Neighbors(v)) {
        if (!alive[a.edge]) continue;
        VertexId c = cluster[a.neighbor];
        if (c == kNoCluster) continue;
        ClusterEdge& best = adjacent[c];
        if (weights[a.edge] < best.weight) {
          best.weight = weights[a.edge];
          best.edge = a.edge;
        }
      }
      if (adjacent.empty()) {
        next_cluster[v] = kNoCluster;
        continue;
      }
      // Least-weight edge into a *sampled* adjacent cluster (line 10).
      ClusterEdge to_sampled;
      VertexId joined = kNoCluster;
      for (const auto& [c, ce] : adjacent) {
        if (sampled[c] && ce.weight < to_sampled.weight) {
          to_sampled = ce;
          joined = c;
        }
      }
      if (joined == kNoCluster) {
        // Lines 20-25: no sampled neighbor cluster; connect to every
        // adjacent cluster with its least edge, then retire v.
        for (const auto& [c, ce] : adjacent) {
          add_to_spanner(ce.edge);
          kill_edges_to_cluster(v, c);
        }
        next_cluster[v] = kNoCluster;
      } else {
        // Lines 10-19: join the sampled cluster through e*, plus every
        // adjacent cluster whose least edge beats e*.
        add_to_spanner(to_sampled.edge);
        next_cluster[v] = joined;
        kill_edges_to_cluster(v, joined);
        for (const auto& [c, ce] : adjacent) {
          if (c == joined) continue;
          if (ce.weight < to_sampled.weight) {
            add_to_spanner(ce.edge);
            kill_edges_to_cluster(v, c);
          }
        }
      }
    }
    cluster = next_cluster;
  }

  // ---- Phase 2: vertex-cluster joining. Every vertex connects to each
  // adjacent final cluster with its least-weight alive edge; alive
  // intra-cluster edges are discarded. ----
  for (VertexId v = 0; v < n; ++v) {
    adjacent.clear();
    for (const AdjacencyEntry& a : graph.Neighbors(v)) {
      if (!alive[a.edge]) continue;
      VertexId c = cluster[a.neighbor];
      if (c == kNoCluster || c == cluster[v]) continue;
      ClusterEdge& best = adjacent[c];
      if (weights[a.edge] < best.weight) {
        best.weight = weights[a.edge];
        best.edge = a.edge;
      }
    }
    for (const auto& [c, ce] : adjacent) {
      add_to_spanner(ce.edge);
      kill_edges_to_cluster(v, c);
    }
  }

  // ---- Connectivity pass (appendix lines 26-28): Boruvka-join the
  // spanner components with minimum-weight crossing edges. ----
  UnionFind uf(n);
  for (EdgeId e = 0; e < m; ++e) {
    if (in_spanner[e]) uf.Union(graph.edge(e).u, graph.edge(e).v);
  }
  while (uf.num_components() > 1) {
    // Min crossing edge per component root.
    std::unordered_map<VertexId, ClusterEdge> best_cross;
    for (EdgeId e = 0; e < m; ++e) {
      if (in_spanner[e]) continue;
      const UncertainEdge& ed = graph.edge(e);
      VertexId ru = uf.Find(ed.u);
      VertexId rv = uf.Find(ed.v);
      if (ru == rv) continue;
      for (VertexId r : {ru, rv}) {
        ClusterEdge& best = best_cross[r];
        if (weights[e] < best.weight) {
          best.weight = weights[e];
          best.edge = e;
        }
      }
    }
    if (best_cross.empty()) break;  // Input graph itself disconnected.
    bool merged_any = false;
    for (const auto& [root, ce] : best_cross) {
      const UncertainEdge& ed = graph.edge(ce.edge);
      if (uf.Union(ed.u, ed.v)) {
        add_to_spanner(ce.edge);
        merged_any = true;
      }
    }
    if (!merged_any) break;
  }

  std::vector<EdgeId> result;
  for (EdgeId e = 0; e < m; ++e) {
    if (in_spanner[e]) result.push_back(e);
  }
  return result;
}

Result<SpannerResult> SpannerSparsify(const UncertainGraph& graph,
                                      double alpha,
                                      const SpannerOptions& options,
                                      Rng* rng) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0,1), got " +
                                   std::to_string(alpha));
  }
  const std::size_t m = graph.num_edges();
  const std::size_t n = graph.num_vertices();
  const std::size_t target = TargetEdgeCount(graph, alpha);
  if (target == 0 || target > m) {
    return Status::InvalidArgument("invalid target edge count " +
                                   std::to_string(target));
  }

  // Weight transform: w = -log p, so least weight == most probable
  // (Section 3.2, after [32]). p = 0 edges get +inf-ish weight.
  std::vector<double> weights(m);
  for (EdgeId e = 0; e < m; ++e) {
    double p = graph.edge(e).p;
    weights[e] = p > 0.0 ? -std::log(p) : 1e30;
  }

  // Solve alpha |E| = t n^{1+1/t} over integers (Section 3.2): the
  // smallest t whose expected size fits the budget, or -- when every
  // expected size exceeds it (small graphs) -- the t minimizing the
  // expected size, i.e. the sparsest spanner the bound promises.
  int t = kMinT;
  double best_expected = std::numeric_limits<double>::infinity();
  bool found_fitting = false;
  for (int cand = kMinT; cand <= options.max_t; ++cand) {
    double expected =
        cand * std::pow(static_cast<double>(n),
                        1.0 + 1.0 / static_cast<double>(cand));
    if (expected <= alpha * static_cast<double>(m)) {
      t = cand;
      found_fitting = true;
      break;
    }
    if (expected < best_expected) {
      best_expected = expected;
      if (!found_fitting) t = cand;
    }
  }

  SpannerResult out;
  std::vector<EdgeId> spanner;
  for (;;) {
    spanner = BaswanaSenSpanner(graph, weights, t, rng);
    out.t_used = t;
    if (spanner.size() <= target || t >= options.max_t) break;
    ++t;  // Integer calibration step (Section 3.2).
  }

  if (spanner.size() > target) {
    // Even the sparsest spanner overshoots (tiny alpha): keep a maximum
    // spanning tree (by probability) and the lightest remaining edges.
    std::vector<EdgeId> tree = MaximumSpanningForest(graph, spanner);
    std::vector<char> in_tree(m, 0);
    for (EdgeId e : tree) in_tree[e] = 1;
    std::vector<EdgeId> rest;
    for (EdgeId e : spanner) {
      if (!in_tree[e]) rest.push_back(e);
    }
    std::sort(rest.begin(), rest.end(), [&](EdgeId a, EdgeId b) {
      return weights[a] < weights[b];
    });
    spanner = tree;
    for (EdgeId e : rest) {
      if (spanner.size() >= target) break;
      spanner.push_back(e);
    }
    if (spanner.size() > target) spanner.resize(target);
  }

  // Fill the remainder by Monte-Carlo sampling with original p.
  std::vector<char> chosen(m, 0);
  for (EdgeId e : spanner) chosen[e] = 1;
  std::vector<EdgeId> pool;
  for (EdgeId e = 0; e < m; ++e) {
    if (!chosen[e] && graph.edge(e).p > 0.0) pool.push_back(e);
  }
  out.edges = std::move(spanner);
  while (out.edges.size() < target) {
    UGS_CHECK(!pool.empty());
    std::size_t i = static_cast<std::size_t>(rng->NextIndex(pool.size()));
    EdgeId e = pool[i];
    if (rng->Bernoulli(graph.edge(e).p)) {
      out.edges.push_back(e);
      pool[i] = pool.back();
      pool.pop_back();
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

}  // namespace ugs
