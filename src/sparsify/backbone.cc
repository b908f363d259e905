#include "sparsify/backbone.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "util/check.h"
#include "util/union_find.h"

namespace ugs {
namespace {

/// Edge ids in Kruskal order: probability descending, ties in the order
/// of the ids given -- the order a stable sort by descending probability
/// gives. Kruskal usually spans within a prefix of the edges, so the
/// order is built lazily: a chunk at a time, each twice the last, by
/// nth_element and a sort of the chunk.
class KruskalOrder {
 public:
  KruskalOrder(const UncertainGraph& graph, std::span<const EdgeId> ids)
      : keys_(ids.size()) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      keys_[i] = {graph.edge(ids[i]).p, static_cast<std::uint32_t>(i), ids[i]};
    }
  }

  std::size_t size() const { return keys_.size(); }

  /// The i-th edge id in Kruskal order.
  EdgeId operator[](std::size_t i) {
    if (i >= sorted_) SortThrough(i);
    return keys_[i].id;
  }

 private:
  struct Key {
    double p;
    std::uint32_t rank;  // position in the ids given: the tie order.
    EdgeId id;
  };

  static bool Heavier(const Key& a, const Key& b) {
    return a.p > b.p || (a.p == b.p && a.rank < b.rank);
  }

  void SortThrough(std::size_t i) {
    const std::size_t end =
        std::min(keys_.size(), std::max({i + 1, 2 * sorted_, kFirstChunk}));
    const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    const auto last = keys_.begin() + static_cast<std::ptrdiff_t>(end);
    if (last != keys_.end()) std::nth_element(first, last, keys_.end(), Heavier);
    std::sort(first, last, Heavier);
    sorted_ = end;
  }

  static constexpr std::size_t kFirstChunk = 1024;
  std::vector<Key> keys_;
  std::size_t sorted_ = 0;  // keys_[0, sorted_) is in final order.
};

/// Kruskal's loop: peels one maximum spanning forest off `order`,
/// skipping the edges flagged in `taken` (if given), into `forest` in the
/// order it takes them. Stops once the forest spans. Returns false, with
/// `forest` holding limit + 1 edges, as soon as it would exceed `limit`
/// edges.
bool PeelForest(const UncertainGraph& graph, KruskalOrder* order,
                const std::vector<char>* taken, std::size_t limit,
                std::vector<EdgeId>* forest) {
  const std::size_t spanning = graph.num_vertices() - 1;
  UnionFind uf(graph.num_vertices());
  forest->clear();
  for (std::size_t i = 0; i < order->size(); ++i) {
    const EdgeId e = (*order)[i];
    if (taken != nullptr && (*taken)[e]) continue;
    const UncertainEdge& ed = graph.edge(e);
    if (!uf.Union(ed.u, ed.v)) continue;
    forest->push_back(e);
    if (forest->size() > limit) return false;
    if (forest->size() == spanning) break;
  }
  return true;
}

/// Fills `picked` up to `target` ids by repeatedly drawing a uniform edge
/// from `pool` and accepting it with its probability (Algorithm 1 lines
/// 7-11). Accepted edges are swap-removed from the pool.
void MonteCarloFill(const UncertainGraph& graph, std::size_t target,
                    std::vector<EdgeId>* pool, std::vector<EdgeId>* picked,
                    Rng* rng) {
  while (picked->size() < target && !pool->empty()) {
    std::size_t i = static_cast<std::size_t>(rng->NextIndex(pool->size()));
    EdgeId e = (*pool)[i];
    double p = graph.edge(e).p;
    if (p == 0.0) {
      // Can never be accepted; drop it so the loop terminates (possible
      // only when a sparsified graph is fed back in as input).
      (*pool)[i] = pool->back();
      pool->pop_back();
      continue;
    }
    if (rng->Bernoulli(p)) {
      picked->push_back(e);
      (*pool)[i] = pool->back();
      pool->pop_back();
    }
  }
  if (picked->size() < target) {
    UGS_CHECK(pool->empty());
  }
}

}  // namespace

std::size_t TargetEdgeCount(const UncertainGraph& graph, double alpha) {
  return static_cast<std::size_t>(
      std::llround(alpha * static_cast<double>(graph.num_edges())));
}

std::vector<EdgeId> MaximumSpanningForest(
    const UncertainGraph& graph, const std::vector<EdgeId>& available) {
  std::vector<EdgeId> forest;
  KruskalOrder order(graph, available);
  PeelForest(graph, &order, nullptr, available.size(), &forest);
  std::sort(forest.begin(), forest.end());
  return forest;
}

Result<std::vector<EdgeId>> BuildBackbone(const UncertainGraph& graph,
                                          double alpha,
                                          const BackboneOptions& options,
                                          Rng* rng) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("sparsification ratio alpha must be in "
                                   "(0,1), got " + std::to_string(alpha));
  }
  const std::size_t m = graph.num_edges();
  const std::size_t n = graph.num_vertices();
  const std::size_t target = TargetEdgeCount(graph, alpha);
  if (target == 0 || target > m) {
    return Status::InvalidArgument("alpha * |E| rounds to an invalid edge "
                                   "count " + std::to_string(target));
  }

  std::vector<EdgeId> picked;
  picked.reserve(target);
  std::vector<char> taken(m, 0);

  if (options.kind == BackboneKind::kSpanning) {
    // Peel maximum spanning forests off one Kruskal order of all edges
    // until the spanning budget alpha' |E| is exhausted or
    // max_spanning_forests forests were taken.
    std::vector<EdgeId> all(m);
    for (EdgeId e = 0; e < m; ++e) all[e] = e;
    KruskalOrder order(graph, all);
    std::vector<EdgeId> forest;
    // The first forest spans iff the graph is connected.
    PeelForest(graph, &order, nullptr, m, &forest);
    if (forest.size() == n - 1 && target < n - 1) {
      return Status::InvalidArgument(
          "alpha |E| = " + std::to_string(target) + " < |V| - 1 = " +
          std::to_string(n - 1) +
          "; a connectivity-preserving backbone is impossible "
          "(paper footnote 7)");
    }
    const std::size_t spanning_budget = static_cast<std::size_t>(
        options.spanning_fraction * static_cast<double>(target));
    auto take = [&] {
      for (EdgeId e : forest) taken[e] = 1;
      picked.insert(picked.end(), forest.begin(), forest.end());
    };
    if (options.max_spanning_forests > 0) {
      // The first forest is always taken (connectivity). It exceeds the
      // target only for a disconnected input, which keeps its heaviest
      // edges: the Kruskal-order prefix.
      if (forest.size() > target) forest.resize(target);
      take();
      // Later forests must fit in the spanning budget.
      for (int forests = 1; forests < options.max_spanning_forests &&
                            picked.size() < spanning_budget &&
                            picked.size() < target;
           ++forests) {
        if (!PeelForest(graph, &order, &taken,
                        spanning_budget - picked.size(), &forest) ||
            forest.empty()) {
          break;
        }
        take();
      }
    }
  }

  std::vector<EdgeId> pool;
  pool.reserve(m - picked.size());
  for (EdgeId e = 0; e < m; ++e) {
    if (!taken[e]) pool.push_back(e);
  }
  MonteCarloFill(graph, target, &pool, &picked, rng);
  UGS_CHECK_EQ(picked.size(), target);
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace ugs
