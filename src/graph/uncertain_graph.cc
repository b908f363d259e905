#include "graph/uncertain_graph.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "util/union_find.h"

namespace ugs {

double EdgeEntropyBits(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
}

UncertainGraph::UncertainGraph(const UncertainGraph& other)
    : owned_edges_(other.edges_.begin(), other.edges_.end()),
      owned_degree_offsets_(other.degree_offsets_.begin(),
                            other.degree_offsets_.end()),
      owned_adjacency_(other.adjacency_.begin(), other.adjacency_.end()),
      owned_expected_degree_(other.expected_degree_.begin(),
                             other.expected_degree_.end()) {
  AdoptOwned();
}

UncertainGraph& UncertainGraph::operator=(const UncertainGraph& other) {
  if (this != &other) *this = UncertainGraph(other);
  return *this;
}

void UncertainGraph::AdoptOwned() {
  edges_ = owned_edges_;
  degree_offsets_ = owned_degree_offsets_;
  adjacency_ = owned_adjacency_;
  expected_degree_ = owned_expected_degree_;
  keepalive_.reset();
  external_bytes_ = 0;
}

UncertainGraph UncertainGraph::FromEdges(std::size_t num_vertices,
                                         std::vector<UncertainEdge> edges) {
  UncertainGraph g;
  g.owned_edges_ = std::move(edges);
  g.owned_degree_offsets_.assign(num_vertices + 1, 0);
  for (const UncertainEdge& e : g.owned_edges_) {
    UGS_CHECK(e.u < num_vertices && e.v < num_vertices);
    UGS_CHECK(e.u != e.v);
    UGS_CHECK(e.p >= 0.0 && e.p <= 1.0);
  }
  g.BuildAdjacency();
  g.AdoptOwned();
  return g;
}

UncertainGraph UncertainGraph::FromCsrView(
    const CsrArrays& arrays, std::shared_ptr<const void> keepalive,
    std::size_t resident_bytes) {
  UGS_CHECK(!arrays.degree_offsets.empty());
  UGS_CHECK(arrays.adjacency.size() == 2 * arrays.edges.size());
  UGS_CHECK(arrays.expected_degrees.size() ==
            arrays.degree_offsets.size() - 1);
  UncertainGraph g;
  g.edges_ = arrays.edges;
  g.degree_offsets_ = arrays.degree_offsets;
  g.adjacency_ = arrays.adjacency;
  g.expected_degree_ = arrays.expected_degrees;
  g.keepalive_ = std::move(keepalive);
  g.external_bytes_ = resident_bytes;
  return g;
}

void UncertainGraph::BuildAdjacency() {
  const std::size_t n = owned_degree_offsets_.size() - 1;
  // Counting pass.
  std::vector<std::size_t> counts(n, 0);
  for (const UncertainEdge& e : owned_edges_) {
    ++counts[e.u];
    ++counts[e.v];
  }
  owned_degree_offsets_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    owned_degree_offsets_[i + 1] = owned_degree_offsets_[i] + counts[i];
  }
  owned_adjacency_.resize(2 * owned_edges_.size());
  std::vector<std::uint64_t> cursor(owned_degree_offsets_.begin(),
                                    owned_degree_offsets_.end() - 1);
  for (EdgeId e = 0; e < owned_edges_.size(); ++e) {
    const UncertainEdge& ed = owned_edges_[e];
    owned_adjacency_[cursor[ed.u]++] = {ed.v, e};
    owned_adjacency_[cursor[ed.v]++] = {ed.u, e};
  }
  // Sort each vertex's slice by neighbor id to allow binary search and to
  // detect parallel edges.
  owned_expected_degree_.assign(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    auto begin = owned_adjacency_.begin() + owned_degree_offsets_[u];
    auto end = owned_adjacency_.begin() + owned_degree_offsets_[u + 1];
    std::sort(begin, end, [](const AdjacencyEntry& a, const AdjacencyEntry& b) {
      return a.neighbor < b.neighbor;
    });
    for (auto it = begin; it != end; ++it) {
      if (it != begin) UGS_CHECK((it - 1)->neighbor != it->neighbor);
      owned_expected_degree_[u] += owned_edges_[it->edge].p;
    }
  }
}

Status UncertainGraph::ApplyUpdates(std::span<const EdgeUpdate> updates) {
  Result<UncertainGraph> next = WithUpdates(updates);
  if (!next.ok()) return next.status();
  *this = std::move(next).value();
  return Status::OK();
}

Result<UncertainGraph> UncertainGraph::WithUpdates(
    std::span<const EdgeUpdate> updates) const {
  const std::size_t n = num_vertices();
  // Stage the mutated edge list (copying a view's edges if this graph is
  // mmap-backed); *this is never touched. A delete only flags its entry, so staged index e < num_edges() stays
  // edge id e of *this until the commit compacts once.
  std::vector<UncertainEdge> staged(edges_.begin(), edges_.end());
  std::vector<char> deleted(staged.size(), 0);
  // (min,max) endpoint -> staged index of each pair this batch inserted;
  // its size is the batch's, not |E|'s. Older pairs resolve by FindEdge.
  std::unordered_map<std::uint64_t, EdgeId> inserted;
  auto fail = [](std::size_t at, const std::string& why) {
    return Status::InvalidArgument("update[" + std::to_string(at) + "]: " +
                                   why);
  };
  auto edge_name = [](const EdgeUpdate& u) {
    // Appended, not `"(" + std::to_string(...)`: GCC 12 at -O3 flags
    // that with a false -Wrestrict.
    std::string name = "(";
    name += std::to_string(u.u);
    name += ',';
    name += std::to_string(u.v);
    name += ')';
    return name;
  };
  for (std::size_t at = 0; at < updates.size(); ++at) {
    const EdgeUpdate& u = updates[at];
    if (u.u >= n || u.v >= n) {
      return fail(at, "endpoint of " + edge_name(u) + " out of range for " +
                          std::to_string(n) + " vertices");
    }
    if (u.u == u.v) return fail(at, "self loop " + edge_name(u));
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(u.u, u.v)) << 32) |
        std::max(u.u, u.v);
    auto it = inserted.find(key);
    EdgeId e = it != inserted.end() ? it->second : FindEdge(u.u, u.v);
    if (e != kInvalidEdge && deleted[e]) e = kInvalidEdge;
    switch (u.op) {
      case EdgeUpdateOp::kInsert:
        if (e != kInvalidEdge) {
          return fail(at, "edge " + edge_name(u) + " already exists");
        }
        if (!(u.p > 0.0 && u.p <= 1.0)) {
          return fail(at, "probability must be in (0, 1]");
        }
        inserted[key] = static_cast<EdgeId>(staged.size());
        staged.push_back({u.u, u.v, u.p});
        deleted.push_back(0);
        break;
      case EdgeUpdateOp::kDelete:
        if (e == kInvalidEdge) {
          return fail(at, "edge " + edge_name(u) + " does not exist");
        }
        deleted[e] = 1;
        break;
      case EdgeUpdateOp::kReweight:
        if (e == kInvalidEdge) {
          return fail(at, "edge " + edge_name(u) + " does not exist");
        }
        if (!(u.p > 0.0 && u.p <= 1.0)) {
          return fail(at, "probability must be in (0, 1]");
        }
        staged[e].p = u.p;
        break;
      default:
        return fail(at, "unknown op " +
                            std::to_string(static_cast<int>(u.op)));
    }
  }
  // Commit: compact the survivors in order (deletes close the gap,
  // inserts follow in batch order), then rebuild exactly as a fresh load
  // of the equivalent edge list does.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (!deleted[i]) staged[kept++] = staged[i];
  }
  staged.resize(kept);
  return FromEdges(n, std::move(staged));
}

EdgeId UncertainGraph::FindEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return kInvalidEdge;
  // Search from the lower-degree endpoint.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const AdjacencyEntry& a, VertexId x) { return a.neighbor < x; });
  if (it != nbrs.end() && it->neighbor == v) return it->edge;
  return kInvalidEdge;
}

double UncertainGraph::EntropyBits() const {
  double h = 0.0;
  for (const UncertainEdge& e : edges_) h += EdgeEntropyBits(e.p);
  return h;
}

double UncertainGraph::ExpectedEdgeCount() const {
  double s = 0.0;
  for (const UncertainEdge& e : edges_) s += e.p;
  return s;
}

bool UncertainGraph::IsStructurallyConnected() const {
  const std::size_t n = num_vertices();
  if (n <= 1) return true;
  UnionFind uf(n);
  for (const UncertainEdge& e : edges_) uf.Union(e.u, e.v);
  return uf.num_components() == 1;
}

}  // namespace ugs
