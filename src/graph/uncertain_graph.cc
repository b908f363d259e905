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

namespace {

/// The heap block behind a built graph: the arrays its spans alias.
struct HeapArrays {
  std::vector<UncertainEdge> edges;
  std::vector<std::uint64_t> degree_offsets;
  std::vector<AdjacencyEntry> adjacency;
  std::vector<double> expected_degrees;
};

std::string PairName(std::uint64_t u, std::uint64_t v) {
  // Appended, not `"(" + std::to_string(...)`: GCC 12 at -O3 flags that
  // with a false -Wrestrict.
  std::string name = "(";
  name += std::to_string(u);
  name += ',';
  name += std::to_string(v);
  name += ')';
  return name;
}

}  // namespace

Status CheckEdge(const UncertainEdge& e, std::size_t num_vertices) {
  if (e.u >= num_vertices || e.v >= num_vertices) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   PairName(e.u, e.v));
  }
  if (e.u == e.v) {
    return Status::InvalidArgument("self loop at vertex " +
                                   std::to_string(e.u));
  }
  // Negated-range form so NaN (all comparisons false) is refused too.
  if (!(e.p >= 0.0 && e.p <= 1.0)) {
    return Status::InvalidArgument("edge probability must be in [0,1], got " +
                                   std::to_string(e.p));
  }
  return Status::OK();
}

Result<UncertainGraph> UncertainGraph::Build(std::size_t num_vertices,
                                             std::vector<UncertainEdge> edges) {
  auto heap = std::make_shared<HeapArrays>();
  heap->edges = std::move(edges);
  const std::vector<UncertainEdge>& list = heap->edges;
  // One pass checks every edge and counts degrees: offsets[u + 1] holds
  // deg(u) until the prefix sum turns the counts into row starts.
  std::vector<std::uint64_t>& offsets = heap->degree_offsets;
  offsets.assign(num_vertices + 1, 0);
  for (const UncertainEdge& e : list) {
    UGS_RETURN_IF_ERROR(CheckEdge(e, num_vertices));
    ++offsets[e.u + std::size_t{1}];
    ++offsets[e.v + std::size_t{1}];
  }
  for (std::size_t i = 0; i < num_vertices; ++i) offsets[i + 1] += offsets[i];
  std::vector<AdjacencyEntry>& adjacency = heap->adjacency;
  adjacency.resize(2 * list.size());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < list.size(); ++e) {
    adjacency[cursor[list[e].u]++] = {list[e].v, e};
    adjacency[cursor[list[e].v]++] = {list[e].u, e};
  }
  // Sort each row by neighbor id for FindEdge's binary search; equal
  // neighbors in a row are a parallel edge, in whichever orientation it
  // was given. Row min(u, v) meets it first.
  heap->expected_degrees.assign(num_vertices, 0.0);
  for (std::size_t u = 0; u < num_vertices; ++u) {
    auto begin = adjacency.begin() + offsets[u];
    auto end = adjacency.begin() + offsets[u + 1];
    std::sort(begin, end, [](const AdjacencyEntry& a, const AdjacencyEntry& b) {
      return a.neighbor < b.neighbor;
    });
    for (auto it = begin; it != end; ++it) {
      if (it != begin && (it - 1)->neighbor == it->neighbor) {
        return Status::InvalidArgument("duplicate edge " +
                                       PairName(u, it->neighbor));
      }
      heap->expected_degrees[u] += list[it->edge].p;
    }
  }
  UncertainGraph g;
  g.edges_ = heap->edges;
  g.degree_offsets_ = heap->degree_offsets;
  g.adjacency_ = heap->adjacency;
  g.expected_degree_ = heap->expected_degrees;
  g.keepalive_ = std::move(heap);
  return g;
}

UncertainGraph UncertainGraph::FromEdges(std::size_t num_vertices,
                                         std::vector<UncertainEdge> edges) {
  Result<UncertainGraph> built = Build(num_vertices, std::move(edges));
  UGS_CHECK(built.ok());
  return std::move(built).value();
}

UncertainGraph UncertainGraph::FromCsrView(
    const CsrArrays& arrays, std::shared_ptr<const void> keepalive,
    std::size_t resident_bytes) {
  UGS_CHECK(!arrays.degree_offsets.empty());
  UGS_CHECK(arrays.adjacency.size() == 2 * arrays.edges.size());
  UGS_CHECK(arrays.expected_degrees.size() ==
            arrays.degree_offsets.size() - 1);
  UGS_CHECK(resident_bytes > 0);  // is_view() reads it.
  UncertainGraph g;
  g.edges_ = arrays.edges;
  g.degree_offsets_ = arrays.degree_offsets;
  g.adjacency_ = arrays.adjacency;
  g.expected_degree_ = arrays.expected_degrees;
  g.keepalive_ = std::move(keepalive);
  g.external_bytes_ = resident_bytes;
  return g;
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
  // Stage the mutated edge list; *this is never touched. A delete only
  // flags its entry, so staged index e < num_edges() stays edge id e of
  // *this until the commit compacts once.
  std::vector<UncertainEdge> staged(edges_.begin(), edges_.end());
  std::vector<char> deleted(staged.size(), 0);
  // (min,max) endpoint -> staged index of each pair this batch inserted;
  // its size is the batch's, not |E|'s. Older pairs resolve by FindEdge.
  std::unordered_map<std::uint64_t, EdgeId> inserted;
  auto fail = [](std::size_t at, const std::string& why) {
    return Status::InvalidArgument("update[" + std::to_string(at) + "]: " +
                                   why);
  };
  for (std::size_t at = 0; at < updates.size(); ++at) {
    const EdgeUpdate& u = updates[at];
    if (u.u >= n || u.v >= n) {
      return fail(at, "endpoint of " + PairName(u.u, u.v) +
                          " out of range for " + std::to_string(n) +
                          " vertices");
    }
    if (u.u == u.v) return fail(at, "self loop " + PairName(u.u, u.v));
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(u.u, u.v)) << 32) |
        std::max(u.u, u.v);
    auto it = inserted.find(key);
    EdgeId e = it != inserted.end() ? it->second : FindEdge(u.u, u.v);
    if (e != kInvalidEdge && deleted[e]) e = kInvalidEdge;
    switch (u.op) {
      case EdgeUpdateOp::kInsert:
        if (e != kInvalidEdge) {
          return fail(at, "edge " + PairName(u.u, u.v) + " already exists");
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
          return fail(at, "edge " + PairName(u.u, u.v) + " does not exist");
        }
        deleted[e] = 1;
        break;
      case EdgeUpdateOp::kReweight:
        if (e == kInvalidEdge) {
          return fail(at, "edge " + PairName(u.u, u.v) + " does not exist");
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
