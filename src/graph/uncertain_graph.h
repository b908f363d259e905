#ifndef UGS_GRAPH_UNCERTAIN_GRAPH_H_
#define UGS_GRAPH_UNCERTAIN_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace ugs {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Sentinel for "no such edge".
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// An undirected uncertain edge: endpoints and existence probability.
struct UncertainEdge {
  VertexId u = 0;
  VertexId v = 0;
  double p = 0.0;
};

/// One directed half of an undirected edge inside the CSR adjacency.
struct AdjacencyEntry {
  VertexId neighbor;
  EdgeId edge;
};

/// Edge mutation verbs (docs/dynamic-graphs.md). Values are the wire
/// encoding (service/wire.h) -- do not renumber.
enum class EdgeUpdateOp : std::uint8_t {
  kInsert = 1,    ///< Add a new edge (u,v) with probability p.
  kDelete = 2,    ///< Remove the existing edge (u,v); p ignored.
  kReweight = 3,  ///< Set the probability of the existing edge (u,v) to p.
};

/// One edge mutation. Endpoints are unordered ((u,v) names the same
/// undirected edge as (v,u)); p must be in (0, 1] for insert/reweight so
/// the mutated graph round-trips every storage format.
struct EdgeUpdate {
  EdgeUpdateOp op = EdgeUpdateOp::kReweight;
  VertexId u = 0;
  VertexId v = 0;
  double p = 0.0;
};

/// Entropy (in bits) of a single independent edge with probability p:
/// H(p) = -p log2 p - (1-p) log2(1-p); 0 at the deterministic endpoints.
double EdgeEntropyBits(double p);

/// The per-edge rule every way of making a graph applies (Build, and so
/// ParseEdgeList; .ugsc structure validation): both endpoints below
/// num_vertices, no self loop, p in [0, 1] with NaN refused.
/// InvalidArgument naming the fault otherwise.
[[nodiscard]] Status CheckEdge(const UncertainEdge& e,
                               std::size_t num_vertices);

/// The four parallel arrays of a fully-built CSR uncertain graph. The
/// binary .ugsc format (graph/csr_format.h) stores exactly these, so a
/// validated mapping can back an UncertainGraph without any copies.
struct CsrArrays {
  std::span<const UncertainEdge> edges;
  std::span<const std::uint64_t> degree_offsets;  ///< size n+1.
  std::span<const AdjacencyEntry> adjacency;      ///< size 2|E|.
  std::span<const double> expected_degrees;       ///< size n.
};

/// An immutable uncertain graph G = (V, E, p): undirected, no self loops,
/// no parallel edges, p_e in [0, 1]. Inputs normally have p > 0 (paper
/// definition), but sparsified graphs may carry p = 0 edges because the
/// GDB clamp rule (Algorithm 2 line 8) can drive a retained edge to zero.
///
/// Storage is an edge list (the canonical identity of each edge) plus a CSR
/// adjacency indexed by vertex; each undirected edge appears twice in the
/// adjacency, once per direction, carrying its EdgeId so per-edge data
/// (probabilities, world membership flags, discrepancy deltas) can live in
/// plain arrays parallel to the edge list.
///
/// All accessors read through spans into immutable arrays that a shared
/// keepalive handle pins: a heap block for Build / FromEdges, the mapped
/// file for FromCsrView. Copies share those arrays; nothing ever writes
/// them, so a copy and its original are independent values.
///
/// Construct through Build (validating), FromEdges (trusted input), or
/// MappedGraph::Open (graph/csr_format.h).
class UncertainGraph {
 public:
  /// The graph over vertices [0, num_vertices) with these edges, or
  /// InvalidArgument naming the first fault: an endpoint >= num_vertices,
  /// a self loop, p outside [0, 1] (NaN included; see CheckEdge), or the
  /// same pair twice in either orientation ("duplicate edge (u,v)").
  /// p = 0 is accepted because sparsified graphs carry it (see the class
  /// comment).
  [[nodiscard]] static Result<UncertainGraph> Build(
      std::size_t num_vertices, std::vector<UncertainEdge> edges);

  /// Build for edge lists the caller vouches for (generators, sparsifier
  /// outputs, WithUpdates' commit): aborts where Build returns an error.
  static UncertainGraph FromEdges(std::size_t num_vertices,
                                  std::vector<UncertainEdge> edges);

  /// Adopts already-validated external CSR arrays without copying.
  /// `keepalive` owns the backing storage (an mmap region) and is held
  /// until every copy of this graph is gone; `resident_bytes` (> 0) is
  /// the actual footprint of that storage (the mapped file size),
  /// reported through external_bytes(). The caller vouches for the
  /// arrays: all the structural invariants Build enforces must already
  /// hold (csr_format.h validates them at open). Accessors trust the
  /// arrays, so a malformed view is undefined behavior -- never construct
  /// one from unvalidated bytes.
  static UncertainGraph FromCsrView(const CsrArrays& arrays,
                                    std::shared_ptr<const void> keepalive,
                                    std::size_t resident_bytes);

  std::size_t num_vertices() const {
    return degree_offsets_.empty() ? 0 : degree_offsets_.size() - 1;
  }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const UncertainEdge> edges() const { return edges_; }

  const UncertainEdge& edge(EdgeId e) const {
    UGS_DCHECK(e < edges_.size());
    return edges_[e];
  }

  /// Probability of edge e.
  double probability(EdgeId e) const { return edge(e).p; }

  /// Neighbors of u with the connecting edge ids; sorted by neighbor id.
  std::span<const AdjacencyEntry> Neighbors(VertexId u) const {
    UGS_DCHECK(u < num_vertices());
    return {adjacency_.data() + degree_offsets_[u],
            adjacency_.data() + degree_offsets_[u + 1]};
  }

  /// Structural degree (number of incident edges) of u.
  std::size_t Degree(VertexId u) const {
    UGS_DCHECK(u < num_vertices());
    return degree_offsets_[u + 1] - degree_offsets_[u];
  }

  /// Expected degree of u: sum of incident edge probabilities. O(1).
  double ExpectedDegree(VertexId u) const {
    UGS_DCHECK(u < num_vertices());
    return expected_degree_[u];
  }

  /// The full expected-degree vector d (paper Section 4.1).
  std::span<const double> expected_degrees() const { return expected_degree_; }

  /// The raw CSR arrays (what WriteCsrGraph serializes).
  CsrArrays csr_arrays() const {
    return {edges_, degree_offsets_, adjacency_, expected_degree_};
  }

  /// True when the arrays live in external storage (an mmap'ed .ugsc
  /// file) instead of a heap block.
  bool is_view() const { return external_bytes_ != 0; }

  /// Bytes of external backing storage (the mapped file size); 0 for
  /// heap-backed graphs. Residency accounting (service/session_registry)
  /// prefers this over the heap estimate when present.
  std::size_t external_bytes() const { return external_bytes_; }

  /// Edge id joining u and v, or kInvalidEdge. O(log deg) binary search.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// The graph after a batch of edge mutations, built fresh: either
  /// every update applies (in order) and the result is returned, or the
  /// error names the failing update's index. *this is never modified.
  /// Inserts append to the edge list; deletes close the gap (later edges
  /// shift down one id); reweights are positional. The result is
  /// bit-identical to FromEdges(num_vertices(), equivalent_edge_list) --
  /// the version-equivalence contract (docs/dynamic-graphs.md) -- and
  /// lives on the heap even when *this is a view (mmap-backed .ugsc); the
  /// vertex count never changes. Costs O(|E| + b log d) for b updates,
  /// plus the FromEdges rebuild.
  [[nodiscard]] Result<UncertainGraph> WithUpdates(
      std::span<const EdgeUpdate> updates) const;

  /// WithUpdates in place, atomically: on error the graph is left
  /// untouched.
  [[nodiscard]] Status ApplyUpdates(std::span<const EdgeUpdate> updates);

  /// Total entropy H(G) = sum_e H(p_e) in bits (paper footnote 2; validated
  /// against the paper's Figure 2 value of 3.85 bits).
  double EntropyBits() const;

  /// Sum of all edge probabilities = expected number of edges in a world.
  double ExpectedEdgeCount() const;

  /// True iff the underlying deterministic structure (ignoring
  /// probabilities) is a single connected component. Empty graphs and
  /// single vertices count as connected.
  bool IsStructurallyConnected() const;

 private:
  // Access spans: every accessor reads these. They alias the arrays
  // keepalive_ pins.
  std::span<const UncertainEdge> edges_;
  std::span<const std::uint64_t> degree_offsets_;  // CSR offsets, size n+1.
  std::span<const AdjacencyEntry> adjacency_;      // size 2|E|.
  std::span<const double> expected_degree_;        // size n.

  // The storage the spans alias: a heap block, or an mmap region.
  std::shared_ptr<const void> keepalive_;
  std::size_t external_bytes_ = 0;  // Mapped file size; 0 on the heap.
};

}  // namespace ugs

#endif  // UGS_GRAPH_UNCERTAIN_GRAPH_H_
