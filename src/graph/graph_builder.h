#ifndef UGS_GRAPH_GRAPH_BUILDER_H_
#define UGS_GRAPH_GRAPH_BUILDER_H_

#include <unordered_set>
#include <vector>

#include "graph/uncertain_graph.h"
#include "util/status.h"

namespace ugs {

/// Validating builder for UncertainGraph: rejects self loops, duplicate
/// edges, out-of-range endpoints and probabilities outside [0, 1] with a
/// Status instead of aborting (p = 0 is accepted: sparsified graphs carry
/// it). Intended for graph construction from
/// untrusted input (files, user code); generators use
/// UncertainGraph::FromEdges directly.
class GraphBuilder {
 public:
  /// Starts a graph over vertices [0, num_vertices).
  explicit GraphBuilder(std::size_t num_vertices);

  /// Adds the undirected edge {u, v} with probability p.
  [[nodiscard]] Status AddEdge(VertexId u, VertexId v, double p);

  std::size_t num_edges() const { return edges_.size(); }
  std::size_t num_vertices() const { return num_vertices_; }

  /// Consumes the builder and produces the immutable graph.
  UncertainGraph Build() &&;

 private:
  static std::uint64_t EdgeKey(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::size_t num_vertices_;
  std::vector<UncertainEdge> edges_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace ugs

#endif  // UGS_GRAPH_GRAPH_BUILDER_H_
