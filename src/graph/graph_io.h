#ifndef UGS_GRAPH_GRAPH_IO_H_
#define UGS_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/uncertain_graph.h"
#include "util/status.h"

namespace ugs {

/// Text edge-list I/O in the SNAP-with-probabilities convention used by the
/// uncertain-graph literature:
///
///   # comment lines start with '#'
///   <u> <v> <p>
///
/// Vertex ids are dense 0-based integers. Loading infers the vertex count
/// as (max id + 1) unless a '# vertices: N' header is present. Ids must
/// stay below, and N must not exceed, the largest VertexId (IOError
/// naming the line otherwise). The parsed edges then go through
/// UncertainGraph::Build, whose InvalidArgument names the first invalid
/// edge (self loop, duplicate, p outside [0, 1], endpoint >= N).

/// Parses an uncertain graph from a file.
[[nodiscard]] Result<UncertainGraph> LoadEdgeList(const std::string& path);

/// Parses an uncertain graph from an in-memory string (used by tests).
[[nodiscard]] Result<UncertainGraph> ParseEdgeList(const std::string& text);

/// Writes the graph in the same format, including the vertex-count header
/// (so isolated trailing vertices survive a round trip).
[[nodiscard]] Status SaveEdgeList(const UncertainGraph& graph,
                                  const std::string& path);

}  // namespace ugs

#endif  // UGS_GRAPH_GRAPH_IO_H_
