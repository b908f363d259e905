#include "graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace ugs {
namespace {

/// Ids must stay below this, so the vertex count (max id + 1) fits a
/// VertexId too.
constexpr VertexId kVertexLimit = std::numeric_limits<VertexId>::max();

Result<UncertainGraph> ParseFromStream(std::istream& in) {
  std::vector<UncertainEdge> edges;
  std::size_t declared_vertices = 0;
  bool has_declared = false;
  VertexId max_id = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Skip blank / whitespace-only lines (tolerates CRLF and indented
    // exports).
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') {
      // Optional "# vertices: N" header.
      std::size_t pos = line.find("vertices:");
      if (pos != std::string::npos) {
        std::istringstream hs(line.substr(pos + 9));
        std::size_t n = 0;
        if (hs >> n) {
          if (n > kVertexLimit) {
            return Status::IOError("vertex count " + std::to_string(n) +
                                   " at line " + std::to_string(line_no) +
                                   " exceeds " + std::to_string(kVertexLimit));
          }
          declared_vertices = n;
          has_declared = true;
        }
      }
      continue;
    }
    std::istringstream ls(line);
    long long u = -1, v = -1;
    double p = 0.0;
    if (!(ls >> u >> v >> p)) {
      return Status::IOError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    if (u < 0 || v < 0) {
      return Status::IOError("negative vertex id at line " +
                             std::to_string(line_no));
    }
    if (u >= kVertexLimit || v >= kVertexLimit) {
      return Status::IOError("vertex id out of range at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    UncertainEdge e{static_cast<VertexId>(u), static_cast<VertexId>(v), p};
    max_id = std::max({max_id, e.u, e.v});
    edges.push_back(e);
  }
  std::size_t n = has_declared
                      ? declared_vertices
                      : (edges.empty() ? 0 : static_cast<std::size_t>(max_id) + 1);
  return UncertainGraph::Build(n, std::move(edges));
}

}  // namespace

Result<UncertainGraph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ParseFromStream(in);
}

Result<UncertainGraph> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseFromStream(in);
}

Status SaveEdgeList(const UncertainGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << "# vertices: " << graph.num_vertices() << "\n";
  out << "# edges: " << graph.num_edges() << "\n";
  char buf[96];
  for (const UncertainEdge& e : graph.edges()) {
    std::snprintf(buf, sizeof(buf), "%u %u %.17g\n", e.u, e.v, e.p);
    out << buf;
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

}  // namespace ugs
