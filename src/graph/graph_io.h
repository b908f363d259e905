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
///   # vertices: N
///   <u> <v> <p>
///
/// Lines end in '\n' (a '\r' before it is whitespace); the last may lack
/// one. Lines are numbered from 1, blank and comment lines included, and
/// a refused line is quoted whole in the error. A line of only ' ', '\t'
/// and '\r' is blank; one whose first other character is '#' is a
/// comment. The rest are edges, read as operator>> reads a long long,
/// a long long and a double in the classic locale:
///   - tokens are separated by any run of ' ', '\t', '\v', '\f', '\r',
///     or by nothing where the next token cannot continue the last
///     ("0+1+0.5" is the edge (0, 1, 0.5));
///   - an id is an optional sign and decimal digits ("+1", "-0", "007");
///   - p is an optional sign, digits with at most one '.' (".5", "5."),
///     and an optional exponent that must have digits ("0.5e" fails).
///     Infinity, NaN and hex ("0x1p-1" reads 0) are not read, a value
///     past a double's range fails, and one too small for it reads as 0;
///   - text after p is ignored (extra columns, "0.5,").
/// A malformed line, a negative id, or an id not below the largest
/// VertexId is an IOError naming the line.
///
/// Loading infers the vertex count as (max id + 1) unless a comment holds
/// "vertices:" followed by a count (whitespace and a sign allowed; the
/// last such header wins). A count operator>> cannot read (no digits, or
/// past 2^64) is an IOError naming the line, as is one above the largest
/// VertexId. The vertex count, declared or inferred, must not exceed
/// max(input bytes, 2^20) (IOError otherwise), so what Build allocates
/// stays linear in the input. The parsed edges then go through
/// UncertainGraph::Build, whose InvalidArgument names the first invalid
/// edge (self loop, duplicate, p outside [0, 1], endpoint >= N).

/// Parses an uncertain graph from a file, read in 64 KiB chunks (the
/// whole file is never held). A file that cannot be opened or read is an
/// IOError.
[[nodiscard]] Result<UncertainGraph> LoadEdgeList(const std::string& path);

/// Parses an uncertain graph from an in-memory string (used by tests).
[[nodiscard]] Result<UncertainGraph> ParseEdgeList(const std::string& text);

/// Writes the graph in the same format, including the vertex-count header
/// (so isolated trailing vertices survive a round trip).
[[nodiscard]] Status SaveEdgeList(const UncertainGraph& graph,
                                  const std::string& path);

}  // namespace ugs

#endif  // UGS_GRAPH_GRAPH_IO_H_
