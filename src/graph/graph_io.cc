#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

namespace ugs {
namespace {

/// Ids must stay below this, so the vertex count (max id + 1) fits a
/// VertexId too.
constexpr VertexId kVertexLimit = std::numeric_limits<VertexId>::max();

/// A text edge list may size its graph to at most max(input bytes, this)
/// vertices, so the offsets Build allocates stay linear in the input
/// (8 MiB of them at this floor) however large a count the file names.
constexpr std::size_t kVertexCountFloor = std::size_t{1} << 20;

/// LoadEdgeList reads the file in chunks of this many bytes; a line that
/// does not fit doubles the buffer.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

bool IsExponentMark(char c) { return c == 'e' || c == 'E'; }

/// Whitespace as operator>> skips it in the classic locale:
/// ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') < 5;
}

const char* SkipSpace(const char* s, const char* end) {
  while (s != end && IsSpace(*s)) ++s;
  return s;
}

/// Reads an integer the way operator>> does: whitespace, an optional
/// sign, then decimal digits whose magnitude must fit 64 bits. Advances
/// *s past what it read; false when there are no digits or they overflow.
bool ReadMagnitude(const char** s, const char* end, bool* negative,
                   std::uint64_t* magnitude) {
  const char* p = SkipSpace(*s, end);
  *negative = p != end && *p == '-';
  if (p != end && (*p == '-' || *p == '+')) ++p;
  const auto [ptr, ec] = std::from_chars(p, end, *magnitude);
  if (ec != std::errc()) return false;
  *s = ptr;
  return true;
}

/// operator>> into a long long: a magnitude past its range fails.
bool ReadId(const char** s, const char* end, long long* id) {
  bool negative = false;
  std::uint64_t magnitude = 0;
  if (!ReadMagnitude(s, end, &negative, &magnitude)) return false;
  const std::uint64_t limit =
      std::uint64_t{std::numeric_limits<long long>::max()} + (negative ? 1 : 0);
  if (magnitude > limit) return false;
  *id = static_cast<long long>(negative ? 0 - magnitude : magnitude);
  return true;
}

/// True when a decimal literal [-]digits[.digits][(e|E)[+-]digits] that
/// from_chars found out of range is too large for a double (operator>>
/// fails) rather than too small (operator>> reads a zero): its leading
/// nonzero digit sits at or above the units place.
bool OverflowsDouble(const char* s, const char* end) {
  if (*s == '-') ++s;
  while (s != end && *s == '0') ++s;
  long long order = -1;  // Decimal place of the leading nonzero digit.
  for (; s != end && IsDigit(*s); ++s) ++order;
  if (order < 0 && s != end && *s == '.') {
    for (++s; s != end && *s == '0'; ++s) --order;
  }
  while (s != end && (IsDigit(*s) || *s == '.')) ++s;
  if (s != end && IsExponentMark(*s)) {
    ++s;
    const bool minus = s != end && *s == '-';
    if (s != end && (*s == '-' || *s == '+')) ++s;
    long long exponent = 0;
    for (; s != end && IsDigit(*s); ++s) {
      exponent = std::min<long long>(exponent * 10 + (*s - '0'), 1LL << 50);
    }
    order += minus ? -exponent : exponent;
  }
  return order >= 0;
}

/// operator>> into a double, which hands the characters it collects to
/// strtod: an optional sign, then digits with at most one '.', then an
/// exponent that must have digits. Infinity, NaN and hex are not read,
/// an overflow fails and an underflow reads as a signed zero.
bool ReadProbability(const char* s, const char* end, double* p) {
  s = SkipSpace(s, end);
  const char* number = s;
  if (s != end && (*s == '-' || *s == '+')) {
    if (*s == '+') number = s + 1;
    ++s;
  }
  if (s == end || !(IsDigit(*s) || *s == '.')) return false;
  const auto [ptr, ec] = std::from_chars(number, end, *p);
  // Stopping at an exponent mark means the exponent had no digits, unless
  // the literal already had an exponent ("0.5e1e" reads 0.5e1).
  if (ptr != end && IsExponentMark(*ptr) &&
      std::none_of(number, ptr, IsExponentMark)) {
    return false;
  }
  if (ec == std::errc::result_out_of_range) {
    if (OverflowsDouble(number, ptr)) return false;
    *p = *number == '-' ? -0.0 : 0.0;
    return true;
  }
  return ec == std::errc() && std::isfinite(*p);
}

std::string Quoted(const char* begin, const char* end) {
  std::string out = "'";
  out.append(begin, end);
  out += '\'';
  return out;
}

/// One pass over the text, a line at a time, into the edge vector Build
/// takes. Lines are numbered from 1, blank and comment lines included.
class EdgeListScanner {
 public:
  /// Scans every '\n'-terminated line of [*begin, end) and leaves *begin
  /// at the start of the unterminated tail.
  Status ScanLines(const char** begin, const char* end) {
    const char* line = *begin;
    while (const void* found = std::memchr(line, '\n', end - line)) {
      const char* newline = static_cast<const char*>(found);
      UGS_RETURN_IF_ERROR(ScanLine(line, newline));
      line = newline + 1;
    }
    *begin = line;
    return Status::OK();
  }

  /// Scans one line, without its '\n' (a CRLF line keeps its '\r').
  Status ScanLine(const char* begin, const char* end) {
    ++line_no_;
    const char* first = begin;
    while (first != end &&
           (*first == ' ' || *first == '\t' || *first == '\r')) {
      ++first;
    }
    if (first == end) return Status::OK();
    if (*first == '#') return ScanComment(begin, first, end);
    const char* s = begin;
    long long u = -1, v = -1;
    double p = 0.0;
    if (!ReadId(&s, end, &u) || !ReadId(&s, end, &v) ||
        !ReadProbability(s, end, &p)) {
      return Status::IOError("malformed edge at line " + LineNo() + ": " +
                             Quoted(begin, end));
    }
    if (u < 0 || v < 0) {
      return Status::IOError("negative vertex id at line " + LineNo());
    }
    if (u >= kVertexLimit || v >= kVertexLimit) {
      return Status::IOError("vertex id out of range at line " + LineNo() +
                             ": " + Quoted(begin, end));
    }
    UncertainEdge e{static_cast<VertexId>(u), static_cast<VertexId>(v), p};
    max_id_ = std::max({max_id_, e.u, e.v});
    edges_.push_back(e);
    return Status::OK();
  }

  /// Sizes the graph and builds it; `input_bytes` is the length of the
  /// text scanned.
  Result<UncertainGraph> Finish(std::size_t input_bytes) && {
    const std::size_t n =
        has_declared_ ? declared_vertices_
                      : (edges_.empty() ? 0 : std::size_t{max_id_} + 1);
    const std::size_t bound = std::max(input_bytes, kVertexCountFloor);
    if (n > bound) {
      return Status::IOError("vertex count " + std::to_string(n) +
                             " exceeds " + std::to_string(bound) +
                             ", the larger of the input's byte count and " +
                             std::to_string(kVertexCountFloor));
    }
    return UncertainGraph::Build(n, std::move(edges_));
  }

 private:
  /// An optional "# vertices: N" header; other comments are skipped.
  Status ScanComment(const char* begin, const char* first, const char* end) {
    constexpr std::string_view kKey = "vertices:";
    const std::string_view line(first, end - first);
    const std::size_t pos = line.find(kKey);
    if (pos == std::string_view::npos) return Status::OK();
    const char* s = first + pos + kKey.size();
    bool negative = false;
    std::uint64_t magnitude = 0;
    if (!ReadMagnitude(&s, end, &negative, &magnitude)) {
      return Status::IOError("unreadable vertex count at line " + LineNo() +
                             ": " + Quoted(begin, end));
    }
    // operator>> into an unsigned count wraps a leading '-'.
    const std::uint64_t n = negative ? 0 - magnitude : magnitude;
    if (n > kVertexLimit) {
      return Status::IOError("vertex count " + std::to_string(n) +
                             " at line " + LineNo() + " exceeds " +
                             std::to_string(kVertexLimit));
    }
    declared_vertices_ = n;
    has_declared_ = true;
    return Status::OK();
  }

  std::string LineNo() const { return std::to_string(line_no_); }

  std::vector<UncertainEdge> edges_;
  std::size_t declared_vertices_ = 0;
  bool has_declared_ = false;
  VertexId max_id_ = 0;
  std::size_t line_no_ = 0;
};

}  // namespace

Result<UncertainGraph> LoadEdgeList(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  EdgeListScanner scanner;
  std::vector<char> buffer(kReadChunk);
  std::size_t held = 0;  // An unterminated line carried to the next read.
  std::size_t total = 0;
  for (;;) {
    if (held == buffer.size()) buffer.resize(2 * buffer.size());
    const std::size_t got = std::fread(buffer.data() + held, 1,
                                       buffer.size() - held, file.get());
    if (got == 0) break;
    total += got;
    const char* rest = buffer.data();
    const char* end = rest + held + got;
    UGS_RETURN_IF_ERROR(scanner.ScanLines(&rest, end));
    held = static_cast<std::size_t>(end - rest);
    std::memmove(buffer.data(), rest, held);
  }
  if (std::ferror(file.get())) {
    return Status::IOError("read failure on '" + path + "'");
  }
  if (held > 0) {
    UGS_RETURN_IF_ERROR(scanner.ScanLine(buffer.data(), buffer.data() + held));
  }
  return std::move(scanner).Finish(total);
}

Result<UncertainGraph> ParseEdgeList(const std::string& text) {
  EdgeListScanner scanner;
  const char* rest = text.data();
  const char* end = rest + text.size();
  UGS_RETURN_IF_ERROR(scanner.ScanLines(&rest, end));
  if (rest != end) UGS_RETURN_IF_ERROR(scanner.ScanLine(rest, end));
  return std::move(scanner).Finish(text.size());
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
