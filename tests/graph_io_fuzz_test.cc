// Failure-injection tests for the edge-list parser: every malformed input
// must produce a Status, never a crash or a silently wrong graph.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"

namespace ugs {
namespace {

class MalformedInputTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MalformedInputTest, RejectedWithStatus) {
  Result<UncertainGraph> r = ParseEdgeList(GetParam());
  EXPECT_FALSE(r.ok()) << "input: '" << GetParam() << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, MalformedInputTest,
    ::testing::Values(
        "0 1\n",                         // Missing probability.
        "0\n",                           // Single token.
        "a b 0.5\n",                     // Non-numeric ids.
        "0 1 x\n",                       // Non-numeric probability.
        "-3 1 0.5\n",                    // Negative id.
        "0 -1 0.5\n",                    // Negative id (second).
        "0 1 1.0001\n",                  // p > 1.
        "0 1 -0.2\n",                    // p < 0.
        "0 1 1e300\n",                   // Absurd probability.
        "0 0 0.5\n",                     // Self loop.
        "0 1 0.5\n0 1 0.6\n",            // Duplicate.
        "0 1 0.5\n1 0 0.6\n",            // Duplicate, reversed.
        "# vertices: 1\n0 1 0.5\n"));    // Header smaller than max id.

TEST(ParserRobustnessTest, NanProbabilityRejected) {
  Result<UncertainGraph> r = ParseEdgeList("0 1 nan\n");
  // istream either fails to parse (IOError) or parses NaN, which the
  // range check must reject; both are acceptable failures.
  EXPECT_FALSE(r.ok());
}

TEST(ParserRobustnessTest, InfinityRejected) {
  EXPECT_FALSE(ParseEdgeList("0 1 inf\n").ok());
}

TEST(ParserRobustnessTest, WhitespaceVariantsAccepted) {
  Result<UncertainGraph> r =
      ParseEdgeList("  0\t1\t0.5\n\n\t\n1   2   0.25\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_edges(), 2u);
}

TEST(ParserRobustnessTest, CrLfLineEndingsAccepted) {
  Result<UncertainGraph> r = ParseEdgeList("0 1 0.5\r\n1 2 0.25\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_edges(), 2u);
}

TEST(ParserRobustnessTest, TrailingGarbageOnLineIgnored) {
  // Extra columns after (u, v, p) are tolerated (some exports carry
  // timestamps); the triple itself must parse.
  Result<UncertainGraph> r = ParseEdgeList("0 1 0.5 extra tokens\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_edges(), 1u);
}

TEST(ParserRobustnessTest, LargeVertexIdsWork) {
  Result<UncertainGraph> r = ParseEdgeList("0 99999 0.5\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 100000u);
}

TEST(ParserRobustnessTest, ScientificNotationProbability) {
  Result<UncertainGraph> r = ParseEdgeList("0 1 5e-2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->edge(0).p, 0.05);
}

TEST(ParserRobustnessTest, BoundaryProbabilitiesAccepted) {
  // p = 1 is legal input; p = 0 is legal for round-tripping sparsified
  // graphs (GDB clamp rule).
  Result<UncertainGraph> r = ParseEdgeList("0 1 1.0\n1 2 0.0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->edge(0).p, 1.0);
  EXPECT_DOUBLE_EQ(r->edge(1).p, 0.0);
}


// ---------------------------------------------------------------------------
// Differential test: the scanner against the parser it replaced.

/// The edge-list parser as it was before the buffered scanner: getline,
/// then one std::istringstream per line. It is the reference the scanner
/// must match bit for bit, with one branch changed: a "# vertices:"
/// value operator>> cannot read, which it used to ignore, is refused.
Result<UncertainGraph> ReferenceParse(const std::string& text) {
  constexpr VertexId kVertexLimit = std::numeric_limits<VertexId>::max();
  std::istringstream in(text);
  std::vector<UncertainEdge> edges;
  std::size_t declared_vertices = 0;
  bool has_declared = false;
  VertexId max_id = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') {
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
        } else {
          // The one intended change: this header used to be ignored.
          return Status::IOError("unreadable vertex count at line " +
                                 std::to_string(line_no) + ": '" + line +
                                 "'");
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
  std::size_t n = has_declared ? declared_vertices
                               : (edges.empty() ? 0 : std::size_t{max_id} + 1);
  // The corpus stays far below the loader's size bound; this guard keeps
  // a corpus mistake from sizing a huge graph here.
  if (n > 4096) return Status::Internal("corpus graph too large");
  return UncertainGraph::Build(n, std::move(edges));
}

std::string Printable(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out.size() > 300 ? out.substr(0, 300) + "..." : out;
}

/// Equal ok(), code and message, and on success equal vertex counts and
/// bitwise-equal edges.
::testing::AssertionResult SameAsReference(const std::string& text) {
  Result<UncertainGraph> want = ReferenceParse(text);
  if (!want.ok() && want.status().code() == StatusCode::kInternal) {
    return ::testing::AssertionFailure()
           << "corpus input too large: " << Printable(text);
  }
  Result<UncertainGraph> got = ParseEdgeList(text);
  auto failure = [&] {
    return ::testing::AssertionFailure()
           << "input '" << Printable(text) << "': reference "
           << (want.ok() ? "OK" : want.status().ToString()) << ", scanner "
           << (got.ok() ? "OK" : got.status().ToString());
  };
  if (got.ok() != want.ok()) return failure();
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return failure();
    }
    return ::testing::AssertionSuccess();
  }
  if (got->num_vertices() != want->num_vertices() ||
      got->num_edges() != want->num_edges()) {
    return failure();
  }
  for (EdgeId e = 0; e < want->num_edges(); ++e) {
    const UncertainEdge& a = got->edge(e);
    const UncertainEdge& b = want->edge(e);
    if (a.u != b.u || a.v != b.v ||
        std::bit_cast<std::uint64_t>(a.p) !=
            std::bit_cast<std::uint64_t>(b.p)) {
      return failure() << " (edge " << e << " differs: p " << a.p << " vs "
                       << b.p << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Probability literals, including every form where std::from_chars and
/// operator>> part ways: signs, dangling exponents, underflow, overflow,
/// inf/nan, trailing text, hex, and digit strings past a double's range.
std::vector<std::string> ProbabilityLiterals() {
  std::vector<std::string> out = {
      "0.5", "1", "0", "1.0", "0.0", "+0.5", "+1", "+0", "-0", "-0.0",
      "+.5", "-.5", ".5", "5.", "1.", "0.", ".", "-.", "+", "-", "",
      "+-0.5", "-+0.5", "++0.5", "--0.5", "0.5e", "0.5E", "1e+", "1e-",
      "1E+", "1e+x", "0.5ex", "1ee1", ".e1", "e1", "5.e-1", "0.5e0",
      "0.5E+0", "1e-1", "1E-1", "1e-0001", "100e-2", "25e-2x", "1e-400",
      "-1e-400", "+1e-400", "1e-320", "-1e-320", "1e400", "-1e400",
      "+1e400", "4.9406564584124654e-324", "2.4703282292062328e-324",
      "2.4703282292062327e-324", "2.2250738585072014e-308", "inf", "-inf",
      "+inf", "INF", "infinity", "Infinity", "nan", "-nan", "NaN",
      "nan(1)", "0.5,", "0.5.5", "0.5,7", "0.5junk", "0.5e1.5", "0.5e-1.5",
      "0x1p-1", "0X1", "0x", "0x0.8", "00000.25", "0000", "-0000",
      "0.250000000000000000000000000001", "1.0000000000000002",
      "0.99999999999999999", "0.9999999999999999", "1.00000000000000001",
      "1e0", "0e999999999999999999999", "1e-999999999999999999999",
      "1e999999999999999999999", "0.1e1", "0.01e2", "10e-1", "1.5",
      "0.3333333333333333148296162562473909929394721984863281250000001",
  };
  out.push_back("0." + std::string(400, '0') + "1");
  out.push_back("-0." + std::string(400, '0') + "1");
  out.push_back("1" + std::string(400, '0'));
  out.push_back("0." + std::string(400, '9'));
  out.push_back("1" + std::string(400, '0') + "e-400");
  out.push_back("1" + std::string(400, '0') + "e-401");
  out.push_back("0." + std::string(400, '0') + "1e400");
  out.push_back("0." + std::string(400, '0') + "1e100");
  out.push_back("0." + std::string(320, '0') + "5");
  return out;
}

/// Vertex-id literals. Valid ids stay small (the corpus never sizes a big
/// graph); the large ones are refused as out of range or overflow.
std::vector<std::string> IdLiterals() {
  return {"0", "1", "2", "+1", "-0", "+0", "007", "0x1", "1.5", "1e1",
          "-1", "-3", "+-1", "--1", "+", "-", "a", "1a", "4294967295",
          "4294967296", "4294967297", "9223372036854775807",
          "9223372036854775808", "-9223372036854775808",
          "-9223372036854775809", "18446744073709551616",
          "99999999999999999999"};
}

TEST(ParserDifferentialTest, EdgeLiteralsMatchTheIstreamParser) {
  for (const std::string& p : ProbabilityLiterals()) {
    EXPECT_TRUE(SameAsReference("0 1 " + p + "\n"));
    EXPECT_TRUE(SameAsReference("2 3 " + p));
    EXPECT_TRUE(SameAsReference("0 1 0.5\n2 3 " + p + "\r\n"));
    EXPECT_TRUE(SameAsReference("0 1 " + p + " 7 extra\n"));
    EXPECT_TRUE(SameAsReference("0 1 " + p + "\t0.5\n"));
  }
  const std::vector<std::string> ids = IdLiterals();
  for (const std::string& u : ids) {
    for (const std::string& v : ids) {
      EXPECT_TRUE(SameAsReference(u + " " + v + " 0.5\n"));
    }
  }
  // No separator at all: operator>> stops each token where it can.
  for (const char* text :
       {"0+1+0.5\n", "1-2 0.5\n", "0 1.5\n", "0 1 .5.5\n", "01 02 0.5\n",
        "0 1-0\n", "0 1+0.5e-1x\n", "1 2 0.5e+1e\n", "0\n", "0 1\n",
        "0 1 \n"}) {
    EXPECT_TRUE(SameAsReference(text));
  }
}

TEST(ParserDifferentialTest, WhitespaceAndLinesMatchTheIstreamParser) {
  const std::vector<std::string> separators = {
      " ", "\t", "\v", "\f", "\r", "  ", "\t \v", " \f\r"};
  for (const std::string& s : separators) {
    EXPECT_TRUE(SameAsReference("0" + s + "1" + s + "0.5\n"));
    EXPECT_TRUE(SameAsReference(s + "0 1 0.5" + s + "\n"));
    EXPECT_TRUE(SameAsReference(s + "\n0 1 0.5\n"));
    EXPECT_TRUE(SameAsReference("0 1 0.5\n" + s));
    EXPECT_TRUE(SameAsReference(s + "# note\n0 1 0.5\n"));
    EXPECT_TRUE(SameAsReference("0 1 0.5\n" + s + "x\n"));
  }
  for (const std::string& text : std::vector<std::string>{
           "", "\n", "\n\n\n", "\r\n", " \t\r\n", "#", "# only\n# comments",
        "0 1 0.5", "0 1 0.5\n\n\n1 2 0.5", "0 1 0.5\r\n1 2 0.25\r\n",
        "0 1 0.5\r\n\r\n1 2 x\r\n", "\v\n0 1 0.5\n", "\f\n", "0 1 0.5\n\v",
        std::string("0 1 0.5\0junk\n", 13), std::string("\0", 1),
        "0 1 0.5\n1 0 0.5\n", "0 0 0.5\n", "0 1 0.5\n0 1 0.5\n",
        "3 1 0.5\n1 2 0.25\n0 3 1\n"}) {
    EXPECT_TRUE(SameAsReference(text));
  }
}

TEST(ParserDifferentialTest, VertexHeadersMatchTheIstreamParser) {
  // Unreadable values ("", "abc", "+", "99999999999999999999999", ...)
  // are the one intended difference, written into ReferenceParse.
  const std::vector<std::string> values = {
      "5", "+5", "-0", "+0", "-5", "5junk", "5 6", "\t\v5", "\f 7", "",
      "abc", "+", "-", "+-5", "x5", "05", "0x5", "3.5", "1e3", "2",
      "99999999999999999999999", "18446744073709551615",
      "18446744073709551616", "-18446744073709551615",
      "-18446744073709551616", "4294967296", "9223372036854775808"};
  const std::vector<std::string> forms = {
      "# vertices: ", "#vertices:", "  # vertices:", "\t#  vertices: ",
      "# Vertices: ", "# num vertices: ", "\v# vertices: ",
      "# edges: 3 vertices: ", "# vertices: vertices: ", "\r# vertices:"};
  for (const std::string& form : forms) {
    for (const std::string& value : values) {
      EXPECT_TRUE(SameAsReference(form + value + "\n0 1 0.5\n"));
      EXPECT_TRUE(SameAsReference("0 1 0.5\n" + form + value + "\r\n"));
      EXPECT_TRUE(SameAsReference(form + value));
    }
  }
  // A later header overrides an earlier one.
  EXPECT_TRUE(SameAsReference("# vertices: 9\n0 1 0.5\n# vertices: 4\n"));
  EXPECT_TRUE(SameAsReference("# vertices: 9\n# vertices: 1\n0 1 0.5\n"));
}

TEST(ParserDifferentialTest, RandomProbabilitiesMatchBitForBit) {
  std::mt19937_64 rng(20261021);
  std::uniform_int_distribution<int> precision(1, 20);
  std::uniform_int_distribution<int> exponent(1, 1022);
  std::uniform_int_distribution<int> family(0, 3);
  for (int input = 0; input < 20; ++input) {
    std::string text;
    for (VertexId i = 0; i < 1000; ++i) {
      double p = 0.0;
      switch (family(rng)) {
        case 0:  // Uniform in [0, 1).
          p = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
          break;
        case 1:  // Any finite exponent below 1, subnormals included.
          p = std::bit_cast<double>(
              (std::uint64_t{static_cast<unsigned>(exponent(rng) - 1)}
               << 52) |
              (rng() & ((std::uint64_t{1} << 52) - 1)));
          break;
        case 2:  // Near 1.
          p = 1.0 - std::ldexp(static_cast<double>(rng() % 1024), -52);
          break;
        default:  // Near 0.
          p = std::ldexp(static_cast<double>(rng() % 1024 + 1), -1074);
          break;
      }
      char literal[64];
      const int digits = input % 2 == 0 ? 17 : precision(rng);
      std::snprintf(literal, sizeof(literal), "%.*g", digits, p);
      text += std::to_string(i) + " " + std::to_string(i + 1) + " " +
              literal + "\n";
    }
    EXPECT_TRUE(SameAsReference(text)) << "input " << input;
  }
}

TEST(ParserDifferentialTest, RandomTokenLinesMatchTheIstreamParser) {
  std::vector<std::string> tokens = ProbabilityLiterals();
  for (const std::string& id : IdLiterals()) {
    if (id != "4294967295") tokens.push_back(id);  // Would size 2^32 - 1.
  }
  for (const char* extra : {"#", "vertices:", "# vertices:", "x", "e", ".",
                            "0.5", "1", "2", "3"}) {
    tokens.push_back(extra);
  }
  const std::vector<std::string> separators = {" ", "\t", "\v", "\f",
                                               "\r", "  ", " \t"};
  const std::vector<std::string> endings = {"\n", "\r\n", "\n\n"};
  std::mt19937_64 rng(7);
  for (int input = 0; input < 3000; ++input) {
    std::string text;
    const int lines = 1 + static_cast<int>(rng() % 4);
    for (int l = 0; l < lines; ++l) {
      const int count = 1 + static_cast<int>(rng() % 5);
      for (int t = 0; t < count; ++t) {
        if (t > 0 || rng() % 4 == 0) {
          text += separators[rng() % separators.size()];
        }
        text += tokens[rng() % tokens.size()];
      }
      if (l + 1 < lines || rng() % 2 == 0) {
        text += endings[rng() % endings.size()];
      }
    }
    EXPECT_TRUE(SameAsReference(text));
  }
}

}  // namespace
}  // namespace ugs
