// Seeded input generator of the repository benchmark (README.md).
//
//   perf_gen --workload=<name> --seed=<n> --out=<dir>
//
// Writes every input one workload's driver reads -- graph files and the
// op script -- into <dir>, and nothing else; the same seed writes the
// same bytes. It runs as its own process before the driver, so the
// driver's set-up time and peak memory cover only the system under test.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "graph/csr_format.h"
#include "graph/graph_io.h"
#include "perf_common.h"
#include "query/pagerank.h"
#include "util/random.h"

namespace {

// Workload shapes. The driver reads them back from the files; they live
// here only. Sizes follow the Twitter-like stand-in of gen/datasets.h.
constexpr double kServeMissScale = 1.0;  // |V| = 2000, |E| ~ 49.4k.
constexpr int kServeMissOps = 6000;      // Far more than one run uses.
// Sized so one op (all four families) takes ~110 ms on one core of a
// 4-vCPU Xeon virtual machine: p90 then has well over ten samples beyond
// it in a 20 s window.
constexpr int kServeMissSamples = 16;
constexpr int kServeMissReliabilityPairs = 8;
constexpr int kServeMissShortestPathPairs = 2;
constexpr int kServeMissPageRankIterations = 20;

constexpr double kRoutedScale = 0.25;  // |V| = 500, |E| ~ 12.1k per graph.
constexpr int kRoutedGraphs = 4;
constexpr int kRoutedPoolPerGraph = 16;
constexpr int kRoutedReadsPerWrite = 80;
constexpr int kRoutedSamples = 16;
constexpr int kRoutedPairs = 4;

constexpr double kSparsifyScale = 0.4;  // |V| = 800, |E| ~ 19.7k.
constexpr double kSparsifyAlpha = 0.16;
constexpr int kSparsifyStreams = 4;  // Ops cycle through these RNG seeds.

/// One request line:
/// `<query> <samples> <seed> <pagerank iterations> <npairs> u v ...`.
std::string RequestLine(const std::string& query, int samples,
                        std::uint64_t seed, int pagerank_iterations,
                        int num_pairs, std::size_t num_vertices,
                        ugs::Rng* rng) {
  std::string line = query + " " + std::to_string(samples) + " " +
                     std::to_string(seed) + " " +
                     std::to_string(pagerank_iterations) + " " +
                     std::to_string(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    const std::uint64_t u = rng->NextIndex(num_vertices);
    std::uint64_t v = rng->NextIndex(num_vertices - 1);
    if (v >= u) ++v;  // Distinct endpoints.
    line += " " + std::to_string(u) + " " + std::to_string(v);
  }
  return line;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  if (!out.good()) perf::Die("cannot write " + path);
}

/// serve_miss: one large text graph; every op is one request of each of
/// the paper's four query families, each with a fresh seed.
void GenServeMiss(std::uint64_t seed, const std::string& out) {
  ugs::UncertainGraph graph = ugs::MakeTwitterLike(kServeMissScale, seed);
  perf::Must(ugs::SaveEdgeList(graph, out + "/twitter.txt"), "save graph");
  ugs::Rng rng(seed ^ 0x5e12e0);
  std::vector<std::string> lines;
  std::uint64_t request_seed = seed * 1000003;
  for (int op = 0; op < kServeMissOps; ++op) {
    const std::pair<const char*, int> families[] = {
        {"reliability", kServeMissReliabilityPairs},
        {"shortest-path", kServeMissShortestPathPairs},
        {"pagerank", 0},
        {"clustering", 0}};
    for (const auto& [query, num_pairs] : families) {
      lines.push_back(RequestLine(query, kServeMissSamples, ++request_seed,
                                  kServeMissPageRankIterations, num_pairs,
                                  graph.num_vertices(), &rng));
    }
  }
  WriteLines(out + "/ops.txt", lines);
}

/// routed_mixed: four small packed graphs, a read pool per graph and
/// one period of the op script. A period writes each graph once, each
/// write followed by kRoutedReadsPerWrite reads of the pool. Writes
/// reweight one fixed edge per graph, alternating between two
/// probabilities, so the graph's content alternates between two states
/// while its version keeps rising.
void GenRoutedMixed(std::uint64_t seed, const std::string& out) {
  ugs::Rng rng(seed ^ 0x20e7ed);
  std::vector<std::string> pool;
  std::vector<std::string> writes;
  for (int g = 0; g < kRoutedGraphs; ++g) {
    ugs::UncertainGraph graph =
        ugs::MakeTwitterLike(kRoutedScale, seed * 16 + g);
    const std::string id = "g" + std::to_string(g);
    perf::Must(ugs::WriteCsrGraph(graph, out + "/" + id + ".ugsc"), "pack graph");
    for (int r = 0; r < kRoutedPoolPerGraph; ++r) {
      // One query family only: a shortest-path miss costs three times a
      // reliability miss, and two miss modes would put p90 on the edge
      // between them.
      pool.push_back(id + " " +
                     RequestLine("reliability", kRoutedSamples, rng.Next64() >> 12,
                                 ugs::PageRankOptions{}.max_iterations,
                                 kRoutedPairs, graph.num_vertices(), &rng));
    }
    const ugs::UncertainEdge& edge =
        graph.edges()[rng.NextIndex(graph.num_edges())];
    const double altered = edge.p > 0.5 ? edge.p / 2 : edge.p * 1.5 + 0.01;
    char line[160];
    std::snprintf(line, sizeof(line), "W %d %u %u %.17g %.17g", g, edge.u,
                  edge.v, altered, edge.p);
    writes.push_back(line);
  }
  WriteLines(out + "/pool.txt", pool);

  // Each request's reads per period are fixed by its popularity rank
  // (Zipf(1), at least one), and only their order depends on the seed.
  // Every request is then read between any two writes of its graph, so
  // each period has exactly one miss per pooled request (64 of 320
  // reads) on every seed.
  double harmonic = 0.0;
  for (int r = 1; r <= kRoutedPoolPerGraph; ++r) harmonic += 1.0 / r;
  std::vector<int> reads;
  for (int g = 0; g < kRoutedGraphs; ++g) {
    // A period has kRoutedGraphs writes, so kRoutedReadsPerWrite reads per
    // graph as well.
    int remaining = kRoutedReadsPerWrite;
    for (int r = kRoutedPoolPerGraph; r >= 1; --r) {
      const int count =
          r == 1 ? remaining
                 : std::max(1, static_cast<int>(std::lround(
                                   kRoutedReadsPerWrite / (harmonic * r))));
      remaining -= count;
      reads.insert(reads.end(), static_cast<std::size_t>(count),
                   g * kRoutedPoolPerGraph + r - 1);
    }
  }
  for (std::size_t i = reads.size() - 1; i > 0; --i) {
    std::swap(reads[i], reads[rng.NextIndex(i + 1)]);
  }
  std::vector<std::string> script;
  for (int g = 0; g < kRoutedGraphs; ++g) {
    script.push_back(writes[static_cast<std::size_t>(g)]);
    for (int i = 0; i < kRoutedReadsPerWrite; ++i) {
      script.push_back(
          "R " + std::to_string(reads[static_cast<std::size_t>(
                     g * kRoutedReadsPerWrite + i)]));
    }
  }
  WriteLines(out + "/script.txt", script);
}

/// sparsify_eval: one text graph and the sparsifier parameters. The graph
/// is the Twitter-like stand-in at its dataset seed, the same for every
/// --seed; the seed picks the sparsifiers' RNG streams. MAE differs far
/// more between graphs than between streams, so this keeps quality_mae
/// comparable across seeds.
void GenSparsifyEval(std::uint64_t seed, const std::string& out) {
  ugs::UncertainGraph graph = ugs::MakeTwitterLike(kSparsifyScale);
  perf::Must(ugs::SaveEdgeList(graph, out + "/twitter.txt"), "save graph");
  char alpha[64];
  std::snprintf(alpha, sizeof(alpha), "alpha %.17g", kSparsifyAlpha);
  ugs::Rng rng(seed ^ 0x5a125e);
  std::string streams = "rng_seeds";
  for (int i = 0; i < kSparsifyStreams; ++i) {
    streams += " " + std::to_string(rng.Next64() >> 12);
  }
  WriteLines(out + "/params.txt", {alpha, streams, "methods GDB EMD LP-t"});
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Flags flags(argc, argv, {"workload", "seed", "out"});
  const std::string workload = flags.Get("workload");
  const std::uint64_t seed = std::strtoull(flags.Get("seed").c_str(), nullptr, 10);
  const std::string out = flags.Get("out");
  if (workload == "serve_miss") {
    GenServeMiss(seed, out);
  } else if (workload == "routed_mixed") {
    GenRoutedMixed(seed, out);
  } else if (workload == "sparsify_eval") {
    GenSparsifyEval(seed, out);
  } else {
    perf::Die("unknown workload '" + workload + "'");
  }
  return 0;
}
