// ugs_generate: emit a synthetic uncertain graph in the library's
// edge-list format.
//
//   ugs_generate --dataset=flickr|twitter|flickr-reduced|density<P>|er
//                [--scale=<f>] [--seed=<u>] [--vertices=<n>]
//                [--edges=<m>] --out=<path>
//
// 'er' generates an Erdos-Renyi graph with --vertices/--edges and
// uniform probabilities; the named datasets are the paper stand-ins of
// gen/datasets.h.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "util/parse.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ugs_generate --dataset=<name> --out=<path>\n"
      "  --dataset   flickr | twitter | flickr-reduced | density<P> | er\n"
      "  --scale     size multiplier for named datasets (default 1.0)\n"
      "  --seed      RNG seed (default 1)\n"
      "  --vertices  vertex count for 'er' (default 1000)\n"
      "  --edges     edge count for 'er' (default 8000)\n");
  std::exit(2);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset, out;
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::uint64_t vertices = 1000, edges = 8000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--dataset=", 10) == 0) {
      dataset = arg + 10;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      scale = ugs::ParseDoubleOrExit("--scale", arg + 8);
      if (scale <= 0.0) Die("--scale must be positive");
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = ugs::ParseUint64OrExit("--seed", arg + 7);
    } else if (std::strncmp(arg, "--vertices=", 11) == 0) {
      vertices = ugs::ParseUint64OrExit("--vertices", arg + 11);
      if (vertices == 0) Die("--vertices must be positive");
    } else if (std::strncmp(arg, "--edges=", 8) == 0) {
      edges = ugs::ParseUint64OrExit("--edges", arg + 8);
    } else {
      Usage();
    }
  }
  if (dataset.empty() || out.empty()) Usage();

  ugs::UncertainGraph graph;
  if (dataset == "flickr") {
    graph = ugs::MakeFlickrLike(scale, seed);
  } else if (dataset == "twitter") {
    graph = ugs::MakeTwitterLike(scale, seed);
  } else if (dataset == "flickr-reduced") {
    graph = ugs::MakeFlickrReduced(scale, seed);
  } else if (dataset.rfind("density", 0) == 0) {
    std::int64_t percent = ugs::ParseInt64OrExit("--dataset=density<P>",
                                                  dataset.substr(7));
    if (percent <= 0 || percent > 100) {
      Die("density percentage must be in (0, 100]");
    }
    std::size_t n = static_cast<std::size_t>(1000 * scale);
    graph = ugs::MakeDensitySweepGraph(static_cast<int>(percent),
                                       n < 64 ? 64 : n, seed);
  } else if (dataset == "er") {
    ugs::Rng rng(seed);
    graph = ugs::GenerateErdosRenyi(
        vertices, edges, ugs::ProbabilityDistribution::Uniform(0.05, 0.6),
        &rng);
  } else {
    Usage();
  }

  ugs::Status status = ugs::SaveEdgeList(graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n",
              ugs::FormatStats(dataset, ugs::ComputeStats(graph)).c_str());
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
