// ugs_query: execute any registered query on an uncertain graph file
// through the unified Query API (query/query.h + query/graph_session.h).
//
//   ugs_query --in=<path> --query=<name> [--samples=500] [--pairs=10]
//             [--sources=5] [--k=10] [--top=10] [--seed=1]
//             [--estimator=auto] [--pivots=8] [--threads=0] [--json]
//
// The query and estimator names come from the registry; run with no
// arguments for the full list. Pair queries draw --pairs random s/t
// pairs; knn draws --sources random source vertices. --json replaces the
// human-readable report with the wire protocol's one-line JSON result
// (service/wire.h) -- the same schema ugs_client emits, with the
// wall-time field dropped so repeated runs diff clean.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/graph_stats.h"
#include "query/graph_session.h"
#include "query/query.h"
#include "service/wire.h"
#include "tools/tool_common.h"
#include "util/parse.h"

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += " | ";
    joined += name;
  }
  return joined;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: ugs_query --in=<path> --query=<name>\n"
      "  --samples=<n>    Monte-Carlo world budget          (default 500)\n"
      "  --pairs=<k>      random s/t pairs for pair queries (default 10)\n"
      "  --sources=<k>    random sources for knn            (default 5)\n"
      "  --k=<n>          neighbors per source for knn      (default 10)\n"
      "  --top=<k>        rows printed for vertex queries   (default 10)\n"
      "  --seed=<u>       RNG seed                          (default 1)\n"
      "  --estimator=<e>  auto | sampled | skip | stratified | exact\n"
      "  --pivots=<r>     stratified pivot edges            (default 8)\n"
      "  --threads=<n>    sampling pool size (env UGS_THREADS; 0 = hw)\n"
      "  --json           emit the wire-schema JSON result line only\n"
      "  queries: %s\n"
      "  aliases: cc = clustering, sp = shortest-path,\n"
      "           mpp = most-probable-path\n",
      JoinNames(ugs::KnownQueryNames()).c_str());
  std::exit(2);
}

using ugs::tools::Die;
using ugs::tools::PositiveFlag;

/// Top-k unit ids by descending mean.
std::vector<ugs::VertexId> TopUnits(const std::vector<double>& means,
                                    std::size_t k) {
  std::vector<ugs::VertexId> order(means.size());
  for (std::size_t v = 0; v < means.size(); ++v) {
    order[v] = static_cast<ugs::VertexId>(v);
  }
  std::sort(order.begin(), order.end(),
            [&](ugs::VertexId a, ugs::VertexId b) {
              return means[a] > means[b];
            });
  order.resize(std::min(k, order.size()));
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in, query_name, estimator_name = "auto";
  std::int64_t samples = 500, pairs = 10, sources = 5, k = 10, top = 10;
  std::int64_t pivots = 8, threads = 0;
  std::uint64_t seed = 1;
  bool json = false;
  if (const char* env = std::getenv("UGS_THREADS")) {
    threads = ugs::ParseInt64OrExit("UGS_THREADS", env);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--in=", 5) == 0) {
      in = arg + 5;
    } else if (std::strncmp(arg, "--query=", 8) == 0) {
      query_name = arg + 8;
    } else if (std::strncmp(arg, "--samples=", 10) == 0) {
      samples = PositiveFlag("--samples", arg + 10);
    } else if (std::strncmp(arg, "--pairs=", 8) == 0) {
      pairs = PositiveFlag("--pairs", arg + 8);
    } else if (std::strncmp(arg, "--sources=", 10) == 0) {
      sources = PositiveFlag("--sources", arg + 10);
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      k = PositiveFlag("--k", arg + 4);
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      top = PositiveFlag("--top", arg + 6);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = ugs::ParseUint64OrExit("--seed", arg + 7);
    } else if (std::strncmp(arg, "--estimator=", 12) == 0) {
      estimator_name = arg + 12;
    } else if (std::strncmp(arg, "--pivots=", 9) == 0) {
      pivots = PositiveFlag("--pivots", arg + 9);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = ugs::ParseInt64OrExit("--threads", arg + 10);
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else {
      Usage();
    }
  }
  if (in.empty() || query_name.empty()) Usage();
  if (threads < 0) Die("threads must be >= 0");

  ugs::Result<ugs::Estimator> estimator = ugs::ParseEstimator(estimator_name);
  if (!estimator.ok()) Die(estimator.status().message());

  ugs::GraphSessionOptions options;
  options.engine.num_threads = static_cast<int>(threads);
  auto session = ugs::GraphSession::Open(in, options);
  if (!session.ok()) Die(session.status().ToString());
  const ugs::UncertainGraph& graph = (*session)->graph();
  if (!json) {
    std::printf("%s\n",
                ugs::FormatStats("graph", ugs::ComputeStats(graph)).c_str());
  }

  ugs::QueryRequest request;
  request.query = query_name;
  request.num_samples = static_cast<int>(samples);
  request.seed = seed;
  request.estimator = *estimator;
  request.k = static_cast<std::size_t>(k);
  request.num_pivot_edges = static_cast<int>(pivots);
  ugs::tools::DrawRequestUnits(graph.num_vertices(), pairs, sources,
                               &request);

  ugs::Result<ugs::QueryResult> result = (*session)->Run(request);
  if (!result.ok()) Die(result.status().ToString());
  const ugs::QueryResult& r = *result;
  if (json) {
    std::printf("%s\n",
                ugs::ResultToJson(r, /*include_timing=*/false).c_str());
    return 0;
  }
  std::printf("query=%s estimator=%s samples=%lld time=%.3fs\n",
              r.query.c_str(), ugs::EstimatorName(r.estimator),
              static_cast<long long>(samples), r.seconds);

  if (r.query == "connectivity") {
    std::printf("Pr[connected] = %.4f\n", r.scalar);
  } else if (r.query == "reliability") {
    std::printf("reliability of %zu random pairs:\n", request.pairs.size());
    for (std::size_t i = 0; i < request.pairs.size(); ++i) {
      std::printf("  v%-6u -> v%-6u : %.4f\n", request.pairs[i].s,
                  request.pairs[i].t, r.means[i]);
    }
  } else if (r.query == "shortest-path") {
    std::printf("E[d(s, t) | connected] of %zu random pairs:\n",
                request.pairs.size());
    for (std::size_t i = 0; i < request.pairs.size(); ++i) {
      std::printf("  v%-6u -> v%-6u : %.3f\n", request.pairs[i].s,
                  request.pairs[i].t, r.means[i]);
    }
  } else if (r.query == "pagerank") {
    std::vector<ugs::VertexId> order =
        TopUnits(r.means, static_cast<std::size_t>(top));
    std::printf("top-%zu vertices by mean PageRank:\n", order.size());
    for (ugs::VertexId v : order) {
      std::printf("  v%-8u %.6f\n", v, r.means[v]);
    }
  } else if (r.query == "clustering") {
    double mean = 0.0;
    for (double m : r.means) mean += m;
    if (!r.means.empty()) mean /= static_cast<double>(r.means.size());
    std::printf("mean local clustering coefficient = %.5f\n", mean);
  } else if (r.query == "knn") {
    for (std::size_t i = 0; i < request.sources.size(); ++i) {
      std::printf("top-%zu most-probable neighbors of v%u:\n", request.k,
                  request.sources[i]);
      for (const ugs::KnnResult& neighbor : r.knn[i]) {
        std::printf("  v%-8u p=%.4f\n", neighbor.vertex,
                    neighbor.path_probability);
      }
    }
  } else if (r.query == "most-probable-path") {
    for (std::size_t i = 0; i < request.pairs.size(); ++i) {
      const ugs::MostProbablePath& path = r.paths[i];
      std::printf("  v%-6u -> v%-6u : p=%.4f hops=%zu\n", request.pairs[i].s,
                  request.pairs[i].t, path.probability,
                  path.vertices.empty() ? 0 : path.vertices.size() - 1);
    }
  }
  return 0;
}
