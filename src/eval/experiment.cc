#include "eval/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/check.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace ugs {

BenchConfig ParseBenchArgs(int argc, char** argv,
                           const std::string& description) {
  // Strict flag parsing (std::atof-style silent zeroes rejected): a bad
  // value aborts with the offending text instead of running at a default.
  BenchConfig config;
  if (const char* env = std::getenv("UGS_BENCH_SCALE")) {
    config.scale = ParseDoubleOrExit("UGS_BENCH_SCALE", env);
  }
  if (const char* env = std::getenv("UGS_BENCH_QUICK")) {
    config.quick = ParseInt64OrExit("UGS_BENCH_QUICK", env) != 0;
  }
  if (const char* env = std::getenv("UGS_THREADS")) {
    config.threads = static_cast<int>(ParseInt64OrExit("UGS_THREADS", env));
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      config.scale = ParseDoubleOrExit("--scale", arg + 8);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = ParseUint64OrExit("--seed", arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.threads =
          static_cast<int>(ParseInt64OrExit("--threads", arg + 10));
    } else if (std::strcmp(arg, "--quick") == 0) {
      config.quick = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("%s\nflags: --scale=<f> --seed=<u> --quick --threads=<n>\n",
                  description.c_str());
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      std::exit(2);
    }
  }
  UGS_CHECK(config.scale > 0.0);
  UGS_CHECK(config.threads >= 0);
  std::printf("== %s ==\n", description.c_str());
  std::printf("scale=%.2f seed=%llu threads=%d%s\n", config.scale,
              static_cast<unsigned long long>(config.seed),
              config.threads > 0 ? config.threads
                                 : ThreadPool::HardwareThreads(),
              config.quick ? " (quick)" : "");
  return config;
}

std::vector<double> PaperAlphas() { return {0.08, 0.16, 0.32, 0.64}; }

std::vector<int> PaperDensities() { return {15, 30, 50, 90}; }

SparsifyOutput MustSparsify(const Sparsifier& method,
                            const UncertainGraph& graph, double alpha,
                            Rng* rng) {
  Result<SparsifyOutput> result = method.Sparsify(graph, alpha, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "sparsifier %s failed at alpha=%.3f: %s\n",
                 method.name().c_str(), alpha,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result.value());
}

QueryResult MustQuery(const GraphSession& session,
                      const QueryRequest& request) {
  Result<QueryResult> result = session.Run(request);
  if (!result.ok()) {
    std::fprintf(stderr, "query '%s' failed: %s\n", request.query.c_str(),
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result.value());
}

}  // namespace ugs
