// ugs_sparsify: sparsify an uncertain graph file with any method of the
// paper and write the sparsified graph.
//
//   ugs_sparsify --in=<path> --out=<path> --alpha=<a>
//                [--method=<name>] [--h=<h>] [--seed=<u>] [--threads=<n>]
//
// Methods: GDB, EMD (representative variants), or any registry name
// (GDBA, GDBR-t, GDBA2, GDBAn, GDBA-k<k>, EMDA, EMDR-t, LP, LP-t, NI,
// SS; see sparsify/sparsifier.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "metrics/discrepancy.h"
#include "sparsify/sparsifier.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ugs_sparsify --in=<path> --out=<path> --alpha=<a>\n"
               "                    [--method=EMD] [--h=0.05] [--seed=1]\n"
               "                    [--threads=0]  (env UGS_THREADS)\n"
               "  alpha: target edge ratio |E'| / |E|, in (0, 1)\n");
  std::exit(2);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string in, out, method_name = "EMD";
  double alpha = 0.0, h = 0.05;
  std::uint64_t seed = 1;
  std::int64_t threads = 0;
  if (const char* env = std::getenv("UGS_THREADS")) {
    threads = ugs::ParseInt64OrExit("UGS_THREADS", env);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--in=", 5) == 0) {
      in = arg + 5;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strncmp(arg, "--alpha=", 8) == 0) {
      alpha = ugs::ParseDoubleOrExit("--alpha", arg + 8);
    } else if (std::strncmp(arg, "--method=", 9) == 0) {
      method_name = arg + 9;
    } else if (std::strncmp(arg, "--h=", 4) == 0) {
      h = ugs::ParseDoubleOrExit("--h", arg + 4);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = ugs::ParseUint64OrExit("--seed", arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = ugs::ParseInt64OrExit("--threads", arg + 10);
    } else {
      Usage();
    }
  }
  if (in.empty() || out.empty()) Usage();
  if (!(alpha > 0.0 && alpha < 1.0)) {  // Also refuses NaN.
    Die("--alpha must be in (0, 1), got " + std::to_string(alpha));
  }
  if (threads < 0) Die("--threads must be >= 0");
  ugs::ThreadPool pool(static_cast<int>(threads));

  ugs::Result<ugs::UncertainGraph> graph = ugs::LoadEdgeList(in);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto method = ugs::MakeSparsifierByName(method_name, h, &pool);
  if (!method.ok()) {
    std::fprintf(stderr, "error: %s\n", method.status().ToString().c_str());
    return 1;
  }
  ugs::Rng rng(seed);
  auto result = (*method)->Sparsify(*graph, alpha, &rng);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  ugs::Status status = ugs::SaveEdgeList(result->graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", ugs::FormatStats("input",
                                       ugs::ComputeStats(*graph)).c_str());
  std::printf("%s\n",
              ugs::FormatStats("output",
                               ugs::ComputeStats(result->graph)).c_str());
  std::printf("method=%s alpha=%.3f time=%.2fs degree-MAE=%.5f "
              "relative-entropy=%.4f\n",
              (*method)->name().c_str(), alpha, result->seconds,
              ugs::DegreeDiscrepancyMae(*graph, result->graph),
              ugs::RelativeEntropy(*graph, result->graph));
  if (result->sweeps > 0) {  // GDB and EMD; LP, NI and SS do no sweeps.
    std::printf("iterations=%d sweeps=%d swaps=%zu converged=%s D1=%.6g",
                result->iterations, result->sweeps, result->swaps,
                result->converged ? "yes" : "no", result->final_objective);
    if (result->iterations > 0) {  // EMD: where its time went.
      std::printf(" e-phase=%.1fms m-phase=%.1fms scored=%zu skipped=%zu"
                  " heap-updates=%zu",
                  result->e_phase_seconds * 1e3,
                  result->m_phase_seconds * 1e3, result->candidates_scored,
                  result->candidates_skipped, result->heap_updates);
    }
    std::printf("\n");
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
