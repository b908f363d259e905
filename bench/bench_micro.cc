// Micro-benchmarks (google-benchmark) for the hot operations behind the
// paper's experiments: possible-world sampling, GDB sweeps, EMD E-phase,
// backbone construction, heap operations, the LP max-flow, the query
// kernels, and edge-update batches. Not part of the paper's evaluation;
// used to track the library's own performance.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "query/clustering.h"
#include "query/graph_session.h"
#include "query/pagerank.h"
#include "query/shortest_path.h"
#include "query/sample_engine.h"
#include "query/world_sampler.h"
#include "sparsify/backbone.h"
#include "sparsify/emd.h"
#include "sparsify/gdb.h"
#include "sparsify/lp_assign.h"
#include "sparsify/sparsifier.h"
#include "util/indexed_heap.h"

namespace {

const ugs::UncertainGraph& BenchGraph(std::size_t n, double avg_degree) {
  static std::map<std::pair<std::size_t, int>, ugs::UncertainGraph> cache;
  auto key = std::make_pair(n, static_cast<int>(avg_degree));
  auto it = cache.find(key);
  if (it == cache.end()) {
    ugs::Rng rng(1234);
    ugs::ChungLuOptions options;
    options.num_vertices = n;
    options.avg_degree = avg_degree;
    it = cache.emplace(key, ugs::GenerateChungLu(
                                options,
                                ugs::ProbabilityDistribution::Uniform(
                                    0.05, 0.6),
                                &rng))
             .first;
  }
  return it->second;
}

void BM_SampleWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(1);
  std::vector<char> present;
  for (auto _ : state) {
    ugs::SampleWorld(g, &rng, &present);
    benchmark::DoNotOptimize(present.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SampleWorld)->Arg(1000)->Arg(4000);

/// The serve_miss workload's graph (Twitter-like, |E| = 49.7k, mean
/// p ~ 0.156).
const ugs::UncertainGraph& ServeMissGraph() {
  static const ugs::UncertainGraph* graph =
      new ugs::UncertainGraph(ugs::MakeTwitterLike(1.0));
  return *graph;
}

/// ServeMissGraph's edges with p redrawn uniform on [0, 1): mean p ~ 0.5.
const ugs::UncertainGraph& HalfProbabilityGraph() {
  static const ugs::UncertainGraph* graph = [] {
    const ugs::UncertainGraph& g = ServeMissGraph();
    std::vector<ugs::UncertainEdge> edges(g.edges().begin(), g.edges().end());
    ugs::Rng rng(5);
    for (ugs::UncertainEdge& edge : edges) edge.p = rng.NextDouble();
    return new ugs::UncertainGraph(
        ugs::UncertainGraph::FromEdges(g.num_vertices(), std::move(edges)));
  }();
  return *graph;
}

/// World sampling as one request sees it: SampleEngine::Run of
/// `samples` worlds on one thread with a no-op evaluator, so each world
/// costs its draw plus its view (plain: SampleWorld + Rebuild; block:
/// the 16-lane pass + Adopt, a whole block even for 1 sample). Args:
/// graph (0 = ServeMissGraph, 1 = HalfProbabilityGraph), block (0 =
/// plain, 1 = block sampler), samples per request. Items = worlds. The
/// 1-16 sample rungs place kAuto's kBlockSamplerMinSamples on both
/// graphs.
void BM_SampleRequest(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      state.range(0) == 0 ? ServeMissGraph() : HalfProbabilityGraph();
  const ugs::SampleEngine engine(ugs::SampleEngineOptions{
      .num_threads = 1, .use_skip_sampler = state.range(1) != 0});
  const int samples = static_cast<int>(state.range(2));
  ugs::Rng rng(1);
  const auto no_op = []() -> ugs::SampleEngine::WorldEval {
    return [](ugs::PossibleWorld&, double*, char*) {};
  };
  for (auto _ : state) {
    ugs::McSamples out = engine.Run(g, 1, samples, &rng, false, no_op);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_SampleRequest)
    ->ArgNames({"graph", "block", "samples"})
    ->ArgsProduct({{0}, {0, 1}, {1, 2, 4, 5, 8, 16, 1000}})
    ->ArgsProduct({{1}, {0, 1}, {4, 5, 8, 12, 16, 1000}})
    ->Unit(benchmark::kMicrosecond);

/// UncertainGraph::ApplyUpdates alone, on a fresh copy of the graph each
/// iteration (the copy is not timed). Arg 0: one reweight on
/// MakeTwitterLike(0.25), 12.1k edges, the size of a routed_mixed graph.
/// Arg k > 0: k distinct deletes, evenly spaced in edge id, on
/// ServeMissGraph (49.7k edges).
void BM_ApplyUpdates(benchmark::State& state) {
  static const ugs::UncertainGraph* routed_mixed_graph =
      new ugs::UncertainGraph(ugs::MakeTwitterLike(0.25));
  const std::size_t deletes = static_cast<std::size_t>(state.range(0));
  const ugs::UncertainGraph& g =
      deletes == 0 ? *routed_mixed_graph : ServeMissGraph();
  std::vector<ugs::EdgeUpdate> batch;
  if (deletes == 0) {
    const ugs::UncertainEdge& e = g.edge(0);
    batch.push_back({ugs::EdgeUpdateOp::kReweight, e.u, e.v, 0.5});
  }
  for (std::size_t i = 0; i < deletes; ++i) {
    const ugs::UncertainEdge& e =
        g.edge(static_cast<ugs::EdgeId>(i * g.num_edges() / deletes));
    batch.push_back({ugs::EdgeUpdateOp::kDelete, e.u, e.v, 0.0});
  }
  ugs::UncertainGraph copy;
  for (auto _ : state) {
    state.PauseTiming();
    copy = g;
    state.ResumeTiming();
    if (!copy.ApplyUpdates(batch).ok()) state.SkipWithError("rejected");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ApplyUpdates)
    ->Arg(0)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_BackboneBgi(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::BackboneOptions options;
  for (auto _ : state) {
    ugs::Rng rng(7);
    auto b = ugs::BuildBackbone(g, 0.32, options, &rng);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BackboneBgi)->Arg(1000)->Arg(4000);

void BM_GdbSweep(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(7);
  ugs::BackboneOptions options;
  auto backbone = ugs::BuildBackbone(g, 0.32, options, &rng);
  ugs::GdbOptions gdb;
  gdb.max_sweeps = 1;
  gdb.tolerance = 0.0;
  for (auto _ : state) {
    ugs::SparseState sparse_state(g, backbone.value());
    ugs::RunGdb(&sparse_state, gdb);
    benchmark::DoNotOptimize(sparse_state.TotalMass());
  }
}
BENCHMARK(BM_GdbSweep)->Arg(1000)->Arg(4000);

void BM_EmdIteration(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(7);
  ugs::BackboneOptions options;
  auto backbone = ugs::BuildBackbone(g, 0.32, options, &rng);
  ugs::EmdOptions emd;
  emd.max_iterations = 1;
  for (auto _ : state) {
    ugs::SparseState sparse_state(g, backbone.value());
    ugs::RunEmd(&sparse_state, emd);
    benchmark::DoNotOptimize(sparse_state.TotalMass());
  }
}
BENCHMARK(BM_EmdIteration)->Arg(1000)->Arg(4000);

/// The sparsify_eval benchmark's EMD input: the Twitter-like graph at
/// 0.4 scale (800 V, ~19.6k E) and EMDR-t's spanning backbone at alpha =
/// 0.16 (3130 edges).
struct SparsifyEvalInput {
  ugs::UncertainGraph graph = ugs::MakeTwitterLike(0.4);
  std::vector<ugs::EdgeId> backbone;
};
const SparsifyEvalInput& SparsifyEval() {
  static const SparsifyEvalInput* input = [] {
    auto* in = new SparsifyEvalInput;
    ugs::Rng rng(1);
    const ugs::BackboneOptions spanning{};
    in->backbone = ugs::BuildBackbone(in->graph, 0.16, spanning, &rng).value();
    return in;
  }();
  return *input;
}

/// EMDR-t's spanning backbone (Algorithm 1) on the sparsify_eval graph
/// at alpha = 0.16: the forests, the connectivity check and the
/// Monte-Carlo fill.
void BM_BuildBackbone(benchmark::State& state) {
  const SparsifyEvalInput& in = SparsifyEval();
  const ugs::BackboneOptions spanning{};
  for (auto _ : state) {
    ugs::Rng rng(1);
    auto backbone = ugs::BuildBackbone(in.graph, 0.16, spanning, &rng);
    benchmark::DoNotOptimize(backbone);
  }
}
BENCHMARK(BM_BuildBackbone)->Unit(benchmark::kMillisecond);

/// A whole EMDR-t run (E-phases and GDB M-phases) on the sparsify_eval
/// input; counters report its rounds, sweeps, swaps, E-phase candidates
/// scored and skipped by the gain bound, E-phase heap updates, and the
/// wall time of its E- and M-phases in ms per run.
void BM_EmdRun(benchmark::State& state) {
  const SparsifyEvalInput& in = SparsifyEval();
  ugs::EmdOptions emd;
  emd.discrepancy = ugs::DiscrepancyType::kRelative;
  ugs::EmdStats stats;
  double e_phase_seconds = 0.0;
  double m_phase_seconds = 0.0;
  for (auto _ : state) {
    ugs::SparseState sparse_state(in.graph, in.backbone);
    stats = ugs::RunEmd(&sparse_state, emd);
    e_phase_seconds += stats.e_phase_seconds;
    m_phase_seconds += stats.m_phase_seconds;
    benchmark::DoNotOptimize(sparse_state.TotalMass());
  }
  state.counters["iterations"] = stats.iterations;
  state.counters["sweeps"] = stats.sweeps;
  state.counters["swaps"] = static_cast<double>(stats.swaps);
  state.counters["scored"] = static_cast<double>(stats.candidates_scored);
  state.counters["skipped"] = static_cast<double>(stats.candidates_skipped);
  state.counters["heap_updates"] = static_cast<double>(stats.heap_updates);
  const double runs = static_cast<double>(state.iterations());
  state.counters["e_phase_ms"] = e_phase_seconds * 1e3 / runs;
  state.counters["m_phase_ms"] = m_phase_seconds * 1e3 / runs;
}
BENCHMARK(BM_EmdRun)->Unit(benchmark::kMillisecond);

/// A whole relative-discrepancy GDB run on the same backbone: EMD's
/// M-phase on its own.
void BM_GdbRun(benchmark::State& state) {
  const SparsifyEvalInput& in = SparsifyEval();
  ugs::GdbOptions gdb;
  gdb.discrepancy = ugs::DiscrepancyType::kRelative;
  ugs::GdbStats stats;
  for (auto _ : state) {
    ugs::SparseState sparse_state(in.graph, in.backbone);
    stats = ugs::RunGdb(&sparse_state, gdb);
    benchmark::DoNotOptimize(sparse_state.TotalMass());
  }
  state.counters["sweeps"] = stats.sweeps;
}
BENCHMARK(BM_GdbRun)->Unit(benchmark::kMillisecond);

void BM_LpAssign(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(7);
  ugs::BackboneOptions options;
  auto backbone = ugs::BuildBackbone(g, 0.32, options, &rng);
  for (auto _ : state) {
    auto p = ugs::SolveDegreeLp(g, backbone.value());
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_LpAssign)->Arg(500)->Arg(1000);

void BM_NiSparsify(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::ThreadPool pool;  // Hardware concurrency.
  for (auto _ : state) {
    ugs::Rng rng(7);
    auto r = ugs::NiSparsify(g, 0.32, {}, &rng, pool);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NiSparsify)->Arg(1000);

/// The vertex heap as EMD's E-phase drives it, on the sparsify_eval
/// graph's 800 vertices keyed by their relative |discrepancy| on EMDR-t's
/// backbone: per step, one TopExcept query for a backbone edge's
/// endpoints, then one Update of each endpoint by a relative change of
/// at most 1%.
void BM_IndexedHeapEmdStep(benchmark::State& state) {
  const SparsifyEvalInput& in = SparsifyEval();
  const ugs::SparseState sparse(in.graph, in.backbone);
  const std::size_t n = in.graph.num_vertices();
  std::vector<double> priority(n);
  ugs::IndexedMaxHeap heap(n);
  for (ugs::VertexId x = 0; x < n; ++x) {
    priority[x] =
        std::abs(sparse.Delta(x, ugs::DiscrepancyType::kRelative));
    heap.Push(x, priority[x]);
  }
  ugs::Rng rng(1);
  std::vector<double> scale(1024);
  for (double& f : scale) f = 1.0 + rng.Uniform(-0.01, 0.01);
  std::size_t step = 0;
  for (auto _ : state) {
    const ugs::UncertainEdge& ed =
        in.graph.edge(in.backbone[step % in.backbone.size()]);
    benchmark::DoNotOptimize(heap.TopExcept(ed.u, ed.v));
    priority[ed.u] *= scale[(2 * step) % scale.size()];
    priority[ed.v] *= scale[(2 * step + 1) % scale.size()];
    heap.Update(ed.u, priority[ed.u]);
    heap.Update(ed.v, priority[ed.v]);
    ++step;
  }
}
BENCHMARK(BM_IndexedHeapEmdStep);

// The per-world kernel rungs of the perf ladder run on one world of a
// graph shaped like the serve_miss benchmark input (2000 V, ~49k E,
// E[p] ~ 0.15, so a world keeps ~16% of the edges).
ugs::PossibleWorld SampledServeMissWorld() {
  ugs::PossibleWorld world(ServeMissGraph());
  ugs::Rng rng(1);
  ugs::SampleWorld(ServeMissGraph(), &rng, &world.mutable_present());
  world.Rebuild();
  return world;
}

void BM_PossibleWorldBuild(benchmark::State& state) {
  // Bitmap -> present edge list.
  ugs::PossibleWorld world = SampledServeMissWorld();
  for (auto _ : state) {
    world.Rebuild();
    benchmark::DoNotOptimize(world.edges().data());
    benchmark::ClobberMemory();
  }
  const auto edges = static_cast<std::int64_t>(ServeMissGraph().num_edges());
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_PossibleWorldBuild)->Arg(0);

void BM_PageRankWorld(benchmark::State& state) {
  const ugs::PossibleWorld world = SampledServeMissWorld();
  ugs::PageRankOptions options;
  options.max_iterations = 20;  // As the serve_miss requests.
  std::vector<double> rank(ServeMissGraph().num_vertices());
  ugs::PageRankScratch scratch;
  for (auto _ : state) {
    ugs::PageRankOnWorld(world, options, rank.data(), &scratch);
    benchmark::DoNotOptimize(rank.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PageRankWorld);

void BM_ClusteringWorld(benchmark::State& state) {
  // Includes the kernel's oriented-row build.
  const ugs::PossibleWorld world = SampledServeMissWorld();
  std::vector<double> cc(ServeMissGraph().num_vertices());
  ugs::ClusteringScratch scratch;
  for (auto _ : state) {
    ugs::LocalClusteringOnWorld(world, cc.data(), &scratch);
    benchmark::DoNotOptimize(cc.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ClusteringWorld);

/// `count` random pairs of distinct vertices of ServeMissGraph(), the
/// same for every caller.
std::vector<ugs::VertexPair> ServeMissPairs(int count) {
  const std::size_t n = ServeMissGraph().num_vertices();
  ugs::Rng rng(7);
  std::vector<ugs::VertexPair> pairs;
  for (int i = 0; i < count; ++i) {
    const auto s = static_cast<ugs::VertexId>(rng.NextIndex(n));
    auto t = static_cast<ugs::VertexId>(rng.NextIndex(n - 1));
    if (t >= s) ++t;
    pairs.push_back({s, t});
  }
  return pairs;
}

void BM_ShortestPathWorld(benchmark::State& state) {
  // serve_miss's 2 pairs on a freshly adopted world, as the block
  // sampler hands it over: the first search rewrites the bitmap.
  const ugs::PossibleWorld sampled = SampledServeMissWorld();
  const std::vector<ugs::EdgeId> edges(sampled.edges().begin(),
                                       sampled.edges().end());
  const std::vector<ugs::VertexPair> pairs = ServeMissPairs(2);
  ugs::PossibleWorld world(ServeMissGraph());
  ugs::PairSearchScratch scratch;
  for (auto _ : state) {
    world.Adopt(edges);
    for (const ugs::VertexPair& pair : pairs) {
      benchmark::DoNotOptimize(
          ugs::ShortestDistanceOnWorld(world, pair.s, pair.t, &scratch));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ShortestPathWorld);

/// One serve_miss request through a GraphSession on a 1-thread engine:
/// 16 block-sampled worlds (kSkipSampler) of ServeMissGraph(), evaluated
/// and reduced, with serve_miss's pair counts and PageRank cap. Each
/// iteration is a fresh seed. No wire, cache or server: the rung is the
/// query-layer floor of one request of `family`.
void BM_ServeMissRequest(benchmark::State& state, const char* family) {
  static const ugs::GraphSession* session = [] {
    ugs::GraphSessionOptions options;
    options.engine.num_threads = 1;
    return new ugs::GraphSession(ServeMissGraph(), options);
  }();
  const std::string query = family;
  const int num_pairs =
      query == "reliability" ? 8 : (query == "shortest-path" ? 2 : 0);
  ugs::QueryRequest request;
  request.query = query;
  request.num_samples = 16;
  request.estimator = ugs::Estimator::kSkipSampler;
  request.pagerank.max_iterations = 20;
  request.pairs = ServeMissPairs(num_pairs);
  for (auto _ : state) {
    ++request.seed;
    ugs::Result<ugs::QueryResult> result = session->Run(request);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->means.data());
  }
}
BENCHMARK_CAPTURE(BM_ServeMissRequest, reliability, "reliability")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeMissRequest, shortest-path, "shortest-path")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeMissRequest, pagerank, "pagerank")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeMissRequest, clustering, "clustering")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
