#ifndef UGS_QUERY_SAMPLE_ENGINE_H_
#define UGS_QUERY_SAMPLE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/world_sampler.h"
#include "telemetry/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ugs {

/// Configuration for a SampleEngine.
struct SampleEngineOptions {
  /// Width of the pool the engine builds (<= 0 = hardware concurrency,
  /// the ThreadPool rule). Unused when the engine is handed a pool.
  int num_threads = 0;
  /// Samples dispatched per pool task. Batching amortizes the per-task
  /// scratch construction and the atomic work-stealing claim; it never
  /// affects results.
  int batch_size = 32;
  /// Draw worlds with the lane-parallel BlockWorldSampler
  /// (query/block_sampler.h: 16 worlds per pass over the edges, each
  /// adopted as a sorted edge list) instead of the plain per-edge
  /// sampler. Changes the random stream but not the world distribution.
  /// The name predates the block sampler, which replaced a
  /// geometric-skip sampler behind it.
  bool use_skip_sampler = false;
  /// Borrowed telemetry counter bumped by num_samples once per Run /
  /// RunMean (worlds drawn; the samples/sec signal). Null = untracked.
  /// The counter must outlive the engine.
  telemetry::Counter* worlds_sampled = nullptr;
};

/// Shared parallel Monte-Carlo possible-world engine. The serving entry
/// point above it is GraphSession (query/graph_session.h), which owns one
/// plain and one block-sampler engine per loaded graph. Owns the sample
/// loop every sampling-based evaluator used to hand-roll: allocate the
/// McSamples matrix, derive one deterministic RNG per sample by
/// seed-splitting, dispatch batches of worlds to the pool, and let each
/// evaluation write into its sample's disjoint row.
///
/// Determinism guarantee: `base` is a single Next64() draw from the
/// caller's Rng. The plain sampler generates sample s from
/// SampleRng(base, s); the block sampler generates it as lane s % 16 of
/// block s / 16, drawn from SampleRng(base, s / 16), and always decides
/// all 16 lanes. World generation and evaluation therefore depend only on
/// (base, s), never on scheduling or on how many samples are asked for --
/// results are bit-identical for any thread count and any batch size,
/// and reproducible from the caller's seed.
///
/// Run/RunMean are const and safe to call concurrently: each call is its
/// own task group on the pool's executor, so overlapping requests
/// interleave their sample batches without affecting any result.
///
/// An engine always dispatches to exactly one pool, which it holds by
/// shared_ptr: either one it builds from options.num_threads, or one
/// handed in so twin engines (a session's plain and block-sampler pair)
/// share a single executor.
class SampleEngine {
 public:
  explicit SampleEngine(SampleEngineOptions options = {});
  SampleEngine(SampleEngineOptions options, std::shared_ptr<ThreadPool> pool);

  /// Evaluates one sampled world: writes the query's per-unit results
  /// into row[0..num_units) and, when the query tracks conditioning,
  /// validity flags into valid[0..num_units) (null when Run was told not
  /// to track validity). `world` is task-local scratch, rebuilt after
  /// every sample; an evaluator may rewrite its bitmap (e.g. stratified
  /// pivot conditioning) and must then call world.Rebuild() before
  /// reading the rest of the view.
  using WorldEval =
      std::function<void(PossibleWorld& world, double* row, char* valid)>;

  /// Builds a WorldEval plus whatever scratch it needs (union-find,
  /// distance arrays, ...). Called once per dispatched batch (with the
  /// block sampler: per batch_size worlds rounded up to whole blocks), so
  /// scratch is never shared across threads and its cost is amortized
  /// over the batch.
  using WorldEvalFactory = std::function<WorldEval()>;

  /// The core sample loop: num_samples worlds of `graph`, evaluated into
  /// an num_samples x num_units matrix. Draws exactly one value from
  /// `rng` (the seed-split base). `track_valid` allocates and zeroes
  /// McSamples::valid; evaluators then mark valid entries.
  McSamples Run(const UncertainGraph& graph, std::size_t num_units,
                int num_samples, Rng* rng, bool track_valid,
                const WorldEvalFactory& factory) const;

  /// The same sample loop, handing the evaluator the sampled bitmap.
  /// The plain sampler builds no edge list or adjacency here; the block
  /// sampler adopts its edge lists as in the view loop (that is how it
  /// writes the bitmap). For callers that time or inspect the sampler
  /// alone; queries use the PossibleWorld overload.
  using BitmapEval = std::function<void(std::vector<char>& present,
                                        double* row, char* valid)>;
  using BitmapEvalFactory = std::function<BitmapEval()>;
  McSamples Run(const UncertainGraph& graph, std::size_t num_units,
                int num_samples, Rng* rng, bool track_valid,
                const BitmapEvalFactory& factory) const;

  /// Scalar world statistic evaluated per world (same scratch rules as
  /// WorldEval).
  using WorldStat = std::function<double(PossibleWorld& world)>;
  using WorldStatFactory = std::function<WorldStat()>;

  /// Mean of a scalar statistic over num_samples worlds (summed in sample
  /// order, so the value is thread-count independent).
  double RunMean(const UncertainGraph& graph, int num_samples, Rng* rng,
                 const WorldStatFactory& factory) const;

  /// The pool this engine dispatches to.
  ThreadPool& pool() const { return *pool_; }
  /// The same pool, for building a twin engine on it.
  const std::shared_ptr<ThreadPool>& shared_pool() const { return pool_; }

  int num_threads() const { return pool_->num_threads(); }
  const SampleEngineOptions& options() const { return options_; }

  /// The deterministic RNG for sample `index` under seed-split base
  /// `base`. Exposed so tests and debuggers can replay a single sample.
  static Rng SampleRng(std::uint64_t base, std::uint64_t index);

 private:
  /// Both Run overloads: samples into a per-task PossibleWorld. The
  /// block sampler always adopts its edge lists; the plain sampler
  /// rebuilds the view only when `build_view` is set.
  McSamples RunWorlds(const UncertainGraph& graph, std::size_t num_units,
                      int num_samples, Rng* rng, bool track_valid,
                      const WorldEvalFactory& factory, bool build_view) const;

  SampleEngineOptions options_;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace ugs

#endif  // UGS_QUERY_SAMPLE_ENGINE_H_
