#include "query/sample_engine.h"

#include <algorithm>
#include <utility>

#include "query/block_sampler.h"
#include "util/check.h"

namespace ugs {

SampleEngine::SampleEngine(SampleEngineOptions options)
    : SampleEngine(options,
                   std::make_shared<ThreadPool>(options.num_threads)) {}

SampleEngine::SampleEngine(SampleEngineOptions options,
                           std::shared_ptr<ThreadPool> pool)
    : options_(options), pool_(std::move(pool)) {
  UGS_CHECK(options_.batch_size > 0);
  UGS_CHECK(pool_ != nullptr);
}

Rng SampleEngine::SampleRng(std::uint64_t base, std::uint64_t index) {
  return SplitRng(base, index);
}

McSamples SampleEngine::Run(const UncertainGraph& graph,
                            std::size_t num_units, int num_samples,
                            Rng* rng, bool track_valid,
                            const WorldEvalFactory& factory) const {
  return RunWorlds(graph, num_units, num_samples, rng, track_valid, factory,
                   /*build_view=*/true);
}

McSamples SampleEngine::Run(const UncertainGraph& graph,
                            std::size_t num_units, int num_samples,
                            Rng* rng, bool track_valid,
                            const BitmapEvalFactory& factory) const {
  const WorldEvalFactory on_bitmap = [&factory]() -> WorldEval {
    return [eval = factory()](PossibleWorld& world, double* row, char* valid) {
      eval(world.mutable_present(), row, valid);
    };
  };
  return RunWorlds(graph, num_units, num_samples, rng, track_valid, on_bitmap,
                   /*build_view=*/false);
}

McSamples SampleEngine::RunWorlds(const UncertainGraph& graph,
                                  std::size_t num_units, int num_samples,
                                  Rng* rng, bool track_valid,
                                  const WorldEvalFactory& factory,
                                  bool build_view) const {
  UGS_CHECK(num_samples > 0);
  if (options_.worlds_sampled != nullptr) {
    options_.worlds_sampled->Add(static_cast<std::uint64_t>(num_samples));
  }
  McSamples out;
  out.num_units = num_units;
  out.num_samples = static_cast<std::size_t>(num_samples);
  out.values.assign(out.num_units * out.num_samples, 0.0);
  if (track_valid) out.valid.assign(out.num_units * out.num_samples, 0);

  const std::uint64_t base = rng->Next64();
  const std::size_t batch = static_cast<std::size_t>(options_.batch_size);
  const std::size_t total = out.num_samples;
  double* values = out.values.data();
  char* valid = track_valid ? out.valid.data() : nullptr;
  const auto evaluate = [&](const WorldEval& eval, PossibleWorld& world,
                            std::size_t s) {
    eval(world, values + s * num_units,
         valid != nullptr ? valid + s * num_units : nullptr);
  };

  if (options_.use_skip_sampler) {
    // Sample s is lane s % kLanes of block s / kLanes. A task runs whole
    // blocks and every block decides all its lanes, so world s does not
    // depend on num_samples or batch_size.
    constexpr std::size_t kLanes = BlockWorldSampler::kLanes;
    const std::size_t num_blocks = (total + kLanes - 1) / kLanes;
    const std::size_t blocks_per_task = (batch + kLanes - 1) / kLanes;
    const std::size_t num_tasks =
        (num_blocks + blocks_per_task - 1) / blocks_per_task;
    pool().ParallelFor(num_tasks, [&](std::size_t t) {
      WorldEval eval = factory();
      PossibleWorld world(graph);
      BlockWorldSampler sampler;
      const std::size_t first = t * blocks_per_task;
      const std::size_t last = std::min(first + blocks_per_task, num_blocks);
      for (std::size_t block = first; block < last; ++block) {
        Rng block_rng = SampleRng(base, block);
        sampler.SampleBlock(graph, &block_rng);
        const std::size_t begin = block * kLanes;
        const std::size_t end = std::min(begin + kLanes, total);
        for (std::size_t s = begin; s < end; ++s) {
          world.Adopt(sampler.Lane(s - begin));
          evaluate(eval, world, s);
        }
      }
    });
    return out;
  }

  const std::size_t num_batches = (total + batch - 1) / batch;
  pool().ParallelFor(num_batches, [&](std::size_t b) {
    WorldEval eval = factory();
    PossibleWorld world(graph);
    const std::size_t begin = b * batch;
    const std::size_t end = std::min(begin + batch, total);
    for (std::size_t s = begin; s < end; ++s) {
      Rng sample_rng = SampleRng(base, s);
      SampleWorld(graph, &sample_rng, &world.mutable_present());
      if (build_view) world.Rebuild();
      evaluate(eval, world, s);
    }
  });
  return out;
}

double SampleEngine::RunMean(const UncertainGraph& graph, int num_samples,
                             Rng* rng,
                             const WorldStatFactory& factory) const {
  McSamples samples =
      Run(graph, 1, num_samples, rng, /*track_valid=*/false,
          [&factory]() -> WorldEval {
            WorldStat stat = factory();
            return [stat = std::move(stat)](PossibleWorld& world,
                                            double* row, char*) {
              row[0] = stat(world);
            };
          });
  // Fixed summation order keeps the mean bit-identical across thread
  // counts.
  double sum = 0.0;
  for (double v : samples.values) sum += v;
  return sum / static_cast<double>(samples.num_samples);
}

}  // namespace ugs
