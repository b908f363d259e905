#include "query/sample_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "query/skip_sampler.h"
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
  const std::size_t num_batches = (total + batch - 1) / batch;

  std::optional<SkipWorldSampler> skip_storage;
  if (options_.use_skip_sampler) skip_storage.emplace(graph);
  const SkipWorldSampler* skip =
      skip_storage.has_value() ? &*skip_storage : nullptr;

  double* values = out.values.data();
  char* valid = track_valid ? out.valid.data() : nullptr;
  pool().ParallelFor(num_batches, [&](std::size_t b) {
    WorldEval eval = factory();
    PossibleWorld world(graph);
    std::vector<char>& present = world.mutable_present();
    const std::size_t begin = b * batch;
    const std::size_t end = std::min(begin + batch, total);
    for (std::size_t s = begin; s < end; ++s) {
      Rng sample_rng = SampleRng(base, s);
      if (skip != nullptr) {
        skip->Sample(&sample_rng, &present);
      } else {
        SampleWorld(graph, &sample_rng, &present);
      }
      if (build_view) world.Rebuild();
      eval(world, values + s * num_units,
           valid != nullptr ? valid + s * num_units : nullptr);
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
