#include "metrics/discrepancy.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ugs {
namespace {

/// Per-original-edge probability difference p_G - p_G' (0 for edges absent
/// from the sparsified graph). Sparsified edges must exist in the
/// original.
std::vector<double> EdgeProbabilityDiffs(const UncertainGraph& original,
                                         const UncertainGraph& sparsified) {
  std::vector<double> diff(original.num_edges());
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    diff[e] = original.edge(e).p;
  }
  for (const UncertainEdge& e : sparsified.edges()) {
    EdgeId orig = original.FindEdge(e.u, e.v);
    UGS_CHECK(orig != kInvalidEdge);
    diff[orig] -= e.p;
  }
  return diff;
}

}  // namespace

std::vector<double> DegreeDiscrepancies(const UncertainGraph& original,
                                        const UncertainGraph& sparsified,
                                        DiscrepancyType type) {
  UGS_CHECK_EQ(original.num_vertices(), sparsified.num_vertices());
  const std::size_t n = original.num_vertices();
  std::vector<double> delta(n);
  for (VertexId u = 0; u < n; ++u) {
    double d = original.ExpectedDegree(u) - sparsified.ExpectedDegree(u);
    if (type == DiscrepancyType::kRelative) {
      double dg = original.ExpectedDegree(u);
      d = dg > 0.0 ? d / dg : 0.0;
    }
    delta[u] = d;
  }
  return delta;
}

double DegreeDiscrepancyMae(const UncertainGraph& original,
                            const UncertainGraph& sparsified,
                            DiscrepancyType type) {
  std::vector<double> delta =
      DegreeDiscrepancies(original, sparsified, type);
  if (delta.empty()) return 0.0;
  double sum = 0.0;
  for (double d : delta) sum += std::abs(d);
  return sum / static_cast<double>(delta.size());
}

double ExpectedCutSize(const UncertainGraph& graph,
                       const std::vector<VertexId>& set) {
  std::vector<char> in_set(graph.num_vertices(), 0);
  for (VertexId u : set) {
    UGS_CHECK(u < graph.num_vertices());
    in_set[u] = 1;
  }
  double cut = 0.0;
  for (VertexId u : set) {
    for (const AdjacencyEntry& a : graph.Neighbors(u)) {
      if (!in_set[a.neighbor]) cut += graph.edge(a.edge).p;
    }
  }
  return cut;
}

namespace {

/// Shared core: MAE of |delta_A(S)| over random sets of the given sizes
/// (repeated `sets_per_size` times each), using the incremental formula
/// delta_A(S) = sum_{u in S} delta_A(u) - 2 sum_{edges inside S} dp_e.
///
/// Each (set size, repetition) draws from its own seed-split RNG stream,
/// so the size ladder parallelizes across `pool` while the MAE
/// stays bit-identical at any thread count (per-cut values land in fixed
/// slots and are reduced in slot order).
double SampledCutMae(const UncertainGraph& original,
                     const std::vector<double>& delta_abs,
                     const std::vector<double>& diff,
                     const std::vector<std::size_t>& set_sizes,
                     int sets_per_size, Rng* rng, ThreadPool& pool) {
  const std::size_t n = original.num_vertices();
  const std::size_t reps =
      sets_per_size > 0 ? static_cast<std::size_t>(sets_per_size) : 0;
  const std::uint64_t base = rng->Next64();
  std::vector<double> cut_values(set_sizes.size() * reps, 0.0);
  // Flatten to (size, rep-chunk) tasks: big set sizes dominate the work,
  // so splitting their reps across tasks load-balances the pool while a
  // chunk of reps still amortizes the per-task in_set scratch. Chunking
  // never affects results -- each cut's value depends only on its
  // (k, rep) seed-split stream and lands in its own slot.
  constexpr std::size_t kRepsPerTask = 8;
  const std::size_t chunks_per_size =
      reps == 0 ? 0 : (reps + kRepsPerTask - 1) / kRepsPerTask;
  pool.ParallelFor(set_sizes.size() * chunks_per_size, [&](std::size_t task) {
    const std::size_t k = task / chunks_per_size;
    const std::size_t set_size = set_sizes[k];
    const std::size_t rep_begin = (task % chunks_per_size) * kRepsPerTask;
    const std::size_t rep_end = std::min(rep_begin + kRepsPerTask, reps);
    std::vector<char> in_set(n, 0);
    for (std::size_t rep = rep_begin; rep < rep_end; ++rep) {
      Rng cut_rng = SplitRng(base, k * reps + rep);
      std::vector<std::uint64_t> sample =
          cut_rng.SampleWithoutReplacement(n, set_size);
      for (std::uint64_t u : sample) in_set[u] = 1;
      double delta_cut = 0.0;
      for (std::uint64_t u : sample) {
        delta_cut += delta_abs[u];
        for (const AdjacencyEntry& a :
             original.Neighbors(static_cast<VertexId>(u))) {
          if (in_set[a.neighbor] && a.neighbor > u) {
            delta_cut -= 2.0 * diff[a.edge];
          }
        }
      }
      for (std::uint64_t u : sample) in_set[u] = 0;
      cut_values[k * reps + rep] = std::abs(delta_cut);
    }
  });
  if (cut_values.empty()) return 0.0;
  double total = 0.0;
  for (double v : cut_values) total += v;
  return total / static_cast<double>(cut_values.size());
}

}  // namespace

double CutDiscrepancyMae(const UncertainGraph& original,
                         const UncertainGraph& sparsified,
                         const CutSampleOptions& options, Rng* rng,
                         ThreadPool& pool) {
  UGS_CHECK_EQ(original.num_vertices(), sparsified.num_vertices());
  const std::size_t n = original.num_vertices();
  UGS_CHECK(n >= 2);
  std::vector<double> delta_abs =
      DegreeDiscrepancies(original, sparsified, DiscrepancyType::kAbsolute);
  std::vector<double> diff = EdgeProbabilityDiffs(original, sparsified);

  // Geometric ladder of k values over [1, n - 1].
  std::vector<std::size_t> ks;
  double k = 1.0;
  const double growth =
      std::pow(static_cast<double>(n - 1),
               1.0 / std::max(1, options.num_k_values - 1));
  for (int i = 0; i < options.num_k_values; ++i) {
    auto ki = static_cast<std::size_t>(std::llround(k));
    ki = std::min<std::size_t>(std::max<std::size_t>(ki, 1), n - 1);
    if (ks.empty() || ks.back() != ki) ks.push_back(ki);
    k *= growth;
  }
  return SampledCutMae(original, delta_abs, diff, ks, options.sets_per_k,
                       rng, pool);
}

double CutDiscrepancyMaeForSetSize(const UncertainGraph& original,
                                   const UncertainGraph& sparsified,
                                   std::size_t set_size, int num_sets,
                                   Rng* rng, ThreadPool& pool) {
  UGS_CHECK_EQ(original.num_vertices(), sparsified.num_vertices());
  UGS_CHECK(set_size >= 1 && set_size < original.num_vertices());
  std::vector<double> delta_abs =
      DegreeDiscrepancies(original, sparsified, DiscrepancyType::kAbsolute);
  std::vector<double> diff = EdgeProbabilityDiffs(original, sparsified);
  return SampledCutMae(original, delta_abs, diff, {set_size}, num_sets,
                       rng, pool);
}

double RelativeEntropy(const UncertainGraph& original,
                       const UncertainGraph& sparsified) {
  double h = original.EntropyBits();
  return h > 0.0 ? sparsified.EntropyBits() / h : 0.0;
}

}  // namespace ugs
