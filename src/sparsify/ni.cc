#include "sparsify/ni.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sparsify/backbone.h"
#include "util/check.h"
#include "util/union_find.h"

namespace ugs {
namespace {

/// eps calibration: run r tries eps * kTheta^(+/-r), at most
/// kMaxCalibrationRuns runs in all.
constexpr double kTheta = 1.1;
constexpr int kMaxCalibrationRuns = 60;

/// Integer weight transform w_e = round(p_e / p_min), floored at 1 and
/// capped at max_weight.
std::vector<int> TransformWeights(const UncertainGraph& graph,
                                  int max_weight, double* p_min_out,
                                  bool* cap_hit) {
  double p_min = 1.0;
  for (const UncertainEdge& e : graph.edges()) {
    if (e.p > 0.0) p_min = std::min(p_min, e.p);
  }
  *p_min_out = p_min;
  *cap_hit = false;
  std::vector<int> w(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    double ratio = graph.edge(e).p / p_min;
    long long rounded = std::llround(ratio);
    if (rounded < 1) rounded = 1;
    if (rounded > max_weight) {
      rounded = max_weight;
      *cap_hit = true;
    }
    w[e] = static_cast<int>(rounded);
  }
  return w;
}

}  // namespace

NiCoreResult RunNiCore(const UncertainGraph& graph,
                       const std::vector<int>& weights, double epsilon,
                       Rng* rng) {
  UGS_CHECK_EQ(weights.size(), graph.num_edges());
  const std::size_t n = graph.num_vertices();
  const double log_n = std::log(std::max<std::size_t>(n, 2));

  NiCoreResult result;
  std::vector<int> remaining = weights;
  std::vector<EdgeId> alive(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) alive[e] = e;
  std::vector<char> in_prev_forest(graph.num_edges(), 0);

  UnionFind uf(n);
  int round = 0;
  std::vector<EdgeId> forest;
  while (!alive.empty()) {
    ++round;
    uf.Reset();
    forest.clear();
    // Contiguity: edges of the previous forest that are still alive get
    // first claim on this round's forest.
    for (int pass = 0; pass < 2; ++pass) {
      for (EdgeId e : alive) {
        if ((pass == 0) != (in_prev_forest[e] != 0)) continue;
        const UncertainEdge& ed = graph.edge(e);
        if (uf.Union(ed.u, ed.v)) forest.push_back(e);
      }
    }
    UGS_CHECK(!forest.empty());  // Alive edges always yield a forest edge.
    std::fill(in_prev_forest.begin(), in_prev_forest.end(), 0);
    for (EdgeId e : forest) {
      in_prev_forest[e] = 1;
      if (--remaining[e] == 0) {
        // Edge dies at round `round`: its NI index is this round.
        double ell = std::min(log_n / (epsilon * epsilon * round), 1.0);
        if (rng->Bernoulli(ell)) {
          result.edges.push_back(e);
          result.inflated_weights.push_back(
              static_cast<double>(weights[e]) / ell);
        }
      }
    }
    // Compact the alive list.
    std::erase_if(alive, [&](EdgeId e) { return remaining[e] == 0; });
  }
  result.rounds = round;
  return result;
}

Result<NiResult> NiSparsify(const UncertainGraph& graph, double alpha,
                            const NiOptions& options, Rng* rng,
                            ThreadPool& thread_pool) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0,1), got " +
                                   std::to_string(alpha));
  }
  const std::size_t m = graph.num_edges();
  const std::size_t n = graph.num_vertices();
  const std::size_t target = TargetEdgeCount(graph, alpha);
  if (target == 0 || target > m) {
    return Status::InvalidArgument("invalid target edge count " +
                                   std::to_string(target));
  }

  NiResult out;
  double p_min = 1.0;
  std::vector<int> weights =
      TransformWeights(graph, options.max_weight, &p_min, &out.weight_cap_hit);

  // Initial eps = sqrt(n log n / (alpha |E|)) (Section 3.2).
  const double log_n = std::log(std::max<std::size_t>(n, 2));
  double eps = std::sqrt(static_cast<double>(n) * log_n /
                         (alpha * static_cast<double>(m)));

  // Calibration: approximate the minimum eps with |E'| <= target.
  //
  // Every calibration run r is a pure function of its index: it evaluates
  // eps * kTheta^(+/- r) with its own seed-split RNG stream. That makes the
  // grow/shrink scans embarrassingly parallel -- candidates are evaluated
  // speculatively in pool-sized batches, then scanned in sequential index
  // order, so the selected (eps, core result) and the reported run count
  // are identical to the serial walk at any thread count.
  const double initial_eps = eps;
  const std::uint64_t calibration_base = rng->Next64();
  auto eps_at = [&](int exponent) {
    return initial_eps * std::pow(kTheta, exponent);
  };
  auto run_at = [&](int run_index, double run_eps) {
    Rng run_rng = SplitRng(calibration_base, run_index);
    return RunNiCore(graph, weights, run_eps, &run_rng);
  };

  NiCoreResult best;
  bool have_best = false;
  double best_eps = eps;
  int runs = 0;
  NiCoreResult first = run_at(0, eps);
  ++runs;
  if (first.edges.size() > target) {
    // Too many edges: grow eps by kTheta per run until the first that
    // fits.
    int index = 1;
    while (runs < kMaxCalibrationRuns && !have_best) {
      const int budget = kMaxCalibrationRuns - runs;
      const int batch =
          std::min(budget, std::max(1, thread_pool.num_threads()));
      std::vector<NiCoreResult> results(batch);
      thread_pool.ParallelFor(static_cast<std::size_t>(batch),
                              [&](std::size_t b) {
        int i = index + static_cast<int>(b);
        results[b] = run_at(i, eps_at(i));
      });
      for (int b = 0; b < batch; ++b) {
        ++runs;
        if (results[b].edges.size() <= target) {
          best = std::move(results[b]);
          best_eps = eps_at(index + b);
          have_best = true;
          break;
        }
      }
      index += batch;
    }
    if (!have_best) {
      // Give up calibrating; fall back to an empty core result (the
      // Monte-Carlo fill below produces the requested edge count).
      best = NiCoreResult{};
      best_eps = eps_at(kMaxCalibrationRuns - 1);
    }
  } else {
    // Fits already: shrink eps while it keeps fitting, keep the last fit.
    best = std::move(first);
    best_eps = eps;
    have_best = true;
    int index = 1;
    bool overflowed = false;
    while (runs < kMaxCalibrationRuns && !overflowed) {
      const int budget = kMaxCalibrationRuns - runs;
      const int batch =
          std::min(budget, std::max(1, thread_pool.num_threads()));
      std::vector<NiCoreResult> results(batch);
      thread_pool.ParallelFor(static_cast<std::size_t>(batch),
                              [&](std::size_t b) {
        int i = index + static_cast<int>(b);
        results[b] = run_at(i, eps_at(-i));
      });
      for (int b = 0; b < batch; ++b) {
        ++runs;
        if (results[b].edges.size() > target) {
          overflowed = true;
          break;
        }
        best = std::move(results[b]);
        best_eps = eps_at(-(index + b));
      }
      index += batch;
    }
  }
  out.epsilon_used = best_eps;
  out.calibration_runs = runs;

  // Convert kept edges back to probabilities: p' = min(w' p_min, 1).
  std::vector<char> chosen(m, 0);
  for (std::size_t i = 0; i < best.edges.size(); ++i) {
    EdgeId e = best.edges[i];
    chosen[e] = 1;
    out.edges.push_back(e);
    out.probabilities.push_back(
        std::min(best.inflated_weights[i] * p_min, 1.0));
  }

  // Fill the remainder by Monte-Carlo sampling with original p.
  std::vector<EdgeId> pool;
  pool.reserve(m - out.edges.size());
  for (EdgeId e = 0; e < m; ++e) {
    if (!chosen[e] && graph.edge(e).p > 0.0) pool.push_back(e);
  }
  while (out.edges.size() < target) {
    UGS_CHECK(!pool.empty());
    std::size_t i = static_cast<std::size_t>(rng->NextIndex(pool.size()));
    EdgeId e = pool[i];
    if (rng->Bernoulli(graph.edge(e).p)) {
      out.edges.push_back(e);
      out.probabilities.push_back(graph.edge(e).p);
      pool[i] = pool.back();
      pool.pop_back();
    }
  }
  return out;
}

}  // namespace ugs
