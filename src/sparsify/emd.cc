#include "sparsify/emd.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "util/check.h"
#include "util/indexed_heap.h"
#include "util/timer.h"

namespace ugs {
namespace {

/// The typed discrepancy of a vertex with absolute discrepancy
/// `delta_abs` and Eq. (8) weight `pi` (its expected degree under the
/// relative discrepancy, where a zero degree gives 0).
template <DiscrepancyType kType>
double TypedDelta(double delta_abs, double pi) {
  if constexpr (kType == DiscrepancyType::kAbsolute) {
    return delta_abs;
  } else {
    return pi > 0.0 ? delta_abs / pi : 0.0;
  }
}

/// Eq. (9)'s insertion probability for a candidate whose endpoints have
/// discrepancies du0, dv0 (at p_hat_e = 0) and weights pi_u, pi_v.
///
/// The candidate is hypothetically inserted at p_hat = 0, so the optimal
/// step of Eq. (8) lands directly on the proposed probability (clamped).
/// The full step is used rather than the entropy-guarded h-scaled one:
/// a swap replaces the removed edge's probability mass, and inserting at
/// h * step would leak (1 - h) of that mass out of the graph each
/// E-phase, leaving EMD strictly worse than the GDB it wraps -- the
/// opposite of the paper's Table 2. The entropy guard h applies inside
/// the GDB M-phase refinement (Algorithm 2), matching the paper's
/// Figure 3 walk-through where insertions carry their Eq.-(9) optimum.
double ClampedStep(double du0, double dv0, double pi_u, double pi_v) {
  return std::max(0.0, std::min(1.0, DegreeStepK1(du0, dv0, pi_u, pi_v)));
}

/// Eq. (10)'s gain of inserting a candidate: the decrease of its two
/// endpoint terms of D1, from the typed discrepancies of its endpoints u
/// and v (in edge order) at p_hat_e = 0 and at p_hat_e = w.
double Gain(double tu0, double tuw, double tv0, double tvw) {
  return tu0 * tu0 - tuw * tuw + tv0 * tv0 - tvw * tvw;
}

/// Gain of inserting the candidate with endpoint discrepancies du0, dv0
/// and weights pi_u, pi_v at probability w.
template <DiscrepancyType kType>
double GainAt(double du0, double dv0, double pi_u, double pi_v, double w) {
  return Gain(TypedDelta<kType>(du0, pi_u), TypedDelta<kType>(du0 - w, pi_u),
              TypedDelta<kType>(dv0, pi_v), TypedDelta<kType>(dv0 - w, pi_v));
}

/// A candidate edge's insertion probability and gain in the current state.
struct Candidate {
  double p;
  double gain;
};

template <DiscrepancyType kType>
Candidate ScoreCandidate(const SparseState& state, EdgeId e) {
  const UncertainEdge& ed = state.graph().edge(e);
  const double du0 = state.DeltaAbs(ed.u);
  const double dv0 = state.DeltaAbs(ed.v);
  const double pi_u = DegreeStepWeight(state.graph(), ed.u, kType);
  const double pi_v = DegreeStepWeight(state.graph(), ed.v, kType);
  const double p = ClampedStep(du0, dv0, pi_u, pi_v);
  return {p, GainAt<kType>(du0, dv0, pi_u, pi_v, p)};
}

/// The E-phase bound's rounding slack, per unit of K; emd.h
/// (EPhaseBestCandidate) derives it.
constexpr double kBoundSlack = 1e-12;

/// The per-vertex terms of the E-phase gain bound (emd.h,
/// EPhaseBestCandidate), fixed for a whole run: s(u) = 1 / pi(u)^2, the
/// weight of u's term of D1 in units of its absolute discrepancy (1 for
/// absolute, 0 where a relative weight is 0; pi is the original expected
/// degree), and each vertex's rounding slack
///   slack(t) = 1e-12 (k(t) + max over o in N(t) of k(o)),
///   k(x) = (deg(x) + 2)^2 s(x).
struct BoundTerms {
  std::vector<double> s;
  std::vector<double> slack;
};

BoundTerms MakeBoundTerms(const UncertainGraph& graph, DiscrepancyType type) {
  const std::size_t n = graph.num_vertices();
  BoundTerms terms{std::vector<double>(n, 1.0), std::vector<double>(n)};
  if (type == DiscrepancyType::kRelative) {
    for (VertexId u = 0; u < n; ++u) {
      const double pi = graph.ExpectedDegree(u);
      terms.s[u] = pi > 0.0 ? 1.0 / (pi * pi) : 0.0;
    }
  }
  std::vector<double> k(n);
  for (VertexId x = 0; x < n; ++x) {
    const double reach = static_cast<double>(graph.Degree(x)) + 2.0;
    k[x] = reach * reach * terms.s[x];
  }
  for (VertexId t = 0; t < n; ++t) {
    double k_max = 0.0;
    for (const AdjacencyEntry& a : graph.Neighbors(t)) {
      k_max = std::max(k_max, k[a.neighbor]);
    }
    terms.slack[t] = kBoundSlack * (k[t] + k_max);
  }
  return terms;
}

/// Lines 14-17 of Algorithm 3: the best candidate among the E \ E_b edges
/// at `top`, plus the just-removed edge `e` itself. The first strictly
/// greater gain wins, so ties keep the incumbent e.
///
/// A candidate whose gain bound (emd.h, EPhaseBestCandidate) proves it
/// cannot beat the best gain so far is skipped; every other one is
/// scored as ScoreCandidate does, bit for bit, with `top`'s terms loaded
/// once: Eq. (8)'s step is symmetric in its endpoints (IEEE + and *
/// commute), and Gain takes the endpoints in edge order.
template <DiscrepancyType kType>
EPhaseChoice BestCandidate(const SparseState& state, const BoundTerms& terms,
                           VertexId top, EdgeId e, EPhaseCounts* counts) {
  const UncertainGraph& graph = state.graph();
  const Candidate incumbent = ScoreCandidate<kType>(state, e);
  EPhaseChoice best{e, incumbent.p};
  double best_gain = incumbent.gain;
  const double d_top = state.DeltaAbs(top);
  const double pi_top = DegreeStepWeight(graph, top, kType);
  const double t_top0 = TypedDelta<kType>(d_top, pi_top);
  const double* s = terms.s.data();
  const double s_top = s[top];
  const double a_top = d_top * s_top;
  const double slack_top = terms.slack[top];
  // best_gain - slack(top): refreshed only when the best changes.
  double threshold = best_gain - slack_top;
  std::size_t scored = 0;
  std::size_t examined = 0;
  for (const AdjacencyEntry& a : graph.Neighbors(top)) {
    const EdgeId er = a.edge;
    const double d_other = state.DeltaAbs(a.neighbor);
    const double s_other = s[a.neighbor];
    const double bound_a = a_top + d_other * s_other;
    // One branch per edge: the bound is evaluated for backbone edges too
    // (it has no side effects), and only candidates it cannot rule out
    // are scored.
    const bool candidate = !state.InBackbone(er) & (er != e);
    examined += candidate;
    const bool bounded = bound_a * bound_a < threshold * (s_top + s_other);
    if (!candidate | bounded) continue;
    ++scored;
    const double pi_other = DegreeStepWeight(graph, a.neighbor, kType);
    const double p = ClampedStep(d_top, d_other, pi_top, pi_other);
    const double t_topw = TypedDelta<kType>(d_top - p, pi_top);
    const double t_other0 = TypedDelta<kType>(d_other, pi_other);
    const double t_otherw = TypedDelta<kType>(d_other - p, pi_other);
    const double gain = graph.edge(er).u == top
                            ? Gain(t_top0, t_topw, t_other0, t_otherw)
                            : Gain(t_other0, t_otherw, t_top0, t_topw);
    if (gain > best_gain) {
      best_gain = gain;
      best = {er, p};
      threshold = best_gain - slack_top;
    }
  }
  counts->scored += scored;
  counts->skipped += examined - scored;
  return best;
}

EPhaseChoice BestCandidate(const SparseState& state, const BoundTerms& terms,
                           VertexId top, EdgeId e, DiscrepancyType type,
                           EPhaseCounts* counts) {
  return type == DiscrepancyType::kAbsolute
             ? BestCandidate<DiscrepancyType::kAbsolute>(state, terms, top, e,
                                                         counts)
             : BestCandidate<DiscrepancyType::kRelative>(state, terms, top, e,
                                                         counts);
}

}  // namespace

double CandidateProbability(const SparseState& state, EdgeId e,
                            DiscrepancyType type) {
  UGS_DCHECK(!state.InBackbone(e));
  return type == DiscrepancyType::kAbsolute
             ? ScoreCandidate<DiscrepancyType::kAbsolute>(state, e).p
             : ScoreCandidate<DiscrepancyType::kRelative>(state, e).p;
}

double InsertionGain(const SparseState& state, EdgeId e, double w,
                     DiscrepancyType type) {
  UGS_DCHECK(!state.InBackbone(e));
  const UncertainEdge& ed = state.graph().edge(e);
  const double du0 = state.DeltaAbs(ed.u);
  const double dv0 = state.DeltaAbs(ed.v);
  const double pi_u = DegreeStepWeight(state.graph(), ed.u, type);
  const double pi_v = DegreeStepWeight(state.graph(), ed.v, type);
  return type == DiscrepancyType::kAbsolute
             ? GainAt<DiscrepancyType::kAbsolute>(du0, dv0, pi_u, pi_v, w)
             : GainAt<DiscrepancyType::kRelative>(du0, dv0, pi_u, pi_v, w);
}

EPhaseChoice EPhaseBestCandidate(const SparseState& state, VertexId top,
                                 EdgeId removed, DiscrepancyType type,
                                 EPhaseCounts* counts) {
  UGS_DCHECK(!state.InBackbone(removed));
  EPhaseCounts unused;
  return BestCandidate(state, MakeBoundTerms(state.graph(), type), top,
                       removed, type, counts != nullptr ? counts : &unused);
}

EmdStats RunEmd(SparseState* state, const EmdOptions& options) {
  UGS_CHECK(options.h >= 0.0 && options.h <= 1.0);
  EmdStats stats;
  const DiscrepancyType type = options.discrepancy;
  stats.initial_objective = state->ObjectiveD1(type);
  double previous = stats.initial_objective;

  GdbOptions m_phase = options.m_phase;
  m_phase.discrepancy = type;
  m_phase.rule = CutRule::Degrees();
  m_phase.h = options.h;

  const UncertainGraph& graph = state->graph();
  const BoundTerms terms = MakeBoundTerms(graph, type);
  using HeapEntry = IndexedMaxHeap::Entry;
  IndexedMaxHeap heap(graph.num_vertices());
  EPhaseCounts counts;
  const auto at = [&](VertexId x) {
    return HeapEntry{std::abs(state->Delta(x, type)), x};
  };
  const auto settle = [&](VertexId x) {
    heap.Update(x, std::abs(state->Delta(x, type)));
    ++stats.heap_updates;
  };

  Timer phase;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // ---- E-phase (Algorithm 3 lines 7-20) ----
    phase.Reset();
    heap.Clear();
    for (VertexId u = 0; u < graph.num_vertices(); ++u) {
      heap.Push(u, std::abs(state->Delta(u, type)));
    }
    const std::vector<EdgeId> snapshot = state->BackboneEdges();
    for (EdgeId e : snapshot) {
      UGS_DCHECK(state->InBackbone(e));
      const UncertainEdge& ed = graph.edge(e);
      // Lines 10-12: pull e out; endpoint discrepancies grow by p_hat_e.
      state->RemoveEdge(e);

      // Line 13: most-discrepant vertex. The heap still holds u and v at
      // their priorities before the removal and every other vertex
      // exactly, so the first in heap order is the first of u and v at
      // their new priorities and the heap's first other vertex. Settling
      // u and v waits for the insert below.
      HeapEntry top = at(ed.u);
      if (const HeapEntry v = at(ed.v); IndexedMaxHeap::Precedes(v, top)) {
        top = v;
      }
      if (const std::optional<HeapEntry> rest = heap.TopExcept(ed.u, ed.v);
          rest.has_value() && IndexedMaxHeap::Precedes(*rest, top)) {
        top = *rest;
      }

      // Lines 14-17: the best candidate at `top`, or e itself.
      const EPhaseChoice best =
          BestCandidate(*state, terms, top.key, e, type, &counts);

      // Lines 19-20: insert the winner, settle each touched vertex once.
      state->AddEdge(best.edge, best.p);
      settle(ed.u);
      settle(ed.v);
      if (best.edge != e) {
        ++stats.swaps;
        const UncertainEdge& bd = graph.edge(best.edge);
        for (VertexId x : {bd.u, bd.v}) {
          if (x != ed.u && x != ed.v) settle(x);
        }
      }
    }
    stats.e_phase_seconds += phase.ElapsedSeconds();

    // ---- M-phase (line 21): GDB on the restructured backbone ----
    phase.Reset();
    stats.sweeps += RunGdb(state, m_phase).sweeps;
    stats.m_phase_seconds += phase.ElapsedSeconds();

    ++stats.iterations;
    double objective = state->ObjectiveD1(type);
    bool converged = std::abs(previous - objective) <=
                     options.tolerance * std::max(1.0, std::abs(previous));
    previous = objective;
    if (converged) {
      stats.converged = true;
      break;
    }
  }
  stats.candidates_scored = counts.scored;
  stats.candidates_skipped = counts.skipped;
  stats.final_objective = previous;
  return stats;
}

}  // namespace ugs
