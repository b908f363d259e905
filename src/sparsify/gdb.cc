#include "sparsify/gdb.h"

#include <algorithm>
#include <cmath>

#include "util/binomial.h"
#include "util/check.h"

namespace ugs {
namespace {

double Clamp01(double x) { return std::max(0.0, std::min(1.0, x)); }

/// Eq. (14)'s coefficients for the k >= 2 cut rules (zero otherwise).
/// They depend only on |V| and k, so a run computes them once.
CutRuleCoefficients CoefficientsFor(const SparseState& state,
                                    const GdbOptions& options) {
  if (options.rule.k_is_n || options.rule.k < 2) return {};
  return ComputeCutRuleCoefficients(
      static_cast<std::int64_t>(state.graph().num_vertices()),
      options.rule.k);
}

/// The raw gradient-descent step for edge e under the given rule:
/// the distance from the current probability to the unconstrained
/// minimizer of the (convex) objective in that coordinate.
double OptimalStep(const SparseState& state, EdgeId e,
                   const GdbOptions& options,
                   const CutRuleCoefficients& coeffs) {
  const UncertainEdge& ed = state.graph().edge(e);
  const double delta_u = state.DeltaAbs(ed.u);
  const double delta_v = state.DeltaAbs(ed.v);

  if (options.rule.k_is_n) {
    // Eq. (16): distribute the cumulative discrepancy mass of all other
    // original edges. Delta over E \ {e} = T - (p_e - p_hat_e).
    return state.TotalMass() - (ed.p - state.Probability(e));
  }
  const int k = options.rule.k;
  UGS_DCHECK(k >= 1);
  if (k == 1) {
    // Eq. (8): weighted combination of the endpoint discrepancies.
    const UncertainGraph& g = state.graph();
    const DiscrepancyType type = options.discrepancy;
    return DegreeStepK1(delta_u, delta_v, DegreeStepWeight(g, ed.u, type),
                        DegreeStepWeight(g, ed.v, type));
  }
  // Eq. (14) general cut rule (k = 2 reduces to Eq. 15). Delta-hat(e) is
  // the discrepancy mass of edges not incident to either endpoint:
  // T - delta(u0) - delta(v0) + (p_e - p_hat_e) (e itself was subtracted
  // twice through the endpoint discrepancies).
  const double self_mass = ed.p - state.Probability(e);
  const double delta_rest =
      state.TotalMass() - delta_u - delta_v + self_mass;
  return coeffs.c_degree * (delta_u + delta_v) + coeffs.c_rest * delta_rest;
}

/// UpdateEdgeProbability with the rule's coefficients already computed.
double UpdateEdge(SparseState* state, EdgeId e, const GdbOptions& options,
                  const CutRuleCoefficients& coeffs) {
  UGS_DCHECK(state->InBackbone(e));
  const double current = state->Probability(e);
  const double step = OptimalStep(*state, e, options, coeffs);
  double proposed = current + step;
  if (proposed <= 0.0) {
    proposed = 0.0;  // Line 8: clamp; entropy at the boundary is 0.
  } else if (proposed >= 1.0) {
    proposed = 1.0;  // Line 9.
  } else if (EntropyRises(proposed, current)) {
    // Line 10: the optimal step raises this edge's entropy; move only a
    // fraction h of the way (still a descent direction, h in [0,1]).
    proposed = Clamp01(current + options.h * step);
  }
  state->SetProbability(e, proposed);
  return proposed;
}

}  // namespace

bool EntropyRises(double proposed, double current) {
  const double a = std::abs(proposed - 0.5);
  const double b = std::abs(current - 0.5);
  const double gap = a * a - b * b;
  if (std::abs(gap) > 1e-12) return gap < 0.0;
  return EdgeEntropyBits(proposed) > EdgeEntropyBits(current);
}

double UpdateEdgeProbability(SparseState* state, EdgeId e,
                             const GdbOptions& options) {
  return UpdateEdge(state, e, options, CoefficientsFor(*state, options));
}

GdbStats RunGdb(SparseState* state, const GdbOptions& options) {
  UGS_CHECK(options.h >= 0.0 && options.h <= 1.0);
  UGS_CHECK(options.rule.k_is_n || options.rule.k >= 1);
  GdbStats stats;
  const DiscrepancyType type = options.discrepancy;
  stats.initial_objective = state->ObjectiveD1(type);
  double previous = stats.initial_objective;
  const std::vector<EdgeId> backbone = state->BackboneEdges();
  // Computed only if an update will use them (they need |V| >= 4).
  const CutRuleCoefficients coeffs =
      backbone.empty() || options.max_sweeps <= 0
          ? CutRuleCoefficients{}
          : CoefficientsFor(*state, options);
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    double max_change = 0.0;
    for (EdgeId e : backbone) {
      double before = state->Probability(e);
      double after = UpdateEdge(state, e, options, coeffs);
      max_change = std::max(max_change, std::abs(after - before));
    }
    ++stats.sweeps;
    double objective = state->ObjectiveD1(type);
    // Terminate when the sweep changed D1 by at most tau * max(1, |D1|)
    // (relative above D1 = 1, absolute below) or moved no probability
    // measurably (covers the k >= 2 rules whose true objective D_k is not
    // tracked).
    bool converged =
        std::abs(previous - objective) <=
            options.tolerance * std::max(1.0, std::abs(previous)) ||
        max_change <= 1e-12;
    previous = objective;
    if (converged) {
      stats.converged = true;
      break;
    }
  }
  stats.final_objective = previous;
  return stats;
}

}  // namespace ugs
