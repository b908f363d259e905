#ifndef UGS_SPARSIFY_GDB_H_
#define UGS_SPARSIFY_GDB_H_

#include <cstdint>

#include "sparsify/sparse_state.h"

namespace ugs {

/// Which cut cardinality the GDB update rule targets (Problem 1's k).
struct CutRule {
  /// k = 1: preserve expected degrees (Eq. 9). k = 2: Eq. 15.
  /// 2 < k < n: the analytic general rule Eq. 14. Use all_cuts() for the
  /// k = n rule (Eq. 16).
  int k = 1;
  bool k_is_n = false;

  static CutRule Degrees() { return {1, false}; }
  static CutRule Cuts(int k) { return {k, false}; }
  static CutRule AllCuts() { return {0, true}; }
};

/// Options for Gradient Descent Backbone (Algorithm 2).
struct GdbOptions {
  DiscrepancyType discrepancy = DiscrepancyType::kAbsolute;
  CutRule rule = CutRule::Degrees();
  /// Entropy parameter h in [0, 1]: fraction of the optimal step applied
  /// when the full step would increase the edge's entropy (Section 4.2;
  /// Figure 5 tunes it, 0.05 is the paper's balanced default).
  double h = 0.05;
  /// Convergence threshold tau: a run stops once a sweep changes D1 by
  /// at most tau * max(1, |D1|) -- relative when |D1| >= 1, absolute
  /// below.
  double tolerance = 1e-7;
  int max_sweeps = 60;
};

/// Result bookkeeping for a GDB run.
struct GdbStats {
  int sweeps = 0;
  /// Stopped on the tolerance (or on a sweep that moved nothing) rather
  /// than on max_sweeps.
  bool converged = false;
  double initial_objective = 0.0;
  double final_objective = 0.0;
};

/// Runs GDB probability optimization in place on `state` (which already
/// holds the backbone with its seed probabilities). This is both the
/// standalone GDB sparsifier's core and the M-phase of EMD.
GdbStats RunGdb(SparseState* state, const GdbOptions& options);

/// The optimal single-edge step of Eq. (8) (k = 1) from the endpoint
/// absolute discrepancies delta_u, delta_v and weights pi_u, pi_v (1 for
/// absolute discrepancy, the expected degree C_G for relative): the
/// probability change that zeroes the derivative of D1 with respect to
/// p'_e, before clamping and the entropy guard. The one definition of the
/// step, shared by GDB's update and EMD's candidate scan.
inline double DegreeStepK1(double delta_u, double delta_v, double pi_u,
                           double pi_v) {
  return (pi_v * delta_u + pi_u * delta_v) / (pi_u + pi_v);
}

/// Eq. (8)'s weight pi(u): 1 for absolute discrepancy, C_G(u) for
/// relative.
inline double DegreeStepWeight(const UncertainGraph& graph, VertexId u,
                               DiscrepancyType type) {
  return type == DiscrepancyType::kRelative ? graph.ExpectedDegree(u) : 1.0;
}

/// DegreeStepK1 for edge e in the current state. Exposed for unit tests.
inline double OptimalStepK1(const SparseState& state, EdgeId e,
                            DiscrepancyType type) {
  const UncertainEdge& ed = state.graph().edge(e);
  return DegreeStepK1(state.DeltaAbs(ed.u), state.DeltaAbs(ed.v),
                      DegreeStepWeight(state.graph(), ed.u, type),
                      DegreeStepWeight(state.graph(), ed.v, type));
}

/// Algorithm 2's entropy test: EdgeEntropyBits(proposed) >
/// EdgeEntropyBits(current), bit for bit, mostly without a logarithm.
///
/// Binary entropy is symmetric about 1/2 and falls as |p - 1/2| grows, so
/// with a = |proposed - 1/2| and b = |current - 1/2| the test is a < b
/// wherever the two float evaluations cannot disagree. Writing
/// H(1/2 + x) = 1 - sum_k c_k x^(2k) with every c_k > 0, a < b gives
/// H(1/2 + a) - H(1/2 + b) >= c_1 (b^2 - a^2) = (2 / ln 2)(b^2 - a^2),
/// for every a, b in [0, 1/2]. So when
/// |a^2 - b^2| > 1e-12 the true gap is at least 2.9e-12, far above the
/// ~1e-15 rounding error of each log evaluation (and of a^2 - b^2
/// itself), and the comparison of a and b decides. Inside that band the
/// two EdgeEntropyBits calls decide, as they always did. A band on
/// |a - b| instead would not do: near 1/2, b^2 - a^2 = (b - a)(b + a) is
/// far smaller than b - a, so the logs can disagree outside it.
bool EntropyRises(double proposed, double current);

/// Applies the Algorithm 2 update (lines 7-10) to edge e under the given
/// rule: full step if it clamps to {0,1} or does not increase entropy
/// (EntropyRises), otherwise h * step. Returns the new probability
/// (state is updated).
double UpdateEdgeProbability(SparseState* state, EdgeId e,
                             const GdbOptions& options);

}  // namespace ugs

#endif  // UGS_SPARSIFY_GDB_H_
