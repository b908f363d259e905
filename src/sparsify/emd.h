#ifndef UGS_SPARSIFY_EMD_H_
#define UGS_SPARSIFY_EMD_H_

#include "sparsify/gdb.h"
#include "sparsify/sparse_state.h"

namespace ugs {

/// Options for Expectation-Maximization Degree (Algorithm 3).
///
/// EMD alternates an E-phase that restructures the backbone (swapping each
/// backbone edge against the best edge incident to the most-discrepant
/// vertex) with an M-phase that re-optimizes probabilities by running GDB
/// on the new backbone. EMD is defined for the degree objective (k = 1)
/// only: the paper's gain function needs per-edge cut discrepancies, which
/// are intractable for k > 1 (Section 5).
///
/// An M-phase stops once a GDB sweep improves D1 by less than 1e-2 times
/// max(1, D1) (m_phase.tolerance; 1% relative when D1 >= 1), and at
/// m_phase.max_sweeps at the latest. Intermediate M-phases need not
/// converge: the next E-phase pulls every backbone edge out and puts it
/// (or its replacement) back at its Eq. (9) probability, so an M-phase
/// only shapes the discrepancies that E-phase reads. Running them to
/// GDB's own 1e-7 tolerance spent ~97% of EMD's sweeps on the
/// sparsify_eval graph for a final D1 at most 0.5% lower, and often
/// higher. The outer loop keeps its own tolerance and cap.
struct EmdOptions {
  DiscrepancyType discrepancy = DiscrepancyType::kAbsolute;
  double h = 0.05;          ///< entropy parameter forwarded to Eq. (9)/GDB.
  /// tau: the outer loop stops once a round changes D1 by at most
  /// tau * max(1, |D1|) -- relative when |D1| >= 1, absolute below.
  double tolerance = 1e-7;
  int max_iterations = 15;  ///< E+M rounds.
  /// GDB settings for the M-phase (rule fixed to Degrees(); discrepancy
  /// and h overwritten).
  GdbOptions m_phase{.tolerance = 1e-2};
};

struct EmdStats {
  int iterations = 0;
  int sweeps = 0;           ///< GDB sweeps, summed over the M-phases.
  std::size_t swaps = 0;    ///< backbone edges replaced by a different edge.
  /// E-phase candidates (non-backbone edges at the most-discrepant
  /// vertex) scored in full, and those the gain bound skipped.
  std::size_t candidates_scored = 0;
  std::size_t candidates_skipped = 0;
  /// E-phase vertex-heap priority updates: each step settles the removed
  /// edge's endpoints once, plus the winner's other endpoint on a swap.
  std::size_t heap_updates = 0;
  /// Wall time of the E-phases and of the M-phases, each summed.
  double e_phase_seconds = 0.0;
  double m_phase_seconds = 0.0;
  /// Stopped on the tolerance rather than on max_iterations.
  bool converged = false;
  double initial_objective = 0.0;
  double final_objective = 0.0;
};

/// Runs EMD in place on `state` (holding the initial backbone with seed
/// probabilities). The backbone size is invariant; its membership and
/// probabilities change.
EmdStats RunEmd(SparseState* state, const EmdOptions& options);

/// The Eq. (10) gain of inserting edge e (currently not in the backbone)
/// with probability w: the decrease of the two endpoint terms of D1.
/// Exposed for unit tests (paper Figure 3 walk-through).
double InsertionGain(const SparseState& state, EdgeId e, double w,
                     DiscrepancyType type);

/// The probability Eq. (9) would assign to edge e if it were inserted
/// now: the full clamped optimal step (the swap replaces the removed
/// edge's probability mass, so no h-scaling -- see emd.cc for the
/// rationale). Does not modify state.
double CandidateProbability(const SparseState& state, EdgeId e,
                            DiscrepancyType type);

/// One E-phase choice: the edge to (re)insert and its probability.
struct EPhaseChoice {
  EdgeId edge;
  double p;
};

/// Candidates an E-phase scan scored in full and skipped by its bound.
struct EPhaseCounts {
  std::size_t scored = 0;
  std::size_t skipped = 0;
};

/// Lines 14-17 of Algorithm 3, as RunEmd's E-phase runs them. With
/// `removed` just pulled out of the backbone and `top` the vertex to
/// repair, returns the winner among `removed` and the non-backbone edges
/// at `top`, scanned in adjacency order: the first strictly greater
/// InsertionGain at CandidateProbability wins, so ties keep `removed`.
/// `counts`, if given, accumulates the scan's counts. Exposed for
/// white-box tests.
///
/// The scan skips a candidate it can prove unable to win. With d the
/// absolute discrepancy and s(x) = 1 / pi(x)^2 (relative; 0 where
/// pi = 0) or 1 (absolute), inserting candidate (t, o) at p gains
///   f(p) = (2 d_t p - p^2) s_t + (2 d_o p - p^2) s_o = 2 A p - B p^2,
///   A = d_t s_t + d_o s_o,  B = s_t + s_o,
/// which is concave in p with maximum A^2 / B: a bound for every p, the
/// clamped Eq. (9) step included. A candidate is skipped when, in
/// floating point,
///   A^2 < (g - slack(t)) B,
///   slack(t) = 1e-12 (k(t) + max over o' in N(t) of k(o')),
///   k(x) = (deg(x) + 2)^2 s(x),
/// with g the best computed gain so far and deg(x) the number of edges
/// at x. slack depends on the graph alone, so a run computes it once
/// per vertex, and the scan keeps g - slack(t) until g changes. Then the
/// candidate's computed gain is below g, so scoring it could not have
/// changed the winner:
///   - The slack covers the pair. Every p and p_hat lies in [0, 1], so
///     d_x, a sum of p_e - p_hat_e over the deg(x) edges at x, lies in
///     [-deg(x), deg(x)]. Its incremental updates drift by at most u =
///     2^-53 times deg(x) + 1 per update, far below 1 in any feasible
///     run. So |d_x| + 1 <= deg(x) + 2, and the pair's
///     K = sum over x in {t, o} of (|d_x| + 1)^2 s_x is at most
///     k(t) + k(o) <= slack(t) / 1e-12; the computed slack is short of
///     that by at most 6u of itself.
///   - Cauchy-Schwarz gives A^2 <= L^2 <= K B with L = |d_t| s_t +
///     |d_o| s_o, so A^2 / B <= K.
/// The margins, to first order in u (with or without fused
/// multiply-adds):
///   - The computed gain: each of its four squared typed discrepancies is
///     off by at most 5u of itself (a subtraction, a division, a square),
///     Gain's three additions by 3u of their sum, and that sum is at most
///     2K since p is in [0, 1]. So it is at most A^2 / B + 16u K.
///   - The computed A: s is off by 2u, each product and the sum by u, so
///     A is off by 4u L, and A^2 by 8u L^2 <= 8u K B.
///   - If g > 2K the candidate's gain, at most K (1 + 16u), is below g
///     anyway. Otherwise rounding A^2 and (g - slack(t)) B costs at most
///     8u g B <= 16u K B.
/// So the test implies A^2 / B < g - slack(t) + 24u K, and the computed
/// gain is below g - slack(t) + 40u K <= g - (1e-12 - 41u) K <= g: the
/// slack is over 200 times the 40u K it must cover. Where g <= slack(t),
/// or B = 0 (then A = 0), the right side is not positive and nothing is
/// skipped; NaN or infinite terms compare false and are scored. pi <= |V|
/// keeps s >= |V|^-2, far above the subnormal range. The slack is a
/// maximum over t's neighbourhood, not over the graph, so a vertex with a
/// tiny pi (a huge s) loosens the bound only at itself and its
/// neighbours.
EPhaseChoice EPhaseBestCandidate(const SparseState& state, VertexId top,
                                 EdgeId removed, DiscrepancyType type,
                                 EPhaseCounts* counts = nullptr);

}  // namespace ugs

#endif  // UGS_SPARSIFY_EMD_H_
