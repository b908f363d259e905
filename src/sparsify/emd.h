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
  double tolerance = 1e-7;  ///< tau on relative improvement of D1.
  int max_iterations = 15;  ///< E+M rounds.
  /// GDB settings for the M-phase (rule fixed to Degrees(); discrepancy
  /// and h overwritten).
  GdbOptions m_phase{.tolerance = 1e-2};
};

struct EmdStats {
  int iterations = 0;
  int sweeps = 0;           ///< GDB sweeps, summed over the M-phases.
  std::size_t swaps = 0;    ///< backbone edges replaced by a different edge.
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

}  // namespace ugs

#endif  // UGS_SPARSIFY_EMD_H_
