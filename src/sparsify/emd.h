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
struct EmdOptions {
  DiscrepancyType discrepancy = DiscrepancyType::kAbsolute;
  double h = 0.05;          ///< entropy parameter forwarded to Eq. (9)/GDB.
  double tolerance = 1e-7;  ///< tau on relative improvement of D1.
  int max_iterations = 15;  ///< E+M rounds.
  GdbOptions m_phase;       ///< GDB settings for the M-phase (rule fixed
                            ///< to Degrees(); discrepancy/h overwritten).
};

struct EmdStats {
  int iterations = 0;
  int sweeps = 0;           ///< GDB sweeps, summed over the M-phases.
  std::size_t swaps = 0;    ///< backbone edges replaced by a different edge.
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
