#ifndef UGS_SPARSIFY_SPARSIFIER_H_
#define UGS_SPARSIFY_SPARSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sparsify/backbone.h"
#include "sparsify/emd.h"
#include "sparsify/gdb.h"
#include "sparsify/ni.h"
#include "sparsify/spanner.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ugs {

/// Result of a sparsification run: the sparsified uncertain graph G'
/// together with the ids of its edges in the original graph's edge list
/// (parallel to graph.edges()) and the wall time spent.
///
/// GDB and EMD also report the work their optimizer did; every count
/// stays zero for LP, NI and SS.
struct SparsifyOutput {
  UncertainGraph graph;
  std::vector<EdgeId> original_edge_ids;
  double seconds = 0.0;
  int iterations = 0;       ///< EMD's E+M rounds (0 for GDB).
  int sweeps = 0;           ///< GDB sweeps (EMD: over all its M-phases).
  std::size_t swaps = 0;    ///< EMD's E-phase edge replacements.
  /// EMD's E-phase candidates scored in full and skipped by the gain
  /// bound (EmdStats; 0 for the other methods).
  std::size_t candidates_scored = 0;
  std::size_t candidates_skipped = 0;
  /// EMD's E-phase vertex-heap updates (EmdStats; 0 for the others).
  std::size_t heap_updates = 0;
  /// EMD's E-phase and M-phase wall time (0 for the other methods).
  double e_phase_seconds = 0.0;
  double m_phase_seconds = 0.0;
  /// The run stopped on its tolerance, not on its iteration/sweep cap.
  bool converged = false;
  /// Final D1 of the method's own discrepancy type (absolute or
  /// relative).
  double final_objective = 0.0;
};

/// Uniform interface over every sparsification method in the paper: the
/// proposed GDB / EMD / LP variants and the NI / SS deterministic-
/// literature benchmarks. All methods produce exactly round(alpha |E|)
/// edges (Problem 1's |E'| = alpha |E| constraint).
class Sparsifier {
 public:
  virtual ~Sparsifier() = default;

  /// Display name, matching the paper's variant notation transliterated
  /// to ASCII ("GDBA", "EMDR-t", "GDBA2", "GDBAn", "LP-t", "NI", "SS").
  virtual std::string name() const = 0;

  virtual Result<SparsifyOutput> Sparsify(const UncertainGraph& graph,
                                          double alpha, Rng* rng) const = 0;
};

/// GDB variant: discrepancy type + cut rule + backbone + entropy h.
struct GdbSparsifierOptions {
  GdbOptions gdb;
  BackboneOptions backbone;
};
std::unique_ptr<Sparsifier> MakeGdbSparsifier(
    const GdbSparsifierOptions& options, std::string name = "");

/// EMD variant (k = 1 only; see EmdOptions).
struct EmdSparsifierOptions {
  EmdOptions emd;
  BackboneOptions backbone;
};
std::unique_ptr<Sparsifier> MakeEmdSparsifier(
    const EmdSparsifierOptions& options, std::string name = "");

/// LP-optimal probability assignment (Theorem 1) on a backbone.
std::unique_ptr<Sparsifier> MakeLpSparsifier(const BackboneOptions& backbone,
                                             std::string name = "");

/// Nagamochi-Ibaraki cut-sparsifier benchmark; calibrates on `pool`,
/// which must outlive the sparsifier.
std::unique_ptr<Sparsifier> MakeNiSparsifier(ThreadPool& pool,
                                             const NiOptions& options = {});

/// Baswana-Sen spanner benchmark.
std::unique_ptr<Sparsifier> MakeSpannerSparsifier(
    const SpannerOptions& options = {});

/// Builds a sparsifier from the paper's variant notation:
///   "GDBA" | "GDBR" | "GDBA2" | "GDBAn" | "GDBA-t" | "GDBR-t"
///   "GDBA-k<k>"              (general-k rule, random backbone)
///   "EMDA" | "EMDR" | "EMDA-t" | "EMDR-t"
///   "LP" | "LP-t" | "NI" | "SS"
///   "GDB" (= GDBA) and "EMD" (= EMDR-t), the representative variants of
///   Section 6.1.
/// Suffix "-t" selects the Algorithm-1 spanning backbone; absence selects
/// the random (Monte-Carlo) backbone. Returns NotFound for unknown names
/// and InvalidArgument when `h` is NaN or outside [0, 1].
/// `h` is the entropy parameter used by GDB/EMD variants. `pool` is read
/// by NI only (see MakeNiSparsifier); null calibrates serially, with the
/// same result.
[[nodiscard]] Result<std::unique_ptr<Sparsifier>> MakeSparsifierByName(
    const std::string& name, double h = 0.05, ThreadPool* pool = nullptr);

/// All names understood by MakeSparsifierByName (fixed variants only).
std::vector<std::string> KnownSparsifierNames();

}  // namespace ugs

#endif  // UGS_SPARSIFY_SPARSIFIER_H_
