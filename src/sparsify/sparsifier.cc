#include "sparsify/sparsifier.h"

#include <string>
#include <utility>

#include "sparsify/lp_assign.h"
#include "sparsify/sparse_state.h"
#include "util/timer.h"

namespace ugs {
namespace {

/// Builds the output graph from edge ids + probabilities.
SparsifyOutput AssembleOutput(const UncertainGraph& graph,
                              std::vector<EdgeId> edge_ids,
                              const std::vector<double>& probabilities,
                              double seconds) {
  UGS_CHECK_EQ(edge_ids.size(), probabilities.size());
  std::vector<UncertainEdge> edges;
  edges.reserve(edge_ids.size());
  for (std::size_t i = 0; i < edge_ids.size(); ++i) {
    const UncertainEdge& e = graph.edge(edge_ids[i]);
    edges.push_back({e.u, e.v, probabilities[i]});
  }
  SparsifyOutput out;
  out.graph = UncertainGraph::FromEdges(graph.num_vertices(),
                                        std::move(edges));
  out.original_edge_ids = std::move(edge_ids);
  out.seconds = seconds;
  return out;
}

class GdbSparsifier final : public Sparsifier {
 public:
  GdbSparsifier(GdbSparsifierOptions options, std::string name)
      : options_(options), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  Result<SparsifyOutput> Sparsify(const UncertainGraph& graph, double alpha,
                                  Rng* rng) const override {
    Timer timer;
    Result<std::vector<EdgeId>> backbone =
        BuildBackbone(graph, alpha, options_.backbone, rng);
    if (!backbone.ok()) return backbone.status();
    SparseState state(graph, backbone.value());
    const GdbStats stats = RunGdb(&state, options_.gdb);
    SparsifyOutput out;
    out.graph = state.BuildGraph(&out.original_edge_ids);
    out.seconds = timer.ElapsedSeconds();
    out.sweeps = stats.sweeps;
    out.converged = stats.converged;
    out.final_objective = stats.final_objective;
    return out;
  }

 private:
  GdbSparsifierOptions options_;
  std::string name_;
};

class EmdSparsifier final : public Sparsifier {
 public:
  EmdSparsifier(EmdSparsifierOptions options, std::string name)
      : options_(options), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  Result<SparsifyOutput> Sparsify(const UncertainGraph& graph, double alpha,
                                  Rng* rng) const override {
    Timer timer;
    Result<std::vector<EdgeId>> backbone =
        BuildBackbone(graph, alpha, options_.backbone, rng);
    if (!backbone.ok()) return backbone.status();
    SparseState state(graph, backbone.value());
    const EmdStats stats = RunEmd(&state, options_.emd);
    SparsifyOutput out;
    out.graph = state.BuildGraph(&out.original_edge_ids);
    out.seconds = timer.ElapsedSeconds();
    out.iterations = stats.iterations;
    out.sweeps = stats.sweeps;
    out.swaps = stats.swaps;
    out.candidates_scored = stats.candidates_scored;
    out.candidates_skipped = stats.candidates_skipped;
    out.heap_updates = stats.heap_updates;
    out.e_phase_seconds = stats.e_phase_seconds;
    out.m_phase_seconds = stats.m_phase_seconds;
    out.converged = stats.converged;
    out.final_objective = stats.final_objective;
    return out;
  }

 private:
  EmdSparsifierOptions options_;
  std::string name_;
};

class LpSparsifier final : public Sparsifier {
 public:
  LpSparsifier(BackboneOptions backbone, std::string name)
      : backbone_(backbone), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  Result<SparsifyOutput> Sparsify(const UncertainGraph& graph, double alpha,
                                  Rng* rng) const override {
    Timer timer;
    Result<std::vector<EdgeId>> backbone =
        BuildBackbone(graph, alpha, backbone_, rng);
    if (!backbone.ok()) return backbone.status();
    std::vector<double> p = SolveDegreeLp(graph, backbone.value());
    return AssembleOutput(graph, std::move(backbone.value()), p,
                          timer.ElapsedSeconds());
  }

 private:
  BackboneOptions backbone_;
  std::string name_;
};

class NiSparsifier final : public Sparsifier {
 public:
  /// A null pool calibrates on a local 1-thread pool (no workers).
  NiSparsifier(NiOptions options, ThreadPool* pool)
      : options_(options), pool_(pool) {}

  std::string name() const override { return "NI"; }

  Result<SparsifyOutput> Sparsify(const UncertainGraph& graph, double alpha,
                                  Rng* rng) const override {
    Timer timer;
    ThreadPool serial(1);
    Result<NiResult> r = NiSparsify(graph, alpha, options_, rng,
                                    pool_ != nullptr ? *pool_ : serial);
    if (!r.ok()) return r.status();
    return AssembleOutput(graph, std::move(r->edges), r->probabilities,
                          timer.ElapsedSeconds());
  }

 private:
  NiOptions options_;
  ThreadPool* pool_;
};

class SsSparsifier final : public Sparsifier {
 public:
  explicit SsSparsifier(SpannerOptions options) : options_(options) {}

  std::string name() const override { return "SS"; }

  Result<SparsifyOutput> Sparsify(const UncertainGraph& graph, double alpha,
                                  Rng* rng) const override {
    Timer timer;
    Result<SpannerResult> r = SpannerSparsify(graph, alpha, options_, rng);
    if (!r.ok()) return r.status();
    // The spanner keeps original probabilities (Section 3.2: p' = p).
    std::vector<double> p;
    p.reserve(r->edges.size());
    for (EdgeId e : r->edges) p.push_back(graph.edge(e).p);
    return AssembleOutput(graph, std::move(r->edges), p,
                          timer.ElapsedSeconds());
  }

 private:
  SpannerOptions options_;
};

BackboneOptions RandomBackbone() {
  BackboneOptions b;
  b.kind = BackboneKind::kRandom;
  return b;
}

BackboneOptions SpanningBackbone() {
  BackboneOptions b;
  b.kind = BackboneKind::kSpanning;
  return b;
}

}  // namespace

std::unique_ptr<Sparsifier> MakeGdbSparsifier(
    const GdbSparsifierOptions& options, std::string name) {
  if (name.empty()) name = "GDB";
  return std::make_unique<GdbSparsifier>(options, std::move(name));
}

std::unique_ptr<Sparsifier> MakeEmdSparsifier(
    const EmdSparsifierOptions& options, std::string name) {
  if (name.empty()) name = "EMD";
  return std::make_unique<EmdSparsifier>(options, std::move(name));
}

std::unique_ptr<Sparsifier> MakeLpSparsifier(const BackboneOptions& backbone,
                                             std::string name) {
  if (name.empty()) name = "LP";
  return std::make_unique<LpSparsifier>(backbone, std::move(name));
}

std::unique_ptr<Sparsifier> MakeNiSparsifier(ThreadPool& pool,
                                             const NiOptions& options) {
  return std::make_unique<NiSparsifier>(options, &pool);
}

std::unique_ptr<Sparsifier> MakeSpannerSparsifier(
    const SpannerOptions& options) {
  return std::make_unique<SsSparsifier>(options);
}

Result<std::unique_ptr<Sparsifier>> MakeSparsifierByName(
    const std::string& name, double h, ThreadPool* pool) {
  // The negated test also rejects NaN.
  if (!(h >= 0.0 && h <= 1.0)) {
    return Status::InvalidArgument("h must be in [0, 1], got " +
                                   std::to_string(h));
  }
  // Representative aliases of Section 6.1.
  if (name == "GDB") return MakeSparsifierByName("GDBA", h);
  if (name == "EMD") return MakeSparsifierByName("EMDR-t", h);

  if (name == "NI") {
    return {std::make_unique<NiSparsifier>(NiOptions{}, pool)};
  }
  if (name == "SS") return {MakeSpannerSparsifier()};
  if (name == "LP") return {MakeLpSparsifier(RandomBackbone(), "LP")};
  if (name == "LP-t") return {MakeLpSparsifier(SpanningBackbone(), "LP-t")};

  // GDB / EMD family: parse "<GDB|EMD><A|R>[2|n|-k<k>][-t]".
  std::string rest = name;
  bool is_emd = false;
  if (rest.rfind("GDB", 0) == 0) {
    rest = rest.substr(3);
  } else if (rest.rfind("EMD", 0) == 0) {
    is_emd = true;
    rest = rest.substr(3);
  } else {
    return Status::NotFound("unknown sparsifier '" + name + "'");
  }
  if (rest.empty()) {
    return Status::NotFound("missing discrepancy letter in '" + name + "'");
  }
  DiscrepancyType type;
  if (rest[0] == 'A') {
    type = DiscrepancyType::kAbsolute;
  } else if (rest[0] == 'R') {
    type = DiscrepancyType::kRelative;
  } else {
    return Status::NotFound("bad discrepancy letter in '" + name + "'");
  }
  rest = rest.substr(1);
  bool spanning = false;
  if (rest.size() >= 2 && rest.substr(rest.size() - 2) == "-t") {
    spanning = true;
    rest = rest.substr(0, rest.size() - 2);
  }
  CutRule rule = CutRule::Degrees();
  if (!rest.empty()) {
    if (is_emd) {
      return Status::NotFound("EMD supports only k = 1 (got '" + name +
                              "')");
    }
    if (rest == "2") {
      rule = CutRule::Cuts(2);
    } else if (rest == "n") {
      rule = CutRule::AllCuts();
    } else if (rest.rfind("-k", 0) == 0) {
      int k = std::atoi(rest.c_str() + 2);
      if (k < 1) {
        return Status::NotFound("bad k in '" + name + "'");
      }
      rule = CutRule::Cuts(k);
    } else {
      return Status::NotFound("bad variant suffix in '" + name + "'");
    }
  }
  BackboneOptions backbone = spanning ? SpanningBackbone() : RandomBackbone();
  if (is_emd) {
    EmdSparsifierOptions options;
    options.emd.discrepancy = type;
    options.emd.h = h;
    options.backbone = backbone;
    return {MakeEmdSparsifier(options, name)};
  }
  GdbSparsifierOptions options;
  options.gdb.discrepancy = type;
  options.gdb.rule = rule;
  options.gdb.h = h;
  options.backbone = backbone;
  return {MakeGdbSparsifier(options, name)};
}

std::vector<std::string> KnownSparsifierNames() {
  return {"LP",     "LP-t",   "GDBA",   "GDBR",   "GDBA2",  "GDBAn",
          "GDBA-t", "GDBR-t", "EMDA",   "EMDR",   "EMDA-t", "EMDR-t",
          "NI",     "SS"};
}

}  // namespace ugs
