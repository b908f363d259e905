#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr_format.h"
#include "graph/uncertain_graph.h"
#include "query/graph_session.h"
#include "service/wire.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// Unit and property tests of the edge-mutation path: ApplyUpdates
/// semantics and atomicity, and the version-equivalence oracle -- a
/// session mutated through WithUpdates answers every query bit-identical
/// (PayloadEquals) to a session freshly built from the equivalent edge
/// list, at 1, 2, and 8 engine threads (docs/dynamic-graphs.md).

using testing_util::CompleteK4;
using testing_util::PathGraph;

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// True when the two graphs' edges, offsets, rows and expected degrees
/// are byte-identical.
bool SameGraphBytes(const UncertainGraph& a, const UncertainGraph& b) {
  const CsrArrays x = a.csr_arrays();
  const CsrArrays y = b.csr_arrays();
  return SameBytes(x.edges, y.edges) &&
         SameBytes(x.degree_offsets, y.degree_offsets) &&
         SameBytes(x.adjacency, y.adjacency) &&
         SameBytes(x.expected_degrees, y.expected_degrees);
}

// --- ApplyUpdates semantics. ---

TEST(ApplyUpdatesTest, InsertAddsTheEdgeAndRebuildsAdjacency) {
  UncertainGraph graph = PathGraph(4, 0.5);  // 0-1-2-3.
  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kInsert, 3, 0, 0.25}};  // Endpoints unordered.
  ASSERT_TRUE(graph.ApplyUpdates(batch).ok());
  EXPECT_EQ(graph.num_edges(), 4u);
  const EdgeId e = graph.FindEdge(0, 3);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(graph.probability(e), 0.25);
  EXPECT_EQ(graph.Degree(0), 2u);
  EXPECT_DOUBLE_EQ(graph.ExpectedDegree(0), 0.75);
}

TEST(ApplyUpdatesTest, DeleteClosesTheEdgeIdGap) {
  UncertainGraph graph = CompleteK4(0.5);
  const UncertainEdge last_before = graph.edge(5);
  ASSERT_TRUE(
      graph.ApplyUpdates({{{EdgeUpdateOp::kDelete, 0, 1, 0.0}}}).ok());
  EXPECT_EQ(graph.num_edges(), 5u);
  EXPECT_EQ(graph.FindEdge(0, 1), kInvalidEdge);
  // Later edges shifted down one id; the old last edge is now id 4.
  const UncertainEdge& shifted = graph.edge(4);
  EXPECT_EQ(shifted.u, last_before.u);
  EXPECT_EQ(shifted.v, last_before.v);
}

TEST(ApplyUpdatesTest, ReweightIsPositional) {
  UncertainGraph graph = CompleteK4(0.5);
  ASSERT_TRUE(
      graph.ApplyUpdates({{{EdgeUpdateOp::kReweight, 2, 1, 0.875}}}).ok());
  EXPECT_EQ(graph.num_edges(), 6u);
  EXPECT_EQ(graph.probability(graph.FindEdge(1, 2)), 0.875);
}

TEST(ApplyUpdatesTest, BatchSeesItsOwnEarlierUpdates) {
  UncertainGraph graph = PathGraph(4, 0.5);
  // Insert then reweight the same edge in one batch: the reweight must
  // see the insert (updates apply in order).
  ASSERT_TRUE(graph
                  .ApplyUpdates({{{EdgeUpdateOp::kInsert, 0, 3, 0.5},
                                  {EdgeUpdateOp::kReweight, 0, 3, 0.125}}})
                  .ok());
  EXPECT_EQ(graph.probability(graph.FindEdge(0, 3)), 0.125);
}

TEST(ApplyUpdatesTest, MutatedGraphMatchesFromEdgesExactly) {
  // The commit path rebuilds from the staged edge list, so the mutated
  // graph's arrays must equal FromEdges on the equivalent list.
  UncertainGraph mutated = CompleteK4(0.5);
  ASSERT_TRUE(mutated
                  .ApplyUpdates({{{EdgeUpdateOp::kDelete, 1, 2, 0.0},
                                  {EdgeUpdateOp::kReweight, 0, 3, 0.9},
                                  {EdgeUpdateOp::kInsert, 1, 2, 0.1}}})
                  .ok());
  std::vector<UncertainEdge> expected_edges = {
      {0, 1, 0.5}, {0, 2, 0.5}, {0, 3, 0.9},
      {1, 3, 0.5}, {2, 3, 0.5}, {1, 2, 0.1}};
  UncertainGraph expected = UncertainGraph::FromEdges(4, expected_edges);
  ASSERT_EQ(mutated.num_edges(), expected.num_edges());
  for (EdgeId e = 0; e < mutated.num_edges(); ++e) {
    EXPECT_EQ(mutated.edge(e).u, expected.edge(e).u) << "edge " << e;
    EXPECT_EQ(mutated.edge(e).v, expected.edge(e).v) << "edge " << e;
    EXPECT_EQ(mutated.edge(e).p, expected.edge(e).p) << "edge " << e;
  }
  for (VertexId u = 0; u < mutated.num_vertices(); ++u) {
    EXPECT_EQ(mutated.Degree(u), expected.Degree(u)) << "vertex " << u;
    EXPECT_EQ(mutated.ExpectedDegree(u), expected.ExpectedDegree(u));
  }
}

TEST(WithUpdatesTest, LeavesThePredecessorAndMatchesApplyUpdates) {
  const UncertainGraph predecessor = CompleteK4(0.5);
  const UncertainGraph pristine = predecessor;
  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kDelete, 1, 2, 0.0},
      {EdgeUpdateOp::kReweight, 0, 3, 0.9},
      {EdgeUpdateOp::kInsert, 1, 2, 0.1}};
  Result<UncertainGraph> successor = predecessor.WithUpdates(batch);
  ASSERT_TRUE(successor.ok()) << successor.status().ToString();
  EXPECT_TRUE(SameGraphBytes(predecessor, pristine));
  UncertainGraph applied = pristine;
  ASSERT_TRUE(applied.ApplyUpdates(batch).ok());
  EXPECT_TRUE(SameGraphBytes(*successor, applied));
  // A failing batch names its update and leaves the predecessor as well.
  Result<UncertainGraph> failed =
      predecessor.WithUpdates({{{EdgeUpdateOp::kInsert, 0, 1, 0.5}}});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "update[0]: edge (0,1) already exists");
  EXPECT_TRUE(SameGraphBytes(predecessor, pristine));
}

// --- Atomicity and typed failures. ---

TEST(ApplyUpdatesTest, EveryInvalidUpdateFailsTypedAndAtomically) {
  const UncertainGraph pristine = CompleteK4(0.5);
  const struct {
    const char* label;
    EdgeUpdate bad;
  } cases[] = {
      {"duplicate insert", {EdgeUpdateOp::kInsert, 0, 1, 0.5}},
      {"self loop", {EdgeUpdateOp::kInsert, 2, 2, 0.5}},
      {"endpoint out of range", {EdgeUpdateOp::kInsert, 0, 4, 0.5}},
      {"p zero", {EdgeUpdateOp::kInsert, 0, 1, 0.0}},
      {"p over one", {EdgeUpdateOp::kInsert, 0, 1, 1.5}},
      {"delete self loop", {EdgeUpdateOp::kDelete, 0, 0, 0.0}},
      {"reweight missing edge", {EdgeUpdateOp::kReweight, 9, 1, 0.5}},
      {"reweight bad p", {EdgeUpdateOp::kReweight, 0, 1, -0.5}},
  };
  for (const auto& test_case : cases) {
    UncertainGraph graph = pristine;
    // A valid leading update must not survive the failing one.
    const std::vector<EdgeUpdate> batch = {
        {EdgeUpdateOp::kReweight, 0, 1, 0.75}, test_case.bad};
    Status failed = graph.ApplyUpdates(batch);
    ASSERT_FALSE(failed.ok()) << test_case.label;
    EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument) << test_case.label;
    EXPECT_NE(failed.message().find("update[1]"), std::string::npos)
        << test_case.label << ": " << failed.message();
    EXPECT_EQ(graph.probability(graph.FindEdge(0, 1)), 0.5)
        << test_case.label << ": failed batch mutated the graph";
    EXPECT_EQ(graph.num_edges(), pristine.num_edges()) << test_case.label;
  }
}

TEST(ApplyUpdatesTest, DeletingAnAbsentPairFailsTypedAndAtomically) {
  const UncertainGraph pristine = PathGraph(4, 0.5);  // 0-1-2-3.
  const struct {
    const char* label;
    std::vector<EdgeUpdate> batch;
    const char* names;  // The failing index, as the message names it.
  } cases[] = {
      {"delete absent pair",
       {{EdgeUpdateOp::kReweight, 0, 1, 0.75},
        {EdgeUpdateOp::kDelete, 3, 0, 0.0}},
       "update[1]"},
      {"delete one pair twice",
       {{EdgeUpdateOp::kReweight, 0, 1, 0.75},
        {EdgeUpdateOp::kDelete, 1, 2, 0.0},
        {EdgeUpdateOp::kDelete, 2, 1, 0.0}},
       "update[2]"},
      {"delete an inserted pair twice",
       {{EdgeUpdateOp::kInsert, 0, 3, 0.25},
        {EdgeUpdateOp::kDelete, 0, 3, 0.0},
        {EdgeUpdateOp::kDelete, 3, 0, 0.0}},
       "update[2]"},
  };
  for (const auto& test_case : cases) {
    UncertainGraph graph = pristine;
    Status failed = graph.ApplyUpdates(test_case.batch);
    ASSERT_FALSE(failed.ok()) << test_case.label;
    EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument) << test_case.label;
    EXPECT_NE(failed.message().find(test_case.names), std::string::npos)
        << test_case.label << ": " << failed.message();
    EXPECT_NE(failed.message().find("does not exist"), std::string::npos)
        << test_case.label << ": " << failed.message();
    EXPECT_TRUE(SameGraphBytes(graph, pristine))
        << test_case.label << ": failed batch mutated the graph";
  }
}

TEST(ApplyUpdatesTest, MutatingAMappedViewMaterializesIt) {
  const std::string path = ::testing::TempDir() + "/update_view.ugsc";
  ASSERT_TRUE(WriteCsrGraph(CompleteK4(0.5), path).ok());
  Result<MappedGraph> mapped = MappedGraph::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  UncertainGraph graph = std::move(*mapped).TakeGraph();
  ASSERT_TRUE(graph.is_view());
  ASSERT_TRUE(
      graph.ApplyUpdates({{{EdgeUpdateOp::kReweight, 0, 1, 0.25}}}).ok());
  EXPECT_FALSE(graph.is_view());  // Copy-on-mutate: owned storage now.
  EXPECT_EQ(graph.probability(graph.FindEdge(0, 1)), 0.25);
}

// --- The version-equivalence oracle. ---

/// A covering query battery, all valid on graphs with >= 4 vertices.
std::vector<QueryRequest> OracleRequests() {
  std::vector<QueryRequest> requests;
  QueryRequest reliability;
  reliability.query = "reliability";
  reliability.pairs = {{0, 3}};
  reliability.num_samples = 32;
  reliability.seed = 3;
  requests.push_back(reliability);

  QueryRequest skip = reliability;
  skip.estimator = Estimator::kSkipSampler;
  skip.seed = 4;
  requests.push_back(skip);

  QueryRequest sp;
  sp.query = "shortest-path";
  sp.pairs = {{0, 2}, {1, 3}};
  sp.num_samples = 32;
  sp.seed = 6;
  requests.push_back(sp);

  QueryRequest pagerank;
  pagerank.query = "pagerank";
  pagerank.num_samples = 16;
  pagerank.seed = 7;
  requests.push_back(pagerank);

  QueryRequest knn;
  knn.query = "knn";
  knn.sources = {0, 2};
  knn.k = 3;
  requests.push_back(knn);

  QueryRequest mpp;
  mpp.query = "most-probable-path";
  mpp.pairs = {{0, 3}};
  requests.push_back(mpp);
  return requests;
}

/// Applies one update to the model edge list the same way ApplyUpdates
/// documents: insert appends, delete closes the gap, reweight is
/// positional.
void ApplyToModel(const EdgeUpdate& update,
                  std::vector<UncertainEdge>* edges) {
  const auto same_edge = [&update](const UncertainEdge& e) {
    return (e.u == update.u && e.v == update.v) ||
           (e.u == update.v && e.v == update.u);
  };
  switch (update.op) {
    case EdgeUpdateOp::kInsert:
      edges->push_back({update.u, update.v, update.p});
      return;
    case EdgeUpdateOp::kDelete:
      for (std::size_t i = 0; i < edges->size(); ++i) {
        if (same_edge((*edges)[i])) {
          edges->erase(edges->begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
      }
      FAIL() << "model delete missed";
    case EdgeUpdateOp::kReweight:
      for (UncertainEdge& e : *edges) {
        if (same_edge(e)) {
          e.p = update.p;
          return;
        }
      }
      FAIL() << "model reweight missed";
  }
}

bool ModelHas(const std::vector<UncertainEdge>& edges, VertexId u,
              VertexId v) {
  for (const UncertainEdge& e : edges) {
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) return true;
  }
  return false;
}

/// Every pair of distinct vertices below n that `edges` lacks.
std::vector<std::pair<VertexId, VertexId>> AbsentPairs(
    const std::vector<UncertainEdge>& edges, VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> absent;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!ModelHas(edges, u, v)) absent.emplace_back(u, v);
    }
  }
  return absent;
}

TEST(ApplyUpdatesPropertyTest, RandomMixedBatchesMatchTheNaiveModel) {
  // Chains random batches of up to 64 updates on one small graph and
  // checks each against the documented sequential semantics replayed on
  // a plain edge vector (ApplyToModel) plus FromEdges, byte for byte.
  // The draws force the cases a resolve-and-compact pass can get wrong:
  // a pair inserted then deleted in one batch, a deleted pair reinserted,
  // reweights of pairs the batch inserted, and, in a quarter of the
  // batches, one invalid update mid-batch, which must fail naming its
  // index and leave the graph byte-identical.
  constexpr VertexId kVertices = 8;
  constexpr int kBatches = 400;
  constexpr std::size_t kMaxBatch = 64;
  std::mt19937_64 rng(20261019);
  const auto draw = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  const auto random_p = [&rng] {
    return std::uniform_real_distribution<double>(0.05, 1.0)(rng);
  };
  std::vector<UncertainEdge> model;
  for (VertexId u = 0; u < kVertices; ++u) {
    for (VertexId v = u + 1; v < kVertices; ++v) {
      if (draw(2) == 0) model.push_back({u, v, random_p()});
    }
  }
  UncertainGraph graph = UncertainGraph::FromEdges(kVertices, model);

  // An update that is invalid against `staged`, chosen among every
  // check ApplyUpdates makes.
  const auto invalid = [&](const std::vector<UncertainEdge>& staged) {
    const auto absent = AbsentPairs(staged, kVertices);
    const double bad_ps[] = {0.0, -0.5, 1.5, std::nan("")};
    for (;;) {
      const std::size_t kind = draw(7);
      if (kind == 0) {
        return EdgeUpdate{EdgeUpdateOp::kInsert, 3, 3, 0.5};
      }
      if (kind == 1) {
        return EdgeUpdate{EdgeUpdateOp::kDelete, 1,
                          static_cast<VertexId>(kVertices + draw(3)), 0.0};
      }
      if (kind == 2) {
        return EdgeUpdate{static_cast<EdgeUpdateOp>(9), 0, 1, 0.5};
      }
      if (kind <= 4 && !staged.empty()) {
        const UncertainEdge& e = staged[draw(staged.size())];
        return kind == 3
                   ? EdgeUpdate{EdgeUpdateOp::kInsert, e.v, e.u, 0.5}
                   : EdgeUpdate{EdgeUpdateOp::kReweight, e.u, e.v,
                                bad_ps[draw(4)]};
      }
      if (kind >= 5 && !absent.empty()) {
        const auto [u, v] = absent[draw(absent.size())];
        return kind == 5 ? EdgeUpdate{EdgeUpdateOp::kDelete, v, u, 0.0}
                         : EdgeUpdate{EdgeUpdateOp::kReweight, u, v, 0.5};
      }
    }
  };

  int inserted_then_deleted = 0, deleted_then_reinserted = 0;
  int inserted_then_reweighted = 0, failed_batches = 0;
  for (int batch_index = 0; batch_index < kBatches; ++batch_index) {
    std::vector<UncertainEdge> staged = model;
    std::vector<EdgeUpdate> batch;
    const std::size_t size = 1 + draw(kMaxBatch);
    const std::size_t bad_at = draw(4) == 0 ? draw(size) : size;
    std::optional<EdgeUpdate> follow;  // Pushed at the next valid slot.
    int follows[3] = {0, 0, 0};
    while (batch.size() < size) {
      if (batch.size() == bad_at) {
        batch.push_back(invalid(staged));
        continue;
      }
      EdgeUpdate update;
      const auto absent = AbsentPairs(staged, kVertices);
      const std::size_t kind = draw(3);
      if (follow) {
        update = *follow;
        follow.reset();
      } else if ((kind == 0 || staged.empty()) && !absent.empty()) {
        const auto [u, v] = absent[draw(absent.size())];
        update = {EdgeUpdateOp::kInsert, u, v, random_p()};
        const std::size_t next = draw(3);
        if (next < 2) {
          follow = EdgeUpdate{
              next == 0 ? EdgeUpdateOp::kDelete : EdgeUpdateOp::kReweight,
              v, u, random_p()};
          ++follows[next];
        }
      } else {
        const UncertainEdge e = staged[draw(staged.size())];
        if (kind == 1) {
          update = {EdgeUpdateOp::kDelete, e.u, e.v, 0.0};
          if (draw(2) == 0) {
            follow = EdgeUpdate{EdgeUpdateOp::kInsert, e.v, e.u, random_p()};
            ++follows[2];
          }
        } else {
          update = {EdgeUpdateOp::kReweight, e.v, e.u, random_p()};
        }
      }
      batch.push_back(update);
      ApplyToModel(update, &staged);
    }

    const UncertainGraph before = graph;
    const Status status = graph.ApplyUpdates(batch);
    if (bad_at < size) {
      ++failed_batches;
      ASSERT_FALSE(status.ok()) << "batch " << batch_index;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      const std::string names = "update[" + std::to_string(bad_at) + "]";
      EXPECT_NE(status.message().find(names), std::string::npos)
          << "batch " << batch_index << ": " << status.message();
      ASSERT_TRUE(SameGraphBytes(graph, before))
          << "batch " << batch_index << ": failed batch mutated the graph";
      continue;
    }
    ASSERT_TRUE(status.ok()) << "batch " << batch_index << ": "
                             << status.ToString();
    model = std::move(staged);
    ASSERT_TRUE(SameGraphBytes(
        graph, UncertainGraph::FromEdges(kVertices, model)))
        << "batch " << batch_index;
    inserted_then_deleted += follows[0];
    inserted_then_reweighted += follows[1];
    deleted_then_reinserted += follows[2];
  }
  // The draws reached every case the test is for.
  EXPECT_GT(inserted_then_deleted, 0);
  EXPECT_GT(inserted_then_reweighted, 0);
  EXPECT_GT(deleted_then_reinserted, 0);
  EXPECT_GT(failed_batches, 0);
}

TEST(VersionEquivalenceTest, RandomMutationSequenceMatchesFreshLoad) {
  // The property: after ANY sequence of update batches, every query on
  // the chained WithUpdates session is bit-identical to the same query
  // on a session freshly constructed from the equivalent edge list --
  // at 1, 2, and 8 engine threads (results are pure functions of
  // (graph, request), so thread count must not matter either).
  constexpr std::size_t kVertices = 10;
  constexpr int kBatches = 8;
  std::vector<UncertainEdge> model;
  for (VertexId i = 0; i + 1 < kVertices; ++i) {
    model.push_back({i, static_cast<VertexId>(i + 1), 0.4});
  }
  GraphSessionOptions base;
  auto session = std::make_unique<GraphSession>(
      UncertainGraph::FromEdges(kVertices, model), base);

  std::mt19937_64 rng(20260807);
  const auto random_p = [&rng] {
    return std::uniform_real_distribution<double>(0.05, 1.0)(rng);
  };
  for (int batch_index = 0; batch_index < kBatches; ++batch_index) {
    // Draw a batch of 1-3 random valid mutations against the model.
    std::vector<EdgeUpdate> batch;
    const std::size_t batch_size = 1 + rng() % 3;
    std::vector<UncertainEdge> staged = model;
    while (batch.size() < batch_size) {
      EdgeUpdate update;
      const int kind = static_cast<int>(rng() % 3);
      if (kind == 0) {
        // Insert a random absent edge.
        update.op = EdgeUpdateOp::kInsert;
        update.u = static_cast<VertexId>(rng() % kVertices);
        update.v = static_cast<VertexId>(rng() % kVertices);
        update.p = random_p();
        if (update.u == update.v) continue;
        bool exists = false;
        for (const UncertainEdge& e : staged) {
          if ((e.u == update.u && e.v == update.v) ||
              (e.u == update.v && e.v == update.u)) {
            exists = true;
          }
        }
        if (exists) continue;
      } else if (staged.empty()) {
        continue;
      } else {
        const UncertainEdge& victim = staged[rng() % staged.size()];
        update.op =
            kind == 1 ? EdgeUpdateOp::kDelete : EdgeUpdateOp::kReweight;
        update.u = victim.u;
        update.v = victim.v;
        update.p = kind == 1 ? 0.0 : random_p();
        if (kind == 1 && staged.size() <= 2) continue;  // Keep some edges.
      }
      batch.push_back(update);
      ApplyToModel(update, &staged);
    }
    model = std::move(staged);

    Result<std::unique_ptr<GraphSession>> next =
        session->WithUpdates(batch, session->version() + 1);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    session = std::move(*next);
    ASSERT_EQ(session->version(),
              static_cast<std::uint64_t>(batch_index) + 2);

    for (int threads : {1, 2, 8}) {
      GraphSessionOptions options = base;
      options.engine.num_threads = threads;
      GraphSession fresh(UncertainGraph::FromEdges(kVertices, model),
                         options);
      for (const QueryRequest& request : OracleRequests()) {
        Result<QueryResult> mutated = session->Run(request);
        Result<QueryResult> oracle = fresh.Run(request);
        ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        // PayloadEquals exempts the graph-version stamp by design: the
        // oracle session is version 1, the mutated chain is not, and
        // the payloads must still be bit-identical.
        EXPECT_TRUE(PayloadEquals(*mutated, *oracle))
            << "batch " << batch_index << " threads " << threads
            << " query " << request.query;
        EXPECT_EQ(mutated->graph_version, session->version());
        EXPECT_EQ(oracle->graph_version, 1u);
      }
    }
  }
}

TEST(VersionEquivalenceTest, MappedGraphSessionSurvivesUpdates) {
  // The registry's reopen-and-replay path mutates sessions opened from
  // .ugsc views; WithUpdates on a view session must behave exactly like
  // the heap-backed path.
  const std::string path = ::testing::TempDir() + "/update_session.ugsc";
  ASSERT_TRUE(WriteCsrGraph(CompleteK4(0.5), path).ok());
  Result<std::unique_ptr<GraphSession>> opened = GraphSession::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE((*opened)->graph().is_view());

  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kReweight, 0, 1, 0.9},
      {EdgeUpdateOp::kDelete, 2, 3, 0.0}};
  Result<std::unique_ptr<GraphSession>> mutated =
      (*opened)->WithUpdates(batch, 2);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_FALSE((*mutated)->graph().is_view());
  EXPECT_TRUE((*opened)->graph().is_view());  // Predecessor untouched.
  EXPECT_EQ((*mutated)->version(), 2u);

  std::vector<UncertainEdge> expected = {{0, 1, 0.9}, {0, 2, 0.5},
                                         {0, 3, 0.5}, {1, 2, 0.5},
                                         {1, 3, 0.5}};
  GraphSession oracle(UncertainGraph::FromEdges(4, expected));
  for (const QueryRequest& request : OracleRequests()) {
    Result<QueryResult> a = (*mutated)->Run(request);
    Result<QueryResult> b = oracle.Run(request);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(PayloadEquals(*a, *b)) << request.query;
  }
}

}  // namespace
}  // namespace ugs
