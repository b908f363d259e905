#ifndef UGS_QUERY_RELIABILITY_H_
#define UGS_QUERY_RELIABILITY_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "util/random.h"
#include "util/union_find.h"

namespace ugs {

/// The engine-taking kernels the registry dispatches to (query/query.h).

/// Connected components of one world: resets `uf` (sized |V|) and unions
/// the endpoints of every present edge, in ascending edge id. The one
/// connectivity kernel behind reliability, connectivity and their exact
/// and stratified oracles.
void ConnectOnWorld(const PossibleWorld& world, UnionFind* uf);

/// Monte-Carlo reliability (query (iii) of Section 6.3): for each pair,
/// each sample is the 0/1 indicator that t is reachable from s in the
/// world; its mean over samples estimates Pr[s ~ t]. Unit = pair.
/// Worlds are dispatched through `engine` (deterministic at any thread
/// count).
McSamples McReliability(const UncertainGraph& graph,
                        const std::vector<VertexPair>& pairs,
                        int num_samples, Rng* rng,
                        const SampleEngine& engine);

/// Monte-Carlo estimate of Pr[world is a single connected component]
/// (the running example of Figure 1).
double EstimateConnectivity(const UncertainGraph& graph, int num_samples,
                            Rng* rng, const SampleEngine& engine);

}  // namespace ugs

#endif  // UGS_QUERY_RELIABILITY_H_
