#include "shortcuts/partwise_aggregation.hpp"

#include "graph/algorithms.hpp"
#include "shortcuts/part_csr.hpp"

namespace dls {

namespace {

/// BFS tree of the part-plus-shortcut subgraph, as host edge ids. The loader
/// lists each node's neighbours in ascending edge-id order, so the tree (and
/// every downstream round count) is the one a BFS over the canonical
/// subgraph builds.
AggregationTree build_part_tree(const Graph& g, const std::vector<NodeId>& part,
                                const std::vector<EdgeId>& h_edges,
                                const std::vector<double>& values) {
  DLS_REQUIRE(!part.empty(),
              "empty part in PartCollection: every part needs at least one "
              "member to root its aggregation tree");
  DLS_REQUIRE(part.size() == values.size(), "values size mismatch");
  PartScratch& sc = part_scratch();
  const std::uint32_t k = load_part_subgraph(sc, g, part, h_edges);

  AggregationTree tree;
  tree.root = part.front();
  // The root, part.front(), has local id 0.
  sc.dist.assign(k, PartScratch::kUnreached);
  sc.queue.assign(1, 0);
  sc.dist[0] = 0;
  for (std::size_t head = 0; head < sc.queue.size(); ++head) {
    const std::uint32_t x = sc.queue[head];
    for (std::uint32_t i = sc.offset[x]; i < sc.offset[x + 1]; ++i) {
      const auto [nbr, e] = sc.csr[i];
      if (sc.dist[nbr] != PartScratch::kUnreached) continue;
      sc.dist[nbr] = sc.dist[x] + 1;
      tree.edges.push_back(e);
      sc.queue.push_back(nbr);
    }
  }
  DLS_REQUIRE(sc.queue.size() == k,
              "part + shortcut subgraph is disconnected");
  tree.inputs.reserve(part.size());
  for (std::size_t j = 0; j < part.size(); ++j) {
    tree.inputs.push_back({part[j], values[j]});
  }
  return tree;
}

}  // namespace

PartwiseAggregationOutcome solve_partwise_aggregation(
    const Graph& g, const PartCollection& pc,
    const std::vector<std::vector<double>>& values,
    const AggregationMonoid& monoid, const Shortcut& shortcut, Rng& rng,
    SchedulingPolicy policy, FaultPlan* faults) {
  DLS_REQUIRE(values.size() == pc.num_parts(), "values per part mismatch");
  DLS_REQUIRE(shortcut.h_edges.size() == pc.num_parts(),
              "shortcut per part mismatch");
  std::vector<AggregationTree> trees;
  trees.reserve(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    trees.push_back(
        build_part_tree(g, pc.parts[i], shortcut.h_edges[i], values[i]));
  }
  PartwiseAggregationOutcome outcome;
  outcome.schedule =
      run_tree_aggregations(g, trees, monoid, rng, policy, faults);
  outcome.results = outcome.schedule.results;
  return outcome;
}

PartwiseAggregationOutcome solve_partwise_aggregation_auto(
    const Graph& g, const PartCollection& pc,
    const std::vector<std::vector<double>>& values,
    const AggregationMonoid& monoid, Rng& rng, SchedulingPolicy policy) {
  const BestShortcut best = build_best_shortcut(g, pc, rng);
  return solve_partwise_aggregation(g, pc, values, monoid, best.shortcut, rng,
                                    policy);
}

}  // namespace dls
