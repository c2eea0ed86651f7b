#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "shortcuts/construction.hpp"
#include "shortcuts/partwise_aggregation.hpp"
#include "shortcuts/shortcut.hpp"

namespace dls {
namespace {

TEST(Shortcut, TrivialShortcutQualityEqualsPartDiameters) {
  const Graph g = make_grid(4, 4);
  const PartCollection pc = grid_row_partition(4, 4);
  const Shortcut s = trivial_shortcut(pc);
  const ShortcutQuality q = measure_shortcut(g, pc, s);
  EXPECT_EQ(q.congestion, 0u);
  EXPECT_EQ(q.dilation, 3u);  // row of 4 nodes
  EXPECT_EQ(q.quality(), 3u);
}

TEST(Shortcut, MeasureRejectsWrongArity) {
  const Graph g = make_grid(2, 2);
  const PartCollection pc = grid_row_partition(2, 2);
  Shortcut s;
  s.h_edges.resize(1);
  EXPECT_THROW(measure_shortcut(g, pc, s), std::invalid_argument);
}

TEST(Shortcut, MeasureThrowsOnDisconnectedPartPlusShortcut) {
  const Graph g = make_path(5);
  PartCollection pc;
  pc.parts = {{0, 4}};  // disconnected without help
  Shortcut s = trivial_shortcut(pc);
  EXPECT_THROW(measure_shortcut(g, pc, s), std::invalid_argument);
}

TEST(Shortcut, PartSubgraphContainsInducedAndHelperEdges) {
  const Graph g = make_cycle(6);
  const std::vector<NodeId> part{0, 1};
  const std::vector<EdgeId> helper{2};  // edge (2,3)
  const PartSubgraph sub = part_subgraph(g, part, helper);
  EXPECT_EQ(sub.nodes.size(), 4u);  // {0,1} + {2,3}
  std::set<EdgeId> edges(sub.edges.begin(), sub.edges.end());
  EXPECT_TRUE(edges.count(0));  // induced (0,1)
  EXPECT_TRUE(edges.count(2));  // helper
}

TEST(PartwiseAggregation, RejectsEmptyPart) {
  // Regression: an empty part used to reach part.front() on an empty vector
  // (undefined behaviour) before any validation fired.
  const Graph g = make_path(4);
  PartCollection pc;
  pc.parts = {{0, 1}, {}};
  const std::vector<std::vector<double>> values = {{1.0, 2.0}, {}};
  Shortcut s;
  s.h_edges.resize(pc.num_parts());
  Rng rng(17);
  EXPECT_THROW(solve_partwise_aggregation(g, pc, values,
                                          AggregationMonoid::sum(), s, rng),
               std::invalid_argument);
}

TEST(Construction, RootSpanningTreeComputesDepths) {
  const Graph g = make_path(5);
  std::vector<EdgeId> edges{0, 1, 2, 3};
  const RootedSpanningTree t = root_spanning_tree(g, edges, 2);
  EXPECT_EQ(t.depth[2], 0u);
  EXPECT_EQ(t.depth[0], 2u);
  EXPECT_EQ(t.depth[4], 2u);
  EXPECT_EQ(t.parent[0], 1u);
  EXPECT_EQ(t.parent[2], 2u);
}

TEST(Construction, CenteredBfsTreeSpansAndCenters) {
  Rng rng(1);
  const Graph g = make_path(21);
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  // Center of a path is its midpoint: depth <= ceil(D/2).
  std::uint32_t max_depth = 0;
  for (std::uint32_t d : t.depth) max_depth = std::max(max_depth, d);
  EXPECT_LE(max_depth, 11u);
  EXPECT_EQ(t.root, 10u);
}

TEST(Construction, TreeRestrictedIsExactSteinerTreeOnPath) {
  Rng rng(2);
  const Graph g = make_path(10);
  PartCollection pc;
  pc.parts = {{2, 6}};  // connected only via helper edges
  // Parts must induce connected subgraphs per Definition 13; use a part that
  // is a pair of adjacent nodes far from the root instead.
  pc.parts = {{2, 3}, {7, 8}};
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  const Shortcut s = tree_restricted_shortcut(pc, t);
  // The Steiner tree of an adjacent pair is just that edge (or nothing
  // extra): the helper never needs more than the members' span.
  const ShortcutQuality q = measure_shortcut(g, pc, s);
  EXPECT_LE(q.dilation, 1u);
  EXPECT_LE(q.congestion, 1u);
}

TEST(Construction, TreeRestrictedConnectsScatteredPart) {
  Rng rng(3);
  const Graph g = make_grid(5, 5);
  PartCollection pc;
  // A row as a part: its Steiner tree in the BFS tree connects it.
  pc.parts = {{0, 1, 2, 3, 4}};
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  const Shortcut s = tree_restricted_shortcut(pc, t);
  const ShortcutQuality q = measure_shortcut(g, pc, s);  // throws if broken
  EXPECT_GT(q.quality(), 0u);
}

TEST(Construction, SteinerTreePrunedToMembers) {
  Rng rng(4);
  // Star: Steiner tree of two leaves = 2 edges through the hub, never more.
  const Graph g = make_star(8);
  PartCollection pc;
  pc.parts = {{1, 0, 2}};  // connected: leaf-hub-leaf
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  const Shortcut s = tree_restricted_shortcut(pc, t);
  EXPECT_LE(s.h_edges[0].size(), 2u);
}

TEST(Construction, BestShortcutNeverWorseThanTrivial) {
  Rng rng(5);
  const Graph g = make_grid(6, 6);
  const PartCollection pc = grid_row_partition(6, 6);
  const BestShortcut best = build_best_shortcut(g, pc, rng);
  const ShortcutQuality trivial_q = measure_shortcut(g, pc, trivial_shortcut(pc));
  EXPECT_LE(best.quality.quality(), trivial_q.quality());
}

TEST(Construction, TreeChopPartitionValidAndSized) {
  Rng rng(6);
  const Graph g = make_grid(7, 7);
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  const PartCollection pc = tree_chop_partition(g, t, 7);
  EXPECT_TRUE(is_valid_part_collection(g, pc, true));
  std::size_t covered = 0;
  for (const auto& part : pc.parts) covered += part.size();
  EXPECT_EQ(covered, g.num_nodes());
}

TEST(PartwiseAggregation, ResultsMatchSequentialOnGridRows) {
  Rng rng(7);
  const Graph g = make_grid(5, 5);
  const PartCollection pc = grid_row_partition(5, 5);
  std::vector<std::vector<double>> values(pc.num_parts());
  std::vector<double> expected(pc.num_parts(), 0.0);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    for (std::size_t j = 0; j < pc.parts[i].size(); ++j) {
      const double v = rng.next_double();
      values[i].push_back(v);
      expected[i] += v;
    }
  }
  const auto outcome = solve_partwise_aggregation_auto(
      g, pc, values, AggregationMonoid::sum(), rng);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    EXPECT_NEAR(outcome.results[i], expected[i], 1e-9);
  }
}

TEST(PartwiseAggregation, ShortcutBeatsTrivialOnSpreadParts) {
  // Column-pair parts on a tall thin grid: trivial dilation is the column
  // height; a tree-restricted shortcut through the center can only help.
  Rng rng(8);
  const Graph g = make_grid(12, 4);
  const PartCollection pc = grid_row_partition(12, 4);
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 1.0);
  }
  const auto trivial_outcome = solve_partwise_aggregation(
      g, pc, values, AggregationMonoid::sum(), trivial_shortcut(pc), rng);
  const auto auto_outcome = solve_partwise_aggregation_auto(
      g, pc, values, AggregationMonoid::sum(), rng);
  EXPECT_LE(auto_outcome.schedule.total_rounds,
            trivial_outcome.schedule.total_rounds * 2);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    EXPECT_DOUBLE_EQ(auto_outcome.results[i], 4.0);
  }
}

class PaFamilySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PaFamilySweep, VoronoiAggregationCorrectEverywhere) {
  const auto [family, seed] = GetParam();
  Rng rng(seed * 97 + 13);
  Graph g;
  switch (family) {
    case 0: g = make_grid(6, 6); break;
    case 1: g = make_random_regular(36, 4, rng); break;
    case 2: g = make_balanced_binary_tree(31); break;
    default: g = make_torus(6, 6); break;
  }
  const PartCollection pc = random_voronoi_partition(g, 6, rng);
  std::vector<std::vector<double>> values(pc.num_parts());
  std::vector<double> expected(pc.num_parts(),
                               -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    for (std::size_t j = 0; j < pc.parts[i].size(); ++j) {
      const double v = rng.next_double();
      values[i].push_back(v);
      expected[i] = std::max(expected[i], v);
    }
  }
  const auto outcome = solve_partwise_aggregation_auto(
      g, pc, values, AggregationMonoid::max(), rng);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    EXPECT_DOUBLE_EQ(outcome.results[i], expected[i]);
  }
  // Proposition 6 sanity: rounds are bounded by a small multiple of c + d.
  const BestShortcut best = build_best_shortcut(g, pc, rng);
  EXPECT_LE(outcome.schedule.total_rounds,
            8 * (best.quality.quality() + 2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PaFamilySweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace dls
