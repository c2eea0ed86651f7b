#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace dls {
namespace {

TEST(Graph, AddAndQueryEdges) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  EXPECT_EQ(g.edge(e).other(0), 1u);
  EXPECT_EQ(g.edge(e).other(1), 0u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 2.5);
}

TEST(Graph, RejectsSelfLoopsAndBadWeights) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::invalid_argument);
}

TEST(Graph, ParallelEdgesSupported) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 3.0);
}

TEST(Graph, InducedSubgraph) {
  Graph g = make_cycle(6);
  const std::vector<NodeId> nodes{0, 1, 2};
  const InducedSubgraph sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // path 0-1-2
  EXPECT_EQ(sub.to_original[sub.to_local[2]], 2u);
}

struct GeneratorCase {
  std::string name;
  std::size_t expected_nodes;
  std::size_t expected_edges;
  Graph graph;
};

class GeneratorTest : public ::testing::TestWithParam<int> {};

TEST(Generators, PathProperties) {
  const Graph g = make_path(10);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(exact_diameter(g), 9u);
}

TEST(Generators, CycleProperties) {
  const Graph g = make_cycle(10);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(exact_diameter(g), 5u);
}

TEST(Generators, GridProperties) {
  const Graph g = make_grid(5, 7);
  EXPECT_EQ(g.num_nodes(), 35u);
  EXPECT_EQ(g.num_edges(), 5u * 6 + 4u * 7);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(exact_diameter(g), 4u + 6u);
}

TEST(Generators, TorusIsRegular) {
  const Graph g = make_torus(4, 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, BalancedTreeConnectedAcyclic) {
  const Graph g = make_balanced_binary_tree(31);
  EXPECT_EQ(g.num_edges(), 30u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(3);
  const Graph g = make_random_tree(64, rng);
  EXPECT_EQ(g.num_edges(), 63u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, KTreeConnected) {
  Rng rng(5);
  const Graph g = make_k_tree(40, 3, rng);
  EXPECT_TRUE(is_connected(g));
  // Every node beyond the base clique has degree >= k.
  for (NodeId v = 4; v < g.num_nodes(); ++v) EXPECT_GE(g.degree(v), 3u);
}

TEST(Generators, RandomRegularDegrees) {
  Rng rng(7);
  const Graph g = make_random_regular(50, 4, rng);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  Rng rng(7);
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);
}

TEST(Generators, HypercubeStructure) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);
  EXPECT_EQ(exact_diameter(g), 4u);
}

TEST(Generators, BarbellHasBridge) {
  const Graph g = make_barbell(10);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 2u * (5 * 4 / 2) + 1);
}

TEST(Generators, LowerBoundDumbbellSmallDiameter) {
  const Graph g = make_lower_bound_dumbbell(16);
  EXPECT_TRUE(is_connected(g));
  Rng rng(1);
  // D = O(log side): paths reach the tree leaves directly.
  EXPECT_LE(approx_diameter(g, rng), 2u * 5 + 4);
}

TEST(Generators, WeightedGridWeightsInRange) {
  Rng rng(9);
  const Graph g = make_weighted_grid(6, 6, rng, 2.0, 8.0);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 2.0);
    EXPECT_LE(e.weight, 8.0);
  }
}

TEST(PreferentialAttachment, StructureAndConnectivity) {
  Rng rng(2);
  const Graph g = make_preferential_attachment(200, 3, rng);
  EXPECT_EQ(g.num_nodes(), 200u);
  EXPECT_TRUE(is_connected(g));
  // Seed K4 (6 edges) plus m = 3 edges per each of the remaining nodes.
  EXPECT_EQ(g.num_edges(), 6u + (200 - 4) * 3);
}

TEST(PreferentialAttachment, SmallDiameter) {
  Rng rng(3);
  const Graph g = make_preferential_attachment(400, 3, rng);
  EXPECT_LE(exact_diameter(g), 8u);  // "social network" folklore: D = O(log n)
}

TEST(PreferentialAttachment, HubsEmerge) {
  Rng rng(4);
  const Graph g = make_preferential_attachment(300, 2, rng);
  std::size_t max_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.degree(v));
  }
  EXPECT_GE(max_deg, 12u);  // heavy-tailed degree distribution
}

TEST(Bfs, DistancesOnGrid) {
  const Graph g = make_grid(4, 4);
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.dist[15], 6u);  // (3,3) from (0,0)
  EXPECT_EQ(r.dist[0], 0u);
  EXPECT_EQ(r.eccentricity(), 6u);
}

TEST(Bfs, MultiSource) {
  const Graph g = make_path(10);
  const std::vector<NodeId> sources{0, 9};
  const BfsResult r = bfs_multi(g, sources);
  EXPECT_EQ(r.dist[5], 4u);
  EXPECT_EQ(r.dist[4], 4u);
}

TEST(Bfs, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.dist[2], BfsResult::kUnreachable);
  EXPECT_FALSE(is_connected(g));
}

TEST(Components, CountsAndLabels) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(count_components(g), 3u);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Diameter, ApproxAtLeastHalfExact) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_random_tree(60, rng);
    const auto exact = exact_diameter(g);
    const auto approx = approx_diameter(g, rng);
    EXPECT_LE(approx, exact);
    EXPECT_GE(2 * approx + 1, exact);
  }
}

TEST(Diameter, DoubleSweepExactOnTrees) {
  Rng rng(22);
  const Graph g = make_random_tree(80, rng);
  EXPECT_EQ(approx_diameter(g, rng, 3), exact_diameter(g));
}

TEST(SpanningTree, BfsTreeIsSpanning) {
  const Graph g = make_grid(5, 5);
  const auto edges = bfs_tree_edges(g, 12);
  EXPECT_TRUE(is_spanning_tree(g, edges));
}

TEST(SpanningTree, DetectsNonTree) {
  const Graph g = make_cycle(4);
  std::vector<EdgeId> all{0, 1, 2, 3};
  EXPECT_FALSE(is_spanning_tree(g, all));
  std::vector<EdgeId> three{0, 1, 2};
  EXPECT_TRUE(is_spanning_tree(g, three));
}

TEST(Mst, MatchesBruteForceWeight) {
  Rng rng(31);
  const Graph g = make_weighted_grid(5, 5, rng);
  const auto tree = mst_kruskal(g);
  EXPECT_TRUE(is_spanning_tree(g, tree));
  double total = 0;
  for (EdgeId e : tree) total += g.edge(e).weight;
  // Sanity: no spanning tree found by shuffled Kruskal beats it.
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<EdgeId> order(g.num_edges());
    std::iota(order.begin(), order.end(), EdgeId{0});
    rng.shuffle(order);
    UnionFind uf(g.num_nodes());
    double other = 0;
    for (EdgeId e : order) {
      if (uf.unite(g.edge(e).u, g.edge(e).v)) other += g.edge(e).weight;
    }
    EXPECT_LE(total, other + 1e-9);
  }
}

TEST(EulerTour, CoversTreeTwice) {
  const Graph g = make_balanced_binary_tree(7);
  std::vector<EdgeId> tree(g.num_edges());
  std::iota(tree.begin(), tree.end(), EdgeId{0});
  const auto tour = euler_tour(g, tree, 0);
  EXPECT_EQ(tour.size(), 2u * 7 - 1);
  EXPECT_EQ(tour.front(), 0u);
  EXPECT_EQ(tour.back(), 0u);
  std::set<NodeId> visited(tour.begin(), tour.end());
  EXPECT_EQ(visited.size(), 7u);
  // Consecutive tour nodes are adjacent.
  for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
    bool adjacent = false;
    for (const Adjacency& a : g.neighbors(tour[i])) {
      adjacent |= a.neighbor == tour[i + 1];
    }
    EXPECT_TRUE(adjacent);
  }
}

TEST(UnionFindTest, MergesAndCounts) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_EQ(uf.find(0), uf.find(1));
}

TEST(HopDistance, PathReconstruction) {
  const Graph g = make_grid(3, 3);
  const auto d = hop_distance(g, 0, 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 4u);
  const auto path = shortest_hop_path(g, 0, 8);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
  EXPECT_EQ(path->front(), 0u);
  EXPECT_EQ(path->back(), 8u);
}

// Property sweep: connectivity and handshake lemma across generator families.
// The family is a std::string, not a const char*: gtest prints a char
// pointer's address into the parameter text that ctest uses as the test name,
// and that address moves with every build and every run.
class FamilyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(FamilyTest, HandshakeAndConnectivity) {
  const auto& [name, n] = GetParam();
  Rng rng(1234);
  Graph g;
  if (name == "path") g = make_path(n);
  else if (name == "cycle") g = make_cycle(n);
  else if (name == "grid") g = make_grid(n / 4, 4);
  else if (name == "tree") g = make_random_tree(n, rng);
  else if (name == "regular") g = make_random_regular(n, 4, rng);
  else if (name == "hypercube") g = make_hypercube(5);
  else if (name == "ktree") g = make_k_tree(n, 3, rng);
  ASSERT_GT(g.num_nodes(), 0u);
  EXPECT_TRUE(is_connected(g)) << name;
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges()) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyTest,
    ::testing::Combine(::testing::Values("path", "cycle", "grid", "tree",
                                         "regular", "hypercube", "ktree"),
                       ::testing::Values(16, 40, 64)));

}  // namespace
}  // namespace dls
