#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "shortcuts/construction.hpp"
#include "shortcuts/part_csr.hpp"
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

TEST(Construction, TreeRestrictedRejectsOutOfRangeMember) {
  // Regression: a member id >= n used to index tree.parent past its end.
  Rng rng(9);
  const Graph g = make_path(5);
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  PartCollection pc;
  pc.parts = {{0, 1}, {3, 9}};
  EXPECT_THROW(tree_restricted_shortcut(pc, t), std::invalid_argument);
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


// ShortcutMeasure: measure_shortcut and tree_restricted_shortcut against the
// hash-set builders they replaced, kept here as references. The flat code
// skips BFS runs that cannot raise the maximum, so only the returned values
// are compared, never the work done.

/// Reference G[P_i] ∪ H_i, as an induced-style subgraph over the union of
/// part members and H_i endpoints.
struct RefPartSubgraph {
  std::vector<NodeId> nodes;  // host ids, part members first
  std::vector<EdgeId> edges;  // host edge ids of G[P_i] plus H_i, ascending
};

RefPartSubgraph ref_part_subgraph(const Graph& g,
                                  const std::vector<NodeId>& part,
                                  const std::vector<EdgeId>& h_edges) {
  RefPartSubgraph sub;
  std::unordered_set<NodeId> node_set(part.begin(), part.end());
  sub.nodes = part;
  for (EdgeId e : h_edges) {
    const Edge& edge = g.edge(e);
    if (node_set.insert(edge.u).second) sub.nodes.push_back(edge.u);
    if (node_set.insert(edge.v).second) sub.nodes.push_back(edge.v);
  }
  const std::unordered_set<NodeId> members(part.begin(), part.end());
  std::unordered_set<EdgeId> edge_set;
  for (NodeId v : part) {
    for (const Adjacency& a : g.neighbors(v)) {
      if (members.count(a.neighbor) > 0) edge_set.insert(a.edge);
    }
  }
  for (EdgeId e : h_edges) edge_set.insert(e);
  sub.edges.assign(edge_set.begin(), edge_set.end());
  std::sort(sub.edges.begin(), sub.edges.end());
  return sub;
}

/// Reference diameter: a Graph of the subgraph with local ids in `nodes`
/// order, exact up to 400 nodes and the Rng(12345) 6-sweep above.
std::size_t ref_subgraph_diameter(const Graph& g, const RefPartSubgraph& sub) {
  std::unordered_map<NodeId, std::uint32_t> local;
  for (std::uint32_t i = 0; i < sub.nodes.size(); ++i) local[sub.nodes[i]] = i;
  Graph h(sub.nodes.size());
  for (EdgeId e : sub.edges) {
    const Edge& edge = g.edge(e);
    h.add_edge(local.at(edge.u), local.at(edge.v), edge.weight);
  }
  DLS_REQUIRE(is_connected(h), "part + shortcut subgraph is disconnected");
  if (h.num_nodes() <= 400) return exact_diameter(h);
  Rng rng(12345);
  return approx_diameter(h, rng, 6);
}

ShortcutQuality ref_measure(const Graph& g, const PartCollection& pc,
                            const Shortcut& shortcut) {
  ShortcutQuality q;
  std::vector<std::size_t> edge_load(g.num_edges(), 0);
  for (const auto& h : shortcut.h_edges) {
    const std::unordered_set<EdgeId> distinct(h.begin(), h.end());
    for (EdgeId e : distinct) {
      q.congestion = std::max(q.congestion, ++edge_load[e]);
    }
  }
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    const RefPartSubgraph sub =
        ref_part_subgraph(g, pc.parts[i], shortcut.h_edges[i]);
    q.dilation = std::max(q.dilation, ref_subgraph_diameter(g, sub));
  }
  return q;
}

/// Reference Steiner subtree: the union of member→root paths, then
/// non-member leaves peeled until none is left.
Shortcut ref_tree_restricted(const PartCollection& pc,
                             const RootedSpanningTree& tree) {
  Shortcut s;
  for (const auto& part : pc.parts) {
    std::unordered_map<NodeId, std::size_t> union_degree;
    std::unordered_set<NodeId> on_union;
    std::vector<std::pair<NodeId, EdgeId>> union_edges;  // (child, edge up)
    for (NodeId v : part) {
      NodeId cur = v;
      while (on_union.insert(cur).second && cur != tree.root) {
        union_edges.push_back({cur, tree.parent_edge[cur]});
        cur = tree.parent[cur];
      }
    }
    std::unordered_map<NodeId, std::vector<std::pair<NodeId, EdgeId>>> children;
    for (const auto& [child, e] : union_edges) {
      children[tree.parent[child]].push_back({child, e});
      ++union_degree[child];
      ++union_degree[tree.parent[child]];
    }
    const std::unordered_set<NodeId> members(part.begin(), part.end());
    std::vector<NodeId> peel;
    for (NodeId v : on_union) {
      if (union_degree[v] == 1 && members.count(v) == 0) peel.push_back(v);
    }
    std::unordered_set<EdgeId> removed;
    std::unordered_map<NodeId, std::pair<NodeId, EdgeId>> up;
    for (const auto& [child, e] : union_edges) {
      up[child] = {tree.parent[child], e};
    }
    std::unordered_set<NodeId> peeled;
    while (!peel.empty()) {
      const NodeId v = peel.back();
      peel.pop_back();
      if (!peeled.insert(v).second) continue;
      NodeId neighbor = kInvalidNode;
      if (up.count(v) > 0 && removed.count(up[v].second) == 0) {
        removed.insert(up[v].second);
        neighbor = up[v].first;
      } else {
        for (const auto& [child, e] : children[v]) {
          if (removed.count(e) == 0 && peeled.count(child) == 0) {
            removed.insert(e);
            neighbor = child;
            break;
          }
        }
      }
      if (neighbor == kInvalidNode) continue;
      if (--union_degree[neighbor] == 1 && members.count(neighbor) == 0) {
        peel.push_back(neighbor);
      }
    }
    std::vector<EdgeId> h;
    for (const auto& [child, e] : union_edges) {
      (void)child;
      if (removed.count(e) == 0) h.push_back(e);
    }
    s.h_edges.push_back(std::move(h));
  }
  return s;
}

void expect_same_quality(const Graph& g, const PartCollection& pc,
                         const Shortcut& s) {
  const ShortcutQuality got = measure_shortcut(g, pc, s);
  const ShortcutQuality want = ref_measure(g, pc, s);
  EXPECT_EQ(got.congestion, want.congestion) << g.describe();
  EXPECT_EQ(got.dilation, want.dilation) << g.describe();
}

/// Every H_i listed twice: congestion counts an edge once per H_i.
Shortcut listed_twice(Shortcut s) {
  for (auto& h : s.h_edges) {
    const std::vector<EdgeId> copy = h;
    h.insert(h.end(), copy.begin(), copy.end());
  }
  return s;
}

/// Nodes begin..end-1, the middle one first: on a path that puts the node of
/// least eccentricity at local id 0.
std::vector<NodeId> members_from_middle(NodeId begin, NodeId end) {
  const NodeId mid = begin + (end - begin) / 2;
  std::vector<NodeId> part{mid};
  for (NodeId v = begin; v < end; ++v) {
    if (v != mid) part.push_back(v);
  }
  return part;
}

/// Corpus: Voronoi parts at k ∈ {1, 3, 17, n/3 + 1} and tree-chopped parts,
/// members in generator order or shuffled (which moves local id 0), each
/// measured under the trivial shortcut and under tree-restricted shortcuts
/// on two rooted trees, once with every H_i listed twice. Returns the
/// number of (partition, shortcut) cases measured.
std::size_t check_against_reference(const Graph& g, Rng& rng) {
  const std::size_t n = g.num_nodes();
  const RootedSpanningTree centered = centered_bfs_tree(g, rng);
  const auto root = static_cast<NodeId>(rng.next_below(n));
  const RootedSpanningTree random_root =
      root_spanning_tree(g, bfs_tree_edges(g, root), root);
  std::vector<PartCollection> collections;
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                        n / 3 + 1}) {
    if (k <= n) collections.push_back(random_voronoi_partition(g, k, rng));
  }
  collections.push_back(
      tree_chop_partition(g, centered, 1 + rng.next_below(n / 2 + 1)));
  std::size_t cases = 0;
  for (PartCollection& pc : collections) {
    if (rng.next_below(2) == 0) {
      for (auto& part : pc.parts) {
        const std::vector<std::size_t> perm = rng.permutation(part.size());
        std::vector<NodeId> shuffled;
        for (std::size_t j : perm) shuffled.push_back(part[j]);
        part = std::move(shuffled);
      }
    }
    expect_same_quality(g, pc, trivial_shortcut(pc));
    ++cases;
    for (const RootedSpanningTree* tree : {&centered, &random_root}) {
      const Shortcut s = tree_restricted_shortcut(pc, *tree);
      EXPECT_EQ(s.h_edges, ref_tree_restricted(pc, *tree).h_edges)
          << g.describe();
      expect_same_quality(g, pc, s);
      expect_same_quality(g, pc, listed_twice(s));
      cases += 2;
    }
  }
  return cases;
}

TEST(ShortcutMeasure, PartSubgraphContainsInducedAndHelperEdges) {
  const Graph g = make_cycle(6);
  const std::vector<NodeId> part{0, 1};
  const std::vector<EdgeId> helper{2};  // edge (2,3)
  const RefPartSubgraph sub = ref_part_subgraph(g, part, helper);
  EXPECT_EQ(sub.nodes.size(), 4u);  // {0,1} + {2,3}
  std::set<EdgeId> edges(sub.edges.begin(), sub.edges.end());
  EXPECT_TRUE(edges.count(0));  // induced (0,1)
  EXPECT_TRUE(edges.count(2));  // helper
}

TEST(ShortcutMeasure, MatchesReferenceOnFuzzCorpus) {
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (int family = 0; family < 4; ++family) {
      Rng rng(seed * 31 + static_cast<std::uint64_t>(family));
      Graph g;
      switch (family) {
        case 0:
          g = make_grid(1 + rng.next_below(14), 1 + rng.next_below(14));
          break;
        case 1: {
          const std::size_t d = 3 + rng.next_below(2);
          g = make_random_regular(2 * (4 + rng.next_below(60)), d, rng);
          break;
        }
        case 2: g = make_path(1 + rng.next_below(150)); break;
        default: g = make_cycle(3 + rng.next_below(150)); break;
      }
      if (!is_connected(g)) continue;
      cases += check_against_reference(g, rng);
    }
  }
  EXPECT_GE(cases, 2000u);
}

TEST(ShortcutMeasure, MatchesReferenceAbove400Nodes) {
  // Voronoi k = 1 is the whole graph as one part: above 400 nodes both sides
  // take the seeded 6-sweep over the same local ids.
  Rng rng(400);
  for (const Graph& g : {make_grid(21, 23), make_random_regular(450, 4, rng),
                         make_path(401), make_cycle(520)}) {
    ASSERT_TRUE(is_connected(g));
    check_against_reference(g, rng);
  }
}

TEST(ShortcutMeasure, SingleMemberParts) {
  Rng rng(12);
  const Graph g = make_grid(5, 6);
  PartCollection pc;
  for (NodeId v = 0; v < g.num_nodes(); ++v) pc.parts.push_back({v});
  const ShortcutQuality trivial = measure_shortcut(g, pc, trivial_shortcut(pc));
  EXPECT_EQ(trivial.quality(), 0u);
  const RootedSpanningTree t = centered_bfs_tree(g, rng);
  const Shortcut restricted = tree_restricted_shortcut(pc, t);
  for (const auto& h : restricted.h_edges) EXPECT_TRUE(h.empty());
  EXPECT_EQ(restricted.h_edges, ref_tree_restricted(pc, t).h_edges);
  // A helper path from the member out to its tree root reaches further.
  Shortcut helper = trivial_shortcut(pc);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId cur = v; cur != t.root; cur = t.parent[cur]) {
      helper.h_edges[v].push_back(t.parent_edge[cur]);
    }
  }
  expect_same_quality(g, pc, helper);
  expect_same_quality(g, pc, listed_twice(helper));
}

TEST(ShortcutMeasure, SkipRuleDropsOnlyPartsThatCannotRaiseTheMax) {
  // Path 0..29. Part 0 (0..9) sets the floor at 9. Part 1 (10..20, listed
  // from its middle) has ecc 5 at local node 0: 2·5 > 9, so it is swept and
  // raises the max to 10. Part 2 (21..29, from its middle, ecc 4) has
  // 2·4 ≤ 10 and is skipped.
  {
    const Graph g = make_path(30);
    PartCollection pc;
    pc.parts = {members_from_middle(0, 10), members_from_middle(10, 21),
                members_from_middle(21, 30)};
    EXPECT_EQ(measure_shortcut(g, pc, trivial_shortcut(pc)).dilation, 10u);
    expect_same_quality(g, pc, trivial_shortcut(pc));
  }
  // Only the skip rule prunes: every node of a cycle has the same
  // eccentricity, so a whole-cycle part is swept from every node; the arcs
  // after it, listed from their middle, have 2·ecc ≤ 8 and are skipped.
  {
    const Graph g = make_cycle(16);
    PartCollection pc;
    pc.parts = {members_from_middle(0, 16), members_from_middle(0, 9),
                members_from_middle(5, 12), {3}};
    EXPECT_EQ(measure_shortcut(g, pc, trivial_shortcut(pc)).dilation, 8u);
    expect_same_quality(g, pc, trivial_shortcut(pc));
  }
}

TEST(ShortcutMeasure, BoundRuleFindsTheDiameterSweepsMiss) {
  // A 4-cycle 0-1-3-2 with leaves 4 and 5 on node 1. Sweeps from 0 and from
  // its farthest node 3 bounce between eccentricity-2 nodes, while the
  // diameter is 3 (from 2 to 4). One part, so the floor is 0 and only the
  // bound rule prunes: it must sweep on from the largest bound to find 3.
  Graph g(6);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 3}}) {
    g.add_edge(u, v);
  }
  ASSERT_EQ(bfs(g, 0).eccentricity(), 2u);
  ASSERT_EQ(bfs(g, 3).eccentricity(), 2u);
  ASSERT_EQ(exact_diameter(g), 3u);
  PartCollection pc;
  pc.parts = {{0, 1, 2, 3, 4, 5}};
  EXPECT_EQ(measure_shortcut(g, pc, trivial_shortcut(pc)).dilation, 3u);
  expect_same_quality(g, pc, trivial_shortcut(pc));
}

TEST(ShortcutMeasure, StampsSurviveEpochWrap) {
  // The congestion pass takes one stamp epoch per part, so starting that
  // many epochs below the 32-bit wrap puts the load of part 0 at epoch 1.
  // Every stale stamp reads 1: unless the wrap clears them, that load sees
  // each member as listed twice.
  const Graph g = make_grid(6, 6);
  Rng rng(14);
  const PartCollection pc = random_voronoi_partition(g, 5, rng);
  const Shortcut s = tree_restricted_shortcut(pc, centered_bfs_tree(g, rng));
  PartScratch& sc = part_scratch();
  sc.next_epoch(g.num_nodes(), g.num_edges());
  for (auto* stamps : {&sc.node_epoch, &sc.member_epoch, &sc.edge_epoch}) {
    std::fill(stamps->begin(), stamps->end(), 1u);
  }
  sc.epoch = UINT32_MAX - static_cast<std::uint32_t>(pc.num_parts());
  expect_same_quality(g, pc, s);
  EXPECT_LE(sc.epoch, 2 * pc.num_parts());  // the counter wrapped
}

TEST(ShortcutMeasure, RejectsInvalidParts) {
  const Graph g = make_path(5);
  for (const std::vector<NodeId>& bad :
       {std::vector<NodeId>{0, 4},      // disconnected without help
        std::vector<NodeId>{0, 1, 7},   // member out of range
        std::vector<NodeId>{0, 1, 0}}) {  // member listed twice
    PartCollection pc;
    pc.parts = {{2, 3}, bad};
    EXPECT_THROW(measure_shortcut(g, pc, trivial_shortcut(pc)),
                 std::invalid_argument);
  }
  // The aggregation trees load parts through the same checks.
  PartCollection pc;
  pc.parts = {{0, 1, 0}};
  Rng rng(13);
  EXPECT_THROW(solve_partwise_aggregation(g, pc, {{1.0, 2.0, 3.0}},
                                          AggregationMonoid::sum(),
                                          trivial_shortcut(pc), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace dls
