#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "shortcuts/unicast.hpp"

namespace dls {
namespace {

TEST(MeasurePaths, CongestionAndDilation) {
  const Graph g = make_path(6);
  const UnicastSolution s =
      measure_paths(g, {{0, 1, 2, 3}, {2, 3, 4}, {3, 4, 5}});
  EXPECT_EQ(s.dilation, 3u);
  EXPECT_EQ(s.congestion, 2u);  // edges (2,3) and (3,4) each carry two paths
  EXPECT_EQ(s.quality(), 3u);
}

TEST(RouteMultipleUnicast, AvoidsUnnecessaryCongestion) {
  // 2 x k ladder: k pairs top-to-bottom can each use their own rung.
  const std::size_t cols = 6;
  const Graph g = make_grid(2, cols);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t c = 0; c < cols; ++c) {
    pairs.push_back({static_cast<NodeId>(c), static_cast<NodeId>(cols + c)});
  }
  Rng rng(1);
  const UnicastSolution s = route_multiple_unicast(g, pairs, rng);
  EXPECT_EQ(s.paths.size(), cols);
  EXPECT_EQ(s.congestion, 1u);
  EXPECT_EQ(s.dilation, 1u);
}

TEST(RouteMultipleUnicast, SharedBridgeForcesCongestion) {
  const Graph g = make_barbell(10);  // one bridge edge
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 1; i <= 3; ++i) pairs.push_back({i, static_cast<NodeId>(5 + i)});
  Rng rng(2);
  const UnicastSolution s = route_multiple_unicast(g, pairs, rng);
  EXPECT_EQ(s.congestion, 3u);  // every pair crosses the bridge
}

TEST(AnyToAnyCast, PicksDisjointPathsWhenAvailable) {
  const std::size_t side = 5;
  const Graph g = make_grid(side, side);
  std::vector<NodeId> sources, sinks;
  for (std::size_t r = 0; r < side; ++r) {
    sources.push_back(static_cast<NodeId>(r * side));
    sinks.push_back(static_cast<NodeId>(r * side + side - 1));
  }
  Rng rng(3);
  const UnicastSolution s = any_to_any_cast(g, sources, sinks, rng);
  EXPECT_EQ(s.paths.size(), side);
  EXPECT_LE(s.congestion, 2u);
  EXPECT_LE(s.quality(), 2 * (side - 1));
}

TEST(PacketRouting, SinglePathTakesItsLength) {
  std::vector<std::vector<NodeId>> paths{{0, 1, 2, 3, 4, 5, 6, 7, 8}};
  Rng rng(4);
  EXPECT_EQ(simulate_packet_routing(paths, rng), 8u);
}

TEST(PacketRouting, ContentionSerializes) {
  std::vector<std::vector<NodeId>> paths(5, std::vector<NodeId>{0, 1});
  Rng rng(5);
  EXPECT_EQ(simulate_packet_routing(paths, rng), 5u);
}

TEST(PacketRouting, WithinCongestionPlusDilationEnvelope) {
  Rng rng(6);
  const Graph g = make_grid(7, 7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 10; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.next_below(49)),
                     static_cast<NodeId>(rng.next_below(49))});
    if (pairs.back().first == pairs.back().second) pairs.pop_back();
  }
  const UnicastSolution s = route_multiple_unicast(g, pairs, rng);
  const std::uint64_t rounds = simulate_packet_routing(s.paths, rng);
  EXPECT_LE(rounds, 4 * (s.congestion + s.dilation));
  EXPECT_GE(rounds, s.dilation);
}

TEST(Lemma24Decomposition, GridRowsAreOneGroup) {
  const std::size_t side = 4;
  const Graph g = make_grid(side, side);
  std::vector<NodeId> sources, sinks;
  for (std::size_t r = 0; r < side; ++r) {
    sources.push_back(static_cast<NodeId>(r * side));
    sinks.push_back(static_cast<NodeId>(r * side + side - 1));
  }
  const AnyToAnyDecomposition d = decompose_any_to_any(g, sources, sinks);
  EXPECT_EQ(d.num_groups(), 1u);
}

TEST(Lemma24Decomposition, CongestedMultisetsSplitIntoFewGroups) {
  // ρ copies of each source/sink: connectivity ρ, so Lemma 24 promises
  // O(ρ log k) groups; the greedy peeling realizes exactly ρ here.
  const std::size_t side = 4;
  const std::size_t rho = 3;
  const Graph g = make_grid(side, side);
  std::vector<NodeId> sources, sinks;
  for (std::size_t copy = 0; copy < rho; ++copy) {
    for (std::size_t r = 0; r < side; ++r) {
      sources.push_back(static_cast<NodeId>(r * side));
      sinks.push_back(static_cast<NodeId>(r * side + side - 1));
    }
  }
  const AnyToAnyDecomposition d = decompose_any_to_any(g, sources, sinks);
  EXPECT_LE(d.num_groups(), rho * 3);
  // Every group must itself be disjointly connectable.
  for (std::size_t i = 0; i < d.num_groups(); ++i) {
    EXPECT_TRUE(any_to_any_node_disjointly_connectable(g, d.source_groups[i],
                                                       d.sink_groups[i]));
    EXPECT_EQ(d.source_groups[i].size(), d.sink_groups[i].size());
  }
  // Groups partition the multisets.
  std::size_t total = 0;
  for (const auto& group : d.source_groups) total += group.size();
  EXPECT_EQ(total, sources.size());
}

class DecompositionSweep : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionSweep, ValidOnRandomInstances) {
  Rng rng(50 + GetParam());
  const Graph g = make_random_regular(32, 4, rng);
  std::vector<NodeId> sources, sinks;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(static_cast<NodeId>(rng.next_below(32)));
    sinks.push_back(static_cast<NodeId>(rng.next_below(32)));
  }
  const AnyToAnyDecomposition d = decompose_any_to_any(g, sources, sinks);
  for (std::size_t i = 0; i < d.num_groups(); ++i) {
    EXPECT_TRUE(any_to_any_node_disjointly_connectable(g, d.source_groups[i],
                                                       d.sink_groups[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace dls
