#include <gtest/gtest.h>

#include <limits>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "shortcuts/quality_estimator.hpp"
#include "util/thread_pool.hpp"

namespace dls {
namespace {

TEST(SqEstimator, AnchoredByDiameter) {
  Rng rng(1);
  const Graph g = make_path(40);
  const SqEstimate estimate = estimate_shortcut_quality(g, rng);
  EXPECT_GE(estimate.quality, 39u);  // SQ >= Ω(D); path D = 39
}

TEST(SqEstimator, ExpanderEstimateMuchBelowSqrtN) {
  Rng rng(2);
  const Graph g = make_random_regular(256, 6, rng);
  const SqEstimate estimate = estimate_shortcut_quality(g, rng);
  // Expanders have SQ = polylog(n); the estimate must sit far below √n·D.
  EXPECT_LT(estimate.quality, 80u);
  EXPECT_GE(estimate.quality, estimate.diameter);
}

TEST(SqEstimator, GridEstimateNearDiameter) {
  Rng rng(3);
  const Graph g = make_grid(12, 12);
  const SqEstimate estimate = estimate_shortcut_quality(g, rng);
  // Planar: SQ = Õ(D). Allow polylog slack over D = 22.
  EXPECT_GE(estimate.quality, 22u);
  EXPECT_LE(estimate.quality, 22u * 12);
}

TEST(SqEstimator, ReportsSamples) {
  Rng rng(4);
  const Graph g = make_grid(6, 6);
  const SqEstimate estimate = estimate_shortcut_quality(g, rng);
  EXPECT_GE(estimate.samples.size(), 2u);
  for (const SqSample& sample : estimate.samples) {
    EXPECT_GT(sample.num_parts, 0u);
    EXPECT_FALSE(sample.partition_family.empty());
  }
}

TEST(SqEstimator, ExtraPartitionsIncluded) {
  Rng rng(5);
  const Graph g = make_grid(6, 6);
  const PartCollection rows = grid_row_partition(6, 6);
  SqEstimateOptions options;
  const SqEstimate with_extra =
      estimate_shortcut_quality(g, rng, options, {rows});
  bool found = false;
  for (const SqSample& s : with_extra.samples) {
    found |= s.partition_family.rfind("extra", 0) == 0;
  }
  EXPECT_TRUE(found);
}

// SqEstimateOptions::pool promises the same estimate with and without a
// pool; every worker measures shortcuts through its own thread-local scratch.
TEST(SqEstimator, PoolMatchesSerial) {
  ThreadPool pool(4);
  for (int family = 0; family < 2; ++family) {
    Rng graph_rng(8);
    const Graph g = family == 0 ? make_grid(20, 20)
                                : make_random_regular(200, 4, graph_rng);
    Rng serial_rng(9);
    const SqEstimate serial = estimate_shortcut_quality(g, serial_rng);
    SqEstimateOptions options;
    options.pool = &pool;
    Rng pooled_rng(9);
    const SqEstimate pooled = estimate_shortcut_quality(g, pooled_rng, options);
    EXPECT_EQ(pooled.quality, serial.quality);
    EXPECT_EQ(pooled.diameter, serial.diameter);
    ASSERT_EQ(pooled.samples.size(), serial.samples.size());
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
      const SqSample& a = serial.samples[i];
      const SqSample& b = pooled.samples[i];
      EXPECT_EQ(b.partition_family, a.partition_family);
      EXPECT_EQ(b.num_parts, a.num_parts);
      EXPECT_EQ(b.quality.congestion, a.quality.congestion);
      EXPECT_EQ(b.quality.dilation, a.quality.dilation);
      EXPECT_EQ(b.construction, a.construction);
    }
  }
}

TEST(SqEstimator, RejectsDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  Rng rng(6);
  EXPECT_THROW(estimate_shortcut_quality(g, rng), std::invalid_argument);
}

// A non-finite edge weight would silently poison the diameter and stretch
// computations behind every sample. NaN already cannot enter a Graph (it
// fails the positive-weight precondition); +Inf passes that comparison, so
// the estimator must catch it typed at its own boundary.
TEST(SqEstimator, RejectsNonFiniteWeights) {
  Rng rng(7);
  {
    Graph g = make_path(6);
    EXPECT_THROW(g.set_weight(2, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
  }
  {
    Graph g = make_path(6);
    g.set_weight(0, std::numeric_limits<double>::infinity());
    EXPECT_THROW(estimate_shortcut_quality(g, rng), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dls
