// End-to-end integration scenarios exercising whole user journeys across
// module boundaries — the flows README.md advertises.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/flow.hpp"
#include "graph/generators.hpp"
#include "laplacian/tree_solver.hpp"
#include "laplacian/mincut.hpp"
#include "laplacian/recursive_solver.hpp"
#include "laplacian/spanning_tree.hpp"
#include "lowerbound/spanning_connected_subgraph.hpp"
#include "shortcuts/quality_estimator.hpp"

namespace dls {
namespace {

Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.next_double() * 2 - 1;
  project_mean_zero(b);
  return b;
}

TEST(Integration, EstimateThenSolve) {
  Rng rng(1);
  const Graph g = make_weighted_grid(7, 7, rng);
  const SqEstimate sq = estimate_shortcut_quality(g, rng);
  EXPECT_GE(sq.quality, sq.diameter);

  ShortcutPaOracle oracle(g, rng);
  LaplacianSolverOptions options;
  options.tolerance = 1e-8;
  options.base_size = 32;
  DistributedLaplacianSolver solver(oracle, rng, options);
  const LaplacianSolveReport report = solver.solve(random_rhs(g.num_nodes(), rng));
  EXPECT_TRUE(report.converged);
}

TEST(Integration, MstThenTreeSolverPipeline) {
  // Distributed MST provides the spanning tree; the tree solver then solves
  // the tree subsystem exactly — the first two stages of the chain.
  Rng rng(4);
  const Graph g = make_weighted_grid(6, 6, rng);
  ShortcutPaOracle oracle(g, rng);
  const DistributedMstResult mst = distributed_mst(oracle, rng);
  TreeLaplacianSolver tree_solver(oracle, mst.tree_edges);
  Graph tree_view(g.num_nodes());
  for (EdgeId e : mst.tree_edges) {
    tree_view.add_edge(g.edge(e).u, g.edge(e).v, g.edge(e).weight);
  }
  const Vec b = random_rhs(g.num_nodes(), rng);
  const Vec x = tree_solver.solve(b);
  EXPECT_LT(norm2(sub(b, laplacian_apply(tree_view, x))), 1e-9);
  EXPECT_GT(oracle.ledger().total_local(), 0u);
}

TEST(Integration, DiagnosticsAgreeWithCutStructure) {
  // SCS diagnosis and min-cut must tell a consistent story: dropping every
  // bridge of the best cut disconnects the overlay.
  Rng rng(5);
  const Graph g = make_barbell(12);
  ShortcutPaOracle oracle(g, rng);
  const ApproxMinCutResult cut = approx_min_cut(oracle, rng, 2);
  ASSERT_DOUBLE_EQ(cut.cut_value, 1.0);
  // Overlay = all edges except those crossing the min cut.
  std::vector<EdgeId> overlay;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (cut.side[g.edge(e).u] == cut.side[g.edge(e).v]) overlay.push_back(e);
  }
  EXPECT_FALSE(is_spanning_connected(g, overlay));
  const ScsDecision decision = decide_spanning_connected_via_laplacian(
      g, overlay, OracleKind::kShortcut, rng, 3);
  EXPECT_FALSE(decision.connected);
}

TEST(Integration, EffectiveResistanceConsistentWithSolverAndFlow) {
  // R(s,t) is the potential gap of the solver's unit s–t electrical flow,
  // and is bounded below by 1/maxflow (parallel-cut bound).
  Rng rng(6);
  const Graph g = make_weighted_grid(5, 5, rng);
  ShortcutPaOracle oracle(g, rng);
  LaplacianSolverOptions options;
  options.tolerance = 1e-11;
  DistributedLaplacianSolver solver(oracle, rng, options);
  Vec b(g.num_nodes(), 0.0);
  b[0] = 1.0;
  b[24] = -1.0;
  const LaplacianSolveReport report = solver.solve(b);
  const double r_st = report.x[0] - report.x[24];
  EXPECT_GT(r_st, 0.0);
  const double cut_bound = 1.0 / max_flow_value(g, 0, 24);
  EXPECT_GE(r_st + 1e-9, cut_bound);
}

TEST(Integration, AllOracleModelsAgreeOnTheSolution) {
  Rng rng(7);
  const Graph g = make_grid(8, 8);
  const Vec b = random_rhs(g.num_nodes(), rng);
  Vec reference;
  for (int model = 0; model < 3; ++model) {
    Rng r(8);
    std::unique_ptr<CongestedPaOracle> oracle;
    switch (model) {
      case 0: oracle = std::make_unique<ShortcutPaOracle>(g, r); break;
      case 1: oracle = std::make_unique<BaselinePaOracle>(g, r); break;
      default: oracle = std::make_unique<NccPaOracle>(g, r); break;
    }
    LaplacianSolverOptions options;
    options.tolerance = 1e-9;
    options.base_size = 32;
    DistributedLaplacianSolver solver(*oracle, r, options);
    const LaplacianSolveReport report = solver.solve(b);
    EXPECT_TRUE(report.converged) << oracle->name();
    if (model == 0) {
      reference = report.x;
    } else {
      EXPECT_LT(relative_error_in_l_norm(g, report.x, reference), 1e-5)
          << oracle->name();
    }
  }
}

}  // namespace
}  // namespace dls
