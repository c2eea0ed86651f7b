#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "laplacian/recursive_solver.hpp"
#include "linalg/solvers.hpp"

namespace dls {
namespace {

Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.next_double() * 2 - 1;
  project_mean_zero(b);
  return b;
}

LaplacianSolverOptions quick_options(double tol = 1e-6) {
  LaplacianSolverOptions options;
  options.tolerance = tol;
  options.base_size = 40;
  return options;
}

void check_solver_on(const Graph& g, std::uint64_t seed, double tol = 1e-6) {
  Rng rng(seed);
  ShortcutPaOracle oracle(g, rng);
  DistributedLaplacianSolver solver(oracle, rng, quick_options(tol));
  const Vec b = random_rhs(g.num_nodes(), rng);
  const LaplacianSolveReport report = solver.solve(b);
  EXPECT_TRUE(report.converged) << g.describe();
  EXPECT_LE(report.relative_residual, 2 * tol) << g.describe();
  // The answer matches a sequential reference in the L-seminorm.
  SolveOptions ref_options;
  ref_options.tolerance = 1e-12;
  const SolveResult ref = solve_laplacian_cg(g, b, ref_options);
  EXPECT_LT(relative_error_in_l_norm(g, report.x, ref.x), 100 * tol)
      << g.describe();
  EXPECT_GT(report.pa_calls, 0u);
  EXPECT_GT(report.local_rounds, 0u);
}

TEST(RecursiveSolver, SmallGridBaseCaseOnly) {
  // 5x5 grid fits in the Cholesky base — exercises the trivial chain.
  check_solver_on(make_grid(5, 5), 1);
}

TEST(RecursiveSolver, GridWithOneLevel) { check_solver_on(make_grid(9, 9), 2); }

TEST(RecursiveSolver, WeightedGrid) {
  Rng rng(3);
  check_solver_on(make_weighted_grid(8, 8, rng), 3);
}

TEST(RecursiveSolver, Expander) {
  Rng rng(4);
  check_solver_on(make_random_regular(96, 4, rng), 4);
}

TEST(RecursiveSolver, Torus) { check_solver_on(make_torus(8, 8), 5); }

TEST(RecursiveSolver, TreeInput) {
  Rng rng(6);
  check_solver_on(make_random_tree(80, rng), 6);
}

TEST(RecursiveSolver, ChainHasMultipleLevelsOnLargeGraph) {
  Rng rng(7);
  const Graph g = make_grid(12, 12);
  ShortcutPaOracle oracle(g, rng);
  DistributedLaplacianSolver solver(oracle, rng, quick_options());
  EXPECT_GE(solver.num_levels(), 2u);
  const auto& stats = solver.level_stats();
  EXPECT_EQ(stats.front().nodes, g.num_nodes());
  EXPECT_TRUE(stats.back().is_base);
  // Sizes shrink down the chain.
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_LT(stats[i].nodes, stats[i - 1].nodes);
  }
}

TEST(RecursiveSolver, EpsScalingMoreIterationsForTighterTolerance) {
  const Graph g = make_grid(10, 10);
  std::uint64_t rounds_loose = 0, rounds_tight = 0;
  {
    Rng rng(8);
    ShortcutPaOracle oracle(g, rng);
    DistributedLaplacianSolver solver(oracle, rng, quick_options(1e-2));
    const Vec b = random_rhs(g.num_nodes(), rng);
    rounds_loose = solver.solve(b).local_rounds;
  }
  {
    Rng rng(8);
    ShortcutPaOracle oracle(g, rng);
    DistributedLaplacianSolver solver(oracle, rng, quick_options(1e-10));
    const Vec b = random_rhs(g.num_nodes(), rng);
    rounds_tight = solver.solve(b).local_rounds;
  }
  EXPECT_GT(rounds_tight, rounds_loose);
}

TEST(RecursiveSolver, HybridModelUsesGlobalRoundsOnly) {
  const Graph g = make_grid(8, 8);
  Rng rng(9);
  NccPaOracle oracle(g, rng);
  DistributedLaplacianSolver solver(oracle, rng, quick_options(1e-5));
  const Vec b = random_rhs(g.num_nodes(), rng);
  const LaplacianSolveReport report = solver.solve(b);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.global_rounds, 0u);
  // Local rounds still accrue from matvecs/elimination, but the PA calls —
  // the dominant cost — ride the global network.
  EXPECT_GT(report.global_rounds, report.local_rounds / 4);
  EXPECT_GE(report.hybrid_rounds, report.global_rounds);
}

TEST(RecursiveSolver, BaselineOracleCorrectButSlower) {
  // A ≥3-level chain is needed to expose the gap: only minor-level matvec
  // instances (many small parts) distinguish the oracles — single-part
  // global aggregations cost the same under both.
  const Graph g = make_grid(14, 14);
  LaplacianSolverOptions options = quick_options(1e-5);
  options.base_size = 24;
  std::uint64_t fast_rounds = 0, slow_rounds = 0;
  {
    Rng rng(10);
    ShortcutPaOracle oracle(g, rng);
    DistributedLaplacianSolver solver(oracle, rng, options);
    const auto report = solver.solve(random_rhs(g.num_nodes(), rng));
    EXPECT_TRUE(report.converged);
    fast_rounds = report.local_rounds;
  }
  {
    Rng rng(10);
    BaselinePaOracle oracle(g, rng);
    DistributedLaplacianSolver solver(oracle, rng, options);
    const auto report = solver.solve(random_rhs(g.num_nodes(), rng));
    EXPECT_TRUE(report.converged);
    slow_rounds = report.local_rounds;
  }
  EXPECT_LT(fast_rounds, slow_rounds);
}

TEST(RecursiveSolver, TreePreconditionerAblation) {
  const Graph g = make_grid(9, 9);
  Rng rng(11);
  ShortcutPaOracle oracle(g, rng);
  LaplacianSolverOptions options = quick_options(1e-6);
  options.tree_preconditioner_only = true;
  DistributedLaplacianSolver solver(oracle, rng, options);
  const Vec b = random_rhs(g.num_nodes(), rng);
  const LaplacianSolveReport report = solver.solve(b);
  EXPECT_TRUE(report.converged);
}

TEST(RecursiveSolver, ResidualHistoryDecreases) {
  const Graph g = make_grid(9, 9);
  Rng rng(23);
  ShortcutPaOracle oracle(g, rng);
  DistributedLaplacianSolver solver(oracle, rng, quick_options(1e-8));
  const auto report = solver.solve(random_rhs(g.num_nodes(), rng));
  ASSERT_GE(report.residual_history.size(), 2u);
  EXPECT_LE(report.residual_history.back(), report.residual_history.front());
  // Final recorded residual matches the report's.
  EXPECT_LE(report.residual_history.back(), 1e-7);
}

TEST(RecursiveSolver, RejectsBadRhs) {
  const Graph g = make_grid(4, 4);
  Rng rng(12);
  ShortcutPaOracle oracle(g, rng);
  DistributedLaplacianSolver solver(oracle, rng, quick_options());
  // Wrong dimension is still rejected outright …
  EXPECT_THROW(solver.solve(Vec(15, 1.0)), std::invalid_argument);
  // … but a rhs outside range(L) is now projected onto it instead of being
  // rejected: a constant rhs projects to zero, so the solve reports a clean
  // converged zero solution with a fully populated report.
  const LaplacianSolveReport report = solver.solve(Vec(16, 1.0));
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.outer_iterations, 0u);
  EXPECT_EQ(report.relative_residual, 0.0);
  EXPECT_EQ(norm2(report.x), 0.0);
  EXPECT_GT(report.local_rounds, 0u);  // ‖b‖ dot + certificate were charged
}

TEST(RecursiveSolver, RejectsDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  Rng rng(13);
  ShortcutPaOracle oracle(g, rng);
  EXPECT_THROW(DistributedLaplacianSolver(oracle, rng, quick_options()),
               std::invalid_argument);
}

TEST(RecursiveSolver, RejectsZeroMaxLevels) {
  // The chain needs at least its base level.
  const Graph g = make_grid(6, 6);
  Rng rng(13);
  ShortcutPaOracle oracle(g, rng);
  LaplacianSolverOptions options = quick_options();
  options.max_levels = 0;
  EXPECT_THROW(DistributedLaplacianSolver(oracle, rng, options),
               std::invalid_argument);
}

TEST(RecursiveSolver, ZeroRhsGivesZero) {
  const Graph g = make_grid(5, 5);
  Rng rng(14);
  ShortcutPaOracle oracle(g, rng);
  DistributedLaplacianSolver solver(oracle, rng, quick_options());
  const LaplacianSolveReport report = solver.solve(Vec(25, 0.0));
  EXPECT_TRUE(report.converged);
  for (double v : report.x) EXPECT_NEAR(v, 0.0, 1e-12);
}

// R(u, v) = (χ_u − χ_v)ᵀ L⁺ (χ_u − χ_v): one solve against χ_u − χ_v, read
// off as the potential gap x_u − x_v. The series and parallel laws pin the
// solver's potentials exactly on small networks.
double effective_resistance(DistributedLaplacianSolver& solver, NodeId u,
                            NodeId v) {
  Vec b(solver.graph().num_nodes(), 0.0);
  b[u] = 1.0;
  b[v] = -1.0;
  const LaplacianSolveReport report = solver.solve(b);
  return report.x[u] - report.x[v];
}

DistributedLaplacianSolver tight_solver(ShortcutPaOracle& oracle, Rng& rng) {
  LaplacianSolverOptions options;
  options.tolerance = 1e-10;
  options.base_size = 64;
  return DistributedLaplacianSolver(oracle, rng, options);
}

TEST(EffectiveResistance, PathIsHopCount) {
  const Graph g = make_path(6);
  Rng rng(1);
  ShortcutPaOracle oracle(g, rng);
  auto solver = tight_solver(oracle, rng);
  EXPECT_NEAR(effective_resistance(solver, 0, 5), 5.0, 1e-6);
  EXPECT_NEAR(effective_resistance(solver, 1, 3), 2.0, 1e-6);
}

TEST(EffectiveResistance, ParallelEdgesHalve) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 1.0);
  Rng rng(2);
  ShortcutPaOracle oracle(g, rng);
  auto solver = tight_solver(oracle, rng);
  EXPECT_NEAR(effective_resistance(solver, 0, 1), 0.5, 1e-8);
}

TEST(EffectiveResistance, CycleSeriesParallel) {
  // C_n between adjacent nodes: 1 ∥ (n−1) = (n−1)/n.
  const std::size_t n = 8;
  const Graph g = make_cycle(n);
  Rng rng(3);
  ShortcutPaOracle oracle(g, rng);
  auto solver = tight_solver(oracle, rng);
  EXPECT_NEAR(effective_resistance(solver, 0, 1),
              static_cast<double>(n - 1) / static_cast<double>(n), 1e-6);
}

class SolverSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolverSweep, ConvergesAcrossFamiliesAndSeeds) {
  const auto [family, seed] = GetParam();
  Rng rng(seed * 1000 + 17);
  Graph g;
  switch (family) {
    case 0: g = make_grid(7, 9); break;
    case 1: g = make_random_regular(64, 4, rng); break;
    case 2: g = make_weighted_grid(7, 7, rng); break;
    default: g = make_triangulated_grid(7, 7); break;
  }
  check_solver_on(g, static_cast<std::uint64_t>(seed * 7 + family), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace dls
