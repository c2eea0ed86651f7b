#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/solvers.hpp"
#include "linalg/vector_ops.hpp"
#include "util/thread_pool.hpp"

namespace dls {
namespace {

Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.next_double() * 2.0 - 1.0;
  project_mean_zero(b);
  return b;
}

TEST(VectorOps, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
}

TEST(VectorOps, AxpyScaleAddSub) {
  Vec y{1, 1};
  axpy(2.0, {3, 4}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  scale(y, 0.5);
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_DOUBLE_EQ(add({1, 2}, {3, 4})[1], 6.0);
  EXPECT_DOUBLE_EQ(sub({1, 2}, {3, 4})[0], -2.0);
}

TEST(VectorOps, ProjectMeanZero) {
  Vec a{1, 2, 3};
  project_mean_zero(a);
  EXPECT_NEAR(a[0] + a[1] + a[2], 0.0, 1e-12);
}

TEST(VectorOps, SizeMismatchThrows) {
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// --- Deterministic blocked kernels. ---------------------------------------

TEST(BlockedKernels, SingleBlockMatchesPlainLoopBitwise) {
  // For n ≤ kKernelBlock the blocked reductions ARE the plain loop — same
  // association, same bits — so existing small-graph behaviour is untouched.
  Rng rng(101);
  Vec a(1000), b(1000);
  for (double& v : a) v = rng.next_double() * 2 - 1;
  for (double& v : b) v = rng.next_double() * 2 - 1;
  EXPECT_EQ(blocked_dot(a, b), dot(a, b));
  EXPECT_EQ(blocked_norm2(a), norm2(a));
  EXPECT_EQ(blocked_sub(a, b), sub(a, b));
  Vec y1 = b, y2 = b;
  axpy(0.7, a, y1);
  blocked_axpy(0.7, a, y2);
  EXPECT_EQ(y1, y2);
}

TEST(BlockedKernels, PoolInvariantBits) {
  // Multi-block inputs: the result must be a pure function of the input —
  // null pool, 1-thread pool and 4-thread pool all agree bitwise.
  Rng rng(102);
  const std::size_t n = 3 * kKernelBlock + 517;
  Vec a(n), b(n);
  for (double& v : a) v = rng.next_double() * 2 - 1;
  for (double& v : b) v = rng.next_double() * 2 - 1;
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const double serial = blocked_dot(a, b, nullptr);
  EXPECT_EQ(blocked_dot(a, b, &pool1), serial);
  EXPECT_EQ(blocked_dot(a, b, &pool4), serial);
  EXPECT_EQ(blocked_norm2(a, &pool4), blocked_norm2(a, nullptr));
  // And the blocked association stays numerically consistent with the plain
  // loop (not bitwise for multi-block inputs, but tight).
  EXPECT_NEAR(serial, dot(a, b), 1e-9 * n);
  Vec p1 = a, p4 = a, ps = a;
  project_mean_zero(ps, nullptr);
  project_mean_zero(p1, &pool1);
  project_mean_zero(p4, &pool4);
  EXPECT_EQ(ps, p1);
  EXPECT_EQ(ps, p4);
}

TEST(BlockedKernels, LaplacianApplyPoolOverloadInvariant) {
  Rng rng(103);
  const Graph g = make_weighted_grid(70, 71, rng);  // 4970 nodes, multi-block
  const Vec x = random_rhs(g.num_nodes(), rng);
  ThreadPool pool4(4);
  const Vec serial = laplacian_apply(g, x, nullptr);
  EXPECT_EQ(laplacian_apply(g, x, &pool4), serial);
  // Both overloads share one canonical per-vertex gather association (the
  // serial overload forwards to the pooled kernel with a null pool), so the
  // agreement is exact — bit-for-bit, not within-tolerance.
  const Vec reference = laplacian_apply(g, x);
  EXPECT_EQ(serial, reference);
}

TEST(BlockedKernels, CholeskyPoolSolveInvariantAndExact) {
  Rng rng(104);
  const Graph g = make_weighted_grid(9, 9, rng);
  const GroundedCholesky chol(g);
  const Vec b = random_rhs(g.num_nodes(), rng);
  ThreadPool pool4(4);
  const Vec serial = chol.solve(b, nullptr);
  EXPECT_EQ(chol.solve(b, &pool4), serial);
  // Still an exact solve of the same system.
  const Vec r = sub(b, laplacian_apply(g, serial));
  EXPECT_LT(norm2(r), 1e-9 * (norm2(b) + 1));
}

TEST(BlockedKernels, CholeskyBatchMatchesPerRhsSolves) {
  Rng rng(105);
  const Graph g = make_weighted_grid(8, 8, rng);
  const GroundedCholesky chol(g);
  std::vector<Vec> bs;
  for (int i = 0; i < 5; ++i) bs.push_back(random_rhs(g.num_nodes(), rng));
  ThreadPool pool4(4);
  const std::vector<Vec> batched = chol.solve_batch(bs, &pool4);
  ASSERT_EQ(batched.size(), bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_EQ(batched[i], chol.solve(bs[i]));  // bitwise per-slot identity
  }
}

TEST(Laplacian, ApplyMatchesDense) {
  Rng rng(1);
  const Graph g = make_weighted_grid(4, 4, rng);
  const auto dense = laplacian_dense(g);
  const Vec x = random_rhs(g.num_nodes(), rng);
  const Vec y = laplacian_apply(g, x);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    double expected = 0;
    for (std::size_t j = 0; j < g.num_nodes(); ++j) expected += dense[i][j] * x[j];
    EXPECT_NEAR(y[i], expected, 1e-10);
  }
}

TEST(Laplacian, QuadraticFormMatchesApply) {
  Rng rng(2);
  const Graph g = make_weighted_grid(3, 5, rng);
  const Vec x = random_rhs(g.num_nodes(), rng);
  EXPECT_NEAR(laplacian_quadratic_form(g, x), dot(x, laplacian_apply(g, x)),
              1e-10);
}

TEST(Laplacian, KernelIsConstantVector) {
  const Graph g = make_cycle(7);
  const Vec ones(7, 3.0);
  const Vec y = laplacian_apply(g, ones);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Laplacian, RhsValidity) {
  EXPECT_TRUE(is_valid_rhs({1.0, -1.0}));
  EXPECT_FALSE(is_valid_rhs({1.0, 1.0}));
}

TEST(Cholesky, ExactOnSmallSystems) {
  Rng rng(3);
  const Graph g = make_weighted_grid(4, 4, rng);
  const GroundedCholesky chol(g);
  const Vec b = random_rhs(g.num_nodes(), rng);
  const Vec x = chol.solve(b);
  const Vec r = sub(b, laplacian_apply(g, x));
  EXPECT_LT(norm2(r), 1e-9 * (norm2(b) + 1));
  // Mean-zero representative.
  double sum = 0;
  for (double v : x) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Cholesky, RejectsBadRhs) {
  const Graph g = make_path(4);
  const GroundedCholesky chol(g);
  EXPECT_THROW(chol.solve({1, 1, 1, 1}), std::invalid_argument);
}

TEST(Cholesky, RejectsDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(GroundedCholesky{g}, std::invalid_argument);
}

TEST(Cg, MatchesCholesky) {
  Rng rng(4);
  const Graph g = make_weighted_grid(5, 5, rng);
  const Vec b = random_rhs(g.num_nodes(), rng);
  const GroundedCholesky chol(g);
  const Vec x_ref = chol.solve(b);
  SolveOptions options;
  options.tolerance = 1e-10;
  const SolveResult result = solve_laplacian_cg(g, b, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(relative_error_in_l_norm(g, result.x, x_ref), 1e-6);
}

TEST(Cg, ZeroRhsReturnsZero) {
  const Graph g = make_path(5);
  const SolveResult result = solve_laplacian_cg(g, Vec(5, 0.0));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  for (double v : result.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PreconditionedCg, IdentityPreconditionerMatchesCg) {
  Rng rng(5);
  const Graph g = make_weighted_grid(4, 5, rng);
  const Vec b = random_rhs(g.num_nodes(), rng);
  SolveOptions options;
  options.tolerance = 1e-10;
  const auto op = [&](const Vec& x) { return laplacian_apply(g, x); };
  const auto id = [](const Vec& x) { return x; };
  const SolveResult pcg = preconditioned_cg(op, id, b, options);
  const SolveResult cg = conjugate_gradient(op, b, options);
  EXPECT_TRUE(pcg.converged);
  EXPECT_NEAR(relative_error_in_l_norm(g, pcg.x, cg.x), 0.0, 1e-5);
}

TEST(PreconditionedCg, ExactPreconditionerConvergesInOneIteration) {
  Rng rng(6);
  const Graph g = make_weighted_grid(4, 4, rng);
  const GroundedCholesky chol(g);
  const Vec b = random_rhs(g.num_nodes(), rng);
  const auto op = [&](const Vec& x) { return laplacian_apply(g, x); };
  const auto precond = [&](const Vec& r) { return chol.solve(r); };
  const SolveResult result = preconditioned_cg(op, precond, b);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 2u);
}

TEST(RelativeError, InvariantToConstantShift) {
  Rng rng(8);
  const Graph g = make_grid(3, 3);
  Vec x = random_rhs(9, rng);
  Vec shifted = x;
  for (double& v : shifted) v += 5.0;
  EXPECT_NEAR(relative_error_in_l_norm(g, shifted, x), 0.0, 1e-10);
}

class CgFamilyTest : public ::testing::TestWithParam<int> {};

TEST_P(CgFamilyTest, ResidualBelowToleranceAcrossFamilies) {
  Rng rng(100 + GetParam());
  Graph g;
  switch (GetParam() % 4) {
    case 0: g = make_cycle(24); break;
    case 1: g = make_weighted_grid(5, 5, rng); break;
    case 2: g = make_random_regular(24, 4, rng); break;
    default: g = make_random_tree(30, rng); break;
  }
  const Vec b = random_rhs(g.num_nodes(), rng);
  SolveOptions options;
  options.tolerance = 1e-9;
  const SolveResult result = solve_laplacian_cg(g, b, options);
  EXPECT_TRUE(result.converged);
  const Vec r = sub(b, laplacian_apply(g, result.x));
  EXPECT_LT(norm2(r), 1e-7 * (norm2(b) + 1));
}

INSTANTIATE_TEST_SUITE_P(Families, CgFamilyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace dls
