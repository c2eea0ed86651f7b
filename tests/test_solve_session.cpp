// Batched multi-RHS solve sessions (docs/BATCHING.md): the determinism
// contract (batch ≡ N sequential solves, bitwise, for every pool), the
// amortized batch charging model, the per-solve accounting fixes, degenerate
// right-hand sides, and the typed tiny-denominator watchdog path. All suite
// names carry the "SolveBatch" prefix so the TSan preset picks them up.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "laplacian/recursive_solver.hpp"
#include "linalg/solvers.hpp"
#include "util/thread_pool.hpp"

namespace dls {
namespace {

Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.next_double() * 2 - 1;
  project_mean_zero(b);
  return b;
}

std::vector<Vec> random_batch(std::size_t k, std::size_t n,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> bs;
  bs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) bs.push_back(random_rhs(n, rng));
  return bs;
}

Graph weighted_grid(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return make_weighted_grid(rows, cols, rng);
}

LaplacianSolverOptions quick_options(double tol = 1e-6) {
  LaplacianSolverOptions options;
  options.tolerance = tol;
  options.base_size = 40;
  return options;
}

/// A fresh, fully deterministic solver stack: everything (chain sampling,
/// oracle measurement) is derived from `seed`, so two Rigs with the same
/// arguments are interchangeable down to the last bit.
struct Rig {
  Graph g;
  Rng rng;
  ShortcutPaOracle oracle;
  DistributedLaplacianSolver solver;

  Rig(Graph graph, std::uint64_t seed,
      const LaplacianSolverOptions& options = quick_options())
      : g(std::move(graph)), rng(seed), oracle(g, rng),
        solver(oracle, rng, options) {}
};

void expect_reports_equal(const LaplacianSolveReport& a,
                          const LaplacianSolveReport& b) {
  EXPECT_EQ(a.x, b.x);  // bitwise, not within-tolerance
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.relative_residual, b.relative_residual);
  EXPECT_EQ(a.residual_history, b.residual_history);
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  EXPECT_EQ(a.pa_calls, b.pa_calls);
  EXPECT_EQ(a.local_rounds, b.local_rounds);
  EXPECT_EQ(a.global_rounds, b.global_rounds);
  EXPECT_EQ(a.hybrid_rounds, b.hybrid_rounds);
  EXPECT_EQ(a.watchdog.incidents, b.watchdog.incidents);
  EXPECT_EQ(a.watchdog.restarts, b.watchdog.restarts);
  EXPECT_EQ(a.watchdog.refinements, b.watchdog.refinements);
  EXPECT_EQ(a.watchdog.gave_up, b.watchdog.gave_up);
  EXPECT_EQ(a.recovery, b.recovery);
  EXPECT_EQ(a.degraded.has_value(), b.degraded.has_value());
}

// --- Tentpole: batch ≡ sequential, bitwise, for every pool/batch size. ----

TEST(SolveBatchDeterminism, BitIdenticalToSequentialSolves) {
  const Graph g = make_grid(9, 9);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    const std::vector<Vec> bs = random_batch(k, g.num_nodes(), 1000 + k);
    // Reference: k sequential solve() calls on a fresh solver.
    Rig seq(g, 77);
    std::vector<LaplacianSolveReport> ref;
    for (const Vec& b : bs) ref.push_back(seq.solver.solve(b));
    // Batched, across thread counts (nullptr = inline fan-out).
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{4}}) {
      Rig bat(g, 77);
      std::vector<LaplacianSolveReport> got;
      if (threads == 0) {
        got = bat.solver.solve_batch(bs, nullptr);
      } else {
        ThreadPool pool(threads);
        got = bat.solver.solve_batch(bs, &pool);
      }
      ASSERT_EQ(got.size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        SCOPED_TRACE("batch=" + std::to_string(k) + " threads=" +
                     std::to_string(threads) + " slot=" + std::to_string(i));
        EXPECT_TRUE(got[i].converged);
        expect_reports_equal(got[i], ref[i]);
      }
    }
  }
}

TEST(SolveBatchDeterminism, BatchLedgerThreadCountInvariant) {
  const Graph g = weighted_grid(8, 8, 5);
  const std::vector<Vec> bs = random_batch(6, g.num_nodes(), 42);

  Rig one(g, 9);
  SolveSession session_one(one.solver);
  ThreadPool pool_one(1);
  const auto r1 = session_one.solve_batch(bs, &pool_one);

  Rig four(g, 9);
  SolveSession session_four(four.solver);
  ThreadPool pool_four(4);
  const auto r4 = session_four.solve_batch(bs, &pool_four);

  // Bit-identical amortized ledgers AND oracle ledgers across thread counts.
  EXPECT_TRUE(session_one.last_batch_ledger() == session_four.last_batch_ledger());
  EXPECT_TRUE(one.oracle.ledger() == four.oracle.ledger());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    expect_reports_equal(r1[i], r4[i]);
  }
  EXPECT_EQ(session_one.batches_run(), 1u);
  EXPECT_EQ(session_one.rhs_solved(), bs.size());
}

// --- Amortized batch charging. --------------------------------------------

TEST(SolveBatchAccounting, SingleRhsBatchChargesSequentialRounds) {
  // A batch of one pipelines nothing: the amortized ledger must equal the
  // slot's own sequential-equivalent accounting exactly.
  const Graph g = make_grid(9, 9);
  Rig rig(g, 21);
  SolveSession session(rig.solver);
  const auto reports = session.solve_batch(random_batch(1, g.num_nodes(), 7));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(session.last_batch_ledger().total_local(),
            reports[0].local_rounds);
  EXPECT_EQ(session.last_batch_ledger().total_global(),
            reports[0].global_rounds);
}

TEST(SolveBatchAccounting, BatchedRoundsBeatSequentialReplay) {
  // The point of batching: k concurrent matvecs over one measured instance
  // are one pipelined congested phase, not k replays.
  const Graph g = make_grid(9, 9);
  const std::size_t k = 8;
  Rig rig(g, 33);
  const std::uint64_t before = rig.oracle.ledger().total_local();
  const auto reports =
      rig.solver.solve_batch(random_batch(k, g.num_nodes(), 11));
  const std::uint64_t batched = rig.oracle.ledger().total_local() - before;
  std::uint64_t replay = 0;
  for (const auto& r : reports) replay += r.local_rounds;
  EXPECT_LT(batched, replay);
  EXPECT_GT(batched, 0u);
  // The absorbed entries carry the batch prefix.
  bool saw_batch_entry = false;
  for (const LedgerEntry& e : rig.oracle.ledger().entries()) {
    if (e.label.rfind("batch/", 0) == 0) saw_batch_entry = true;
  }
  EXPECT_TRUE(saw_batch_entry);
}

// --- Satellite: repeated solve() accounting. ------------------------------

TEST(SolveBatchRegression, BackToBackSolvesIdenticalReports) {
  const Graph g = weighted_grid(8, 8, 6);
  Rig rig(g, 55);
  Rng rhs_rng(19);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  const LaplacianSolveReport first = rig.solver.solve(b);
  const auto stats_first = rig.solver.level_stats();
  const LaplacianSolveReport second = rig.solver.solve(b);
  const auto stats_second = rig.solver.level_stats();
  EXPECT_TRUE(first.converged);
  expect_reports_equal(first, second);
  // level_stats() snapshots the most recent call; nothing accumulates.
  ASSERT_EQ(stats_first.size(), stats_second.size());
  for (std::size_t l = 0; l < stats_first.size(); ++l) {
    EXPECT_EQ(stats_first[l].pa_retries, stats_second[l].pa_retries);
    EXPECT_EQ(stats_first[l].pa_rebuilds, stats_second[l].pa_rebuilds);
    EXPECT_EQ(stats_first[l].pa_degradations,
              stats_second[l].pa_degradations);
  }
}

TEST(SolveBatchRegression, SolveAfterBatchMatchesSolveBefore) {
  // Interleaving a batch between two sequential solves must not disturb the
  // sequential path's delta-based accounting.
  const Graph g = make_grid(9, 9);
  Rig rig(g, 71);
  Rng rhs_rng(23);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  const LaplacianSolveReport before = rig.solver.solve(b);
  rig.solver.solve_batch(random_batch(4, g.num_nodes(), 29));
  const LaplacianSolveReport after = rig.solver.solve(b);
  expect_reports_equal(before, after);
}

// --- Satellite: degenerate right-hand sides. ------------------------------

TEST(SolveBatchDegenerate, ZeroAndConstantRhs) {
  const Graph g = make_grid(6, 6);
  for (const double fill : {0.0, 3.25}) {
    Rig rig(g, 81);
    const LaplacianSolveReport report =
        rig.solver.solve(Vec(g.num_nodes(), fill));
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.outer_iterations, 0u);
    EXPECT_EQ(report.relative_residual, 0.0);
    EXPECT_EQ(norm2(report.x), 0.0);
    EXPECT_TRUE(report.residual_history.empty());
    EXPECT_GT(report.local_rounds, 0u);  // ‖b‖ dot + certificate
    EXPECT_GT(report.pa_calls, 0u);
  }
}

TEST(SolveBatchDegenerate, NonMeanZeroRhsIsProjected) {
  const Graph g = make_grid(7, 7);
  Rig rig(g, 83);
  Rng rhs_rng(31);
  Vec b = random_rhs(g.num_nodes(), rhs_rng);
  for (double& v : b) v += 0.75;  // push b out of range(L)
  const LaplacianSolveReport report = rig.solver.solve(b);
  EXPECT_TRUE(report.converged);
  // The solve answered L x = Πb: check against a tight sequential reference.
  Vec projected = b;
  project_mean_zero(projected);
  SolveOptions ref_options;
  ref_options.tolerance = 1e-12;
  const SolveResult ref = solve_laplacian_cg(g, projected, ref_options);
  EXPECT_LT(relative_error_in_l_norm(g, report.x, ref.x), 1e-4);
}

TEST(SolveBatchDegenerate, MixedBatchHandlesDegenerateSlots) {
  const Graph g = make_grid(6, 6);
  std::vector<Vec> bs;
  bs.push_back(Vec(g.num_nodes(), 0.0));  // zero
  Rng rhs_rng(37);
  bs.push_back(random_rhs(g.num_nodes(), rhs_rng));  // healthy
  bs.push_back(Vec(g.num_nodes(), -1.5));            // constant
  Rig rig(g, 85);
  ThreadPool pool(4);
  const auto reports = rig.solver.solve_batch(bs, &pool);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) EXPECT_TRUE(r.converged);
  EXPECT_EQ(norm2(reports[0].x), 0.0);
  EXPECT_EQ(norm2(reports[2].x), 0.0);
  EXPECT_GT(norm2(reports[1].x), 0.0);
}

// --- Satellite: typed tiny-denominator watchdog path. ---------------------

TEST(SolveBatchWatchdog, TinyDenominatorRaisesTypedSignal) {
  // Force the trip deterministically: with denominator_limit ≪ 1 the healthy
  // first PCG step (alpha = rz/pap of order 1) already violates the bound.
  const Graph g = make_grid(9, 9);
  LaplacianSolverOptions options = quick_options();
  options.watchdog.denominator_limit = 1e-3;
  Rig rig(g, 91, options);
  Rng rhs_rng(41);
  const LaplacianSolveReport report =
      rig.solver.solve(random_rhs(g.num_nodes(), rhs_rng));
  EXPECT_TRUE(report.watchdog.triggered());
  bool saw_tiny = false;
  for (const WatchdogIncident& incident : report.watchdog.incidents) {
    if (incident.signal == WatchdogSignal::kTinyDenominator) saw_tiny = true;
  }
  EXPECT_TRUE(saw_tiny);
  // The remediation is typed on the ledger, never a silent break.
  EXPECT_GT(report.recovery.watchdog_restarts, 0u);
  bool saw_typed_event = false;
  for (const RecoveryEvent& e : rig.oracle.ledger().recovery_events()) {
    if (e.action == RecoveryAction::kWatchdogRestart &&
        e.detail == "tiny-denominator") {
      saw_typed_event = true;
    }
  }
  EXPECT_TRUE(saw_typed_event);
}

TEST(SolveBatchWatchdog, NearSingularPathEndsTypedOrConverged) {
  // Weighted path with a 12-orders-of-magnitude weight cliff: the grounded
  // system is near-singular, the worst case for the PCG divisors. The
  // contract is "no silent failure": the solve either converges or leaves a
  // typed trace (watchdog incidents or a degraded result) — and the iterate
  // stays finite either way.
  const std::size_t n = 64;
  Graph g(n);
  for (std::size_t v = 0; v + 1 < n; ++v) {
    g.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(v + 1),
               v % 2 == 0 ? 1.0 : 1e-12);
  }
  Rig rig(std::move(g), 93);
  Rng rhs_rng(43);
  Vec b = random_rhs(n, rhs_rng);
  const LaplacianSolveReport report = rig.solver.solve(b);
  // The iterate and the report stay honest: x is finite, the reported
  // residual matches an independent recomputation (no stale iterate behind a
  // stale number), and a success claim is backed by the certificate bound.
  EXPECT_TRUE(all_finite(report.x));
  project_mean_zero(b);
  const Vec residual = sub(b, laplacian_apply(rig.g, report.x));
  const double rel = norm2(residual) / norm2(b);
  EXPECT_NEAR(report.relative_residual, rel, 1e-9 * (1.0 + rel));
  if (report.converged) {
    EXPECT_LE(report.relative_residual, 2e-6 + 1e-12);
  } else {
    // Non-convergence is typed or budget-bound, never a silent early break:
    // with a watchdog attached the pap<=0 escape no longer exists.
    EXPECT_TRUE(report.watchdog.triggered() || report.degraded.has_value() ||
                report.outer_iterations > 0);
    EXPECT_FALSE(report.residual_history.empty());
  }
}

}  // namespace
}  // namespace dls
