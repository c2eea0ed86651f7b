// Warm solver-state cache (docs/CACHING.md): the warm-vs-cold determinism
// contract, the round savings that justify the cache, LRU eviction under
// entry and byte budgets, the update_weights classification ladder with its
// boundaries pinned, and the strong exception guarantee under fault
// injection. All suite names carry the "SolverCache" prefix so the TSan
// preset picks them up.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "laplacian/solver_cache.hpp"
#include "linalg/solvers.hpp"
#include "sim/fault_injection.hpp"
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

LaplacianSolverOptions quick_options(double tol = 1e-6) {
  LaplacianSolverOptions options;
  options.tolerance = tol;
  options.base_size = 40;
  return options;
}

/// A fresh, fully deterministic cold stack over a selectable oracle model —
/// the reference a cache entry must be bit-interchangeable with.
struct ColdRig {
  Graph g;
  Rng rng;
  std::unique_ptr<CongestedPaOracle> oracle;
  DistributedLaplacianSolver solver;

  static std::unique_ptr<CongestedPaOracle> make_oracle(const Graph& g,
                                                        Rng& rng,
                                                        CacheOracleKind kind) {
    switch (kind) {
      case CacheOracleKind::kShortcutSupported:
        return std::make_unique<ShortcutPaOracle>(g, rng);
      case CacheOracleKind::kShortcutCongest:
        return std::make_unique<ShortcutPaOracle>(
            g, rng, SchedulingPolicy::kRandomPriority, PaModel::kCongest);
      case CacheOracleKind::kNcc:
        return std::make_unique<NccPaOracle>(g, rng);
      case CacheOracleKind::kBaseline:
        return std::make_unique<BaselinePaOracle>(g, rng);
    }
    return nullptr;
  }

  ColdRig(Graph graph, std::uint64_t seed,
          const LaplacianSolverOptions& options = quick_options(),
          CacheOracleKind kind = CacheOracleKind::kShortcutSupported)
      : g(std::move(graph)), rng(seed),
        oracle(make_oracle(g, rng, kind)),
        solver(*oracle, rng, options) {}
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
}

double residual_on(const Graph& g, const Vec& x, const Vec& b) {
  Vec r = b;
  project_mean_zero(r);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const double flow = edge.weight * (x[edge.u] - x[edge.v]);
    r[edge.u] -= flow;
    r[edge.v] += flow;
  }
  double rr = 0, bb = 0;
  Vec pb = b;
  project_mean_zero(pb);
  for (std::size_t i = 0; i < r.size(); ++i) {
    rr += r[i] * r[i];
    bb += pb[i] * pb[i];
  }
  return std::sqrt(rr / bb);
}

SolverCacheOptions cache_options(
    CacheOracleKind kind = CacheOracleKind::kShortcutSupported,
    std::uint64_t seed = 77) {
  SolverCacheOptions options;
  options.solver = quick_options();
  options.oracle = kind;
  options.seed = seed;
  return options;
}

// --- Determinism: warm ≡ cold, bitwise. -----------------------------------

TEST(SolverCacheDeterminism, WarmSolvesBitIdenticalToColdSupported) {
  const Graph g = make_grid(9, 9);
  const std::vector<Vec> bs = random_batch(4, g.num_nodes(), 11);

  SolverCache cache(cache_options(CacheOracleKind::kShortcutSupported, 77));
  auto acquired = cache.acquire(g);
  EXPECT_FALSE(acquired.hit);

  for (std::size_t i = 0; i < bs.size(); ++i) {
    SCOPED_TRACE("rhs=" + std::to_string(i));
    // Reference: a fresh identically-seeded cold stack per rhs. Under
    // Supported-CONGEST the embedded construction cost is zero, so even the
    // charged rounds must agree, not just the numerics.
    ColdRig cold(g, 77);
    const LaplacianSolveReport ref = cold.solver.solve(bs[i]);
    const LaplacianSolveReport warm = acquired.state.solve(bs[i]);
    EXPECT_TRUE(warm.converged);
    expect_reports_equal(warm, ref);
  }
  EXPECT_EQ(acquired.state.solves(), bs.size());
}

TEST(SolverCacheDeterminism, CongestWarmIdenticalValuesFewerRounds) {
  const Graph g = make_grid(9, 9);
  const std::vector<Vec> bs = random_batch(3, g.num_nodes(), 12);

  SolverCache cache(cache_options(CacheOracleKind::kShortcutCongest, 5));
  CachedSolverState& state = cache.acquire(g).state;
  EXPECT_GT(state.build_rounds(), 0u);

  std::vector<Vec> cold_x;
  std::uint64_t cold_rounds = 0;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    SCOPED_TRACE("rhs=" + std::to_string(i));
    ColdRig cold(g, 5, quick_options(), CacheOracleKind::kShortcutCongest);
    const LaplacianSolveReport ref = cold.solver.solve(bs[i]);
    const LaplacianSolveReport warm = state.solve(bs[i]);
    // Warm charging never feeds numerics: identical solution and iteration
    // trajectory...
    EXPECT_EQ(warm.x, ref.x);
    EXPECT_EQ(warm.residual_history, ref.residual_history);
    EXPECT_EQ(warm.outer_iterations, ref.outer_iterations);
    EXPECT_EQ(warm.pa_calls, ref.pa_calls);
    // ...but the CONGEST cold path re-pays shortcut construction inside
    // every PA call, which the entry paid once at build.
    EXPECT_LT(warm.local_rounds, ref.local_rounds);
    cold_rounds += ref.local_rounds + ref.global_rounds;
    cold_x.push_back(ref.x);
  }

  // The same stream through the entry's batched session: the rounds its
  // oracle ledger is actually charged must stay within 40% of the summed
  // cold rounds — the >= 60% batched-savings bar of docs/CACHING.md.
  const RoundLedger& ledger = state.oracle().ledger();
  const std::uint64_t before = ledger.total_local() + ledger.total_global();
  const std::vector<LaplacianSolveReport> batch = state.solve_batch(bs);
  const std::uint64_t batch_rounds =
      ledger.total_local() + ledger.total_global() - before;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_EQ(batch[i].x, cold_x[i]) << "rhs=" << i;
  }
  EXPECT_GT(batch_rounds, 0u);
  EXPECT_LE(static_cast<double>(batch_rounds),
            0.40 * static_cast<double>(cold_rounds));
}

TEST(SolverCacheDeterminism, SecondAcquireIsAHitAndSolvesIdentically) {
  const Graph g = make_grid(8, 8);
  Rng rhs_rng(3);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);

  SolverCache cache(cache_options());
  const LaplacianSolveReport first = cache.acquire(g).state.solve(b);
  auto again = cache.acquire(g);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(again.update.classification, WeightUpdateClass::kNoChange);
  const LaplacianSolveReport second = again.state.solve(b);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A long-lived entry replays measured costs; same rhs → same answer, same
  // per-RHS charge.
  expect_reports_equal(second, first);
}

TEST(SolverCacheDeterminism, BatchedWarmSolvesMatchSequentialWarmSolves) {
  const Graph g = make_grid(8, 8);
  const std::vector<Vec> bs = random_batch(5, g.num_nodes(), 21);

  SolverCache sequential_cache(cache_options());
  CachedSolverState& seq = sequential_cache.acquire(g).state;
  std::vector<LaplacianSolveReport> ref;
  for (const Vec& b : bs) ref.push_back(seq.solve(b));

  SolverCache batched_cache(cache_options());
  ThreadPool pool(4);
  const auto got = batched_cache.acquire(g).state.solve_batch(bs, &pool);
  ASSERT_EQ(got.size(), bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    SCOPED_TRACE("slot=" + std::to_string(i));
    EXPECT_EQ(got[i].x, ref[i].x);
    EXPECT_EQ(got[i].residual_history, ref[i].residual_history);
  }
}

// --- LRU eviction under entry and byte budgets. ---------------------------

TEST(SolverCacheLru, EntryCapEvictsLeastRecentlyUsed) {
  SolverCacheOptions options = cache_options();
  options.max_entries = 2;
  SolverCache cache(options);

  const Graph a = make_grid(6, 6);
  const Graph b = make_cycle(40);
  const Graph c = make_balanced_binary_tree(37);

  cache.acquire(a);
  cache.acquire(b);
  EXPECT_EQ(cache.size(), 2u);
  cache.acquire(a);  // touch: a becomes most-recent, b is now LRU
  cache.acquire(c);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(a));
  EXPECT_FALSE(cache.contains(b));
  EXPECT_TRUE(cache.contains(c));
}

TEST(SolverCacheLru, ByteBudgetEvictsButNeverTheMostRecentEntry) {
  SolverCacheOptions options = cache_options();
  options.memory_budget_bytes = 1;  // every entry alone exceeds this
  SolverCache cache(options);

  const Graph a = make_grid(6, 6);
  const Graph b = make_cycle(40);
  cache.acquire(a);
  // The sole entry is over budget but must survive: serving proceeds.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.total_bytes(), options.memory_budget_bytes);
  cache.acquire(b);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(SolverCacheLru, ApproxBytesAccountsForTheHierarchy) {
  SolverCache cache(cache_options());
  CachedSolverState& small = cache.acquire(make_grid(4, 4)).state;
  CachedSolverState& large = cache.acquire(make_grid(12, 12)).state;
  EXPECT_GT(small.approx_bytes(), sizeof(CachedSolverState));
  EXPECT_GT(large.approx_bytes(), small.approx_bytes());
  EXPECT_EQ(cache.total_bytes(), small.approx_bytes() + large.approx_bytes());
}

// --- The update_weights classification ladder. ----------------------------

TEST(SolverCacheUpdates, MatchingWeightsClassifyAsNoChange) {
  const Graph g = make_grid(7, 7);
  SolverCache cache(cache_options());
  CachedSolverState& state = cache.acquire(g).state;
  std::vector<WeightDelta> deltas;
  for (EdgeId e = 0; e < g.num_edges(); ++e) deltas.push_back({e, g.edge(e).weight});
  const WeightUpdateReport report = state.update_weights(deltas);
  EXPECT_EQ(report.classification, WeightUpdateClass::kNoChange);
  EXPECT_EQ(report.edges_changed, 0u);
  EXPECT_EQ(report.charged_local_rounds, 0u);
}

TEST(SolverCacheUpdates, UniformScalingRescalesExactly) {
  const Graph g = make_grid(7, 7);
  Rng rhs_rng(9);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);

  SolverCache cache(cache_options());
  CachedSolverState& state = cache.acquire(g).state;
  const Vec x1 = state.solve(b).x;

  const double c = 3.0;
  Graph scaled(g.num_nodes());
  for (const Edge& e : g.edges()) scaled.add_edge(e.u, e.v, e.weight * c);
  auto acquired = cache.acquire(scaled);
  EXPECT_TRUE(acquired.hit);
  EXPECT_EQ(acquired.update.classification, WeightUpdateClass::kRescale);
  EXPECT_EQ(acquired.state.weight_scale(), c);

  // (cL)x = b ⇔ x = x₁/c, exactly — same stored solve, one exact division.
  const Vec x2 = acquired.state.solve(b).x;
  ASSERT_EQ(x2.size(), x1.size());
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_EQ(x2[i], x1[i] / c);
  EXPECT_LT(residual_on(scaled, x2, b), 1e-5);
}

TEST(SolverCacheUpdates, SmallOffTreePerturbationReusesPreconditioner) {
  const Graph g = make_grid(7, 7);
  SolverCache cache(cache_options());
  CachedSolverState& state = cache.acquire(g).state;

  // Pick an edge outside the level-0 low-stretch tree: the reuse rung's
  // tighter tree limit must not be what decides this case.
  const std::vector<EdgeId> tree = state.solver().level0_tree_edges();
  ASSERT_FALSE(tree.empty());
  std::vector<char> on_tree(g.num_edges(), 0);
  for (EdgeId e : tree) on_tree[e] = 1;
  EdgeId off_tree = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (on_tree[e] == 0) { off_tree = e; break; }
  }
  ASSERT_NE(off_tree, kInvalidEdge);

  const WeightUpdateReport report =
      state.update_weights({{off_tree, g.edge(off_tree).weight * 1.2}});
  EXPECT_EQ(report.classification, WeightUpdateClass::kReusePreconditioner);
  EXPECT_EQ(report.edges_changed, 1u);
  EXPECT_NEAR(report.spectral_ratio, 1.2, 1e-12);
  EXPECT_EQ(report.tree_ratio, 1.0);
  EXPECT_EQ(report.charged_local_rounds, 1u);

  // The refreshed level-0 operator answers for the *new* graph: residuals
  // are measured against it, so the solve still converges to tolerance.
  Graph perturbed(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    perturbed.add_edge(edge.u, edge.v,
                       e == off_tree ? edge.weight * 1.2 : edge.weight);
  }
  Rng rhs_rng(10);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  const LaplacianSolveReport solved = state.solve(b);
  EXPECT_TRUE(solved.converged);
  EXPECT_LT(residual_on(perturbed, solved.x, b), 1e-5);
}

TEST(SolverCacheUpdates, TreeEdgeDriftEscalatesToPartialRebuild) {
  const Graph g = make_grid(7, 7);
  SolverCache cache(cache_options());
  CachedSolverState& state = cache.acquire(g).state;

  const std::vector<EdgeId> tree = state.solver().level0_tree_edges();
  ASSERT_FALSE(tree.empty());
  const EdgeId e = tree.front();
  // σ = 1.2 is within the generic reuse limit (1.25) but past the tree limit
  // (1.1): the boundary between the first two rungs is the tree check.
  const WeightUpdateReport report =
      state.update_weights({{e, g.edge(e).weight * 1.2}});
  EXPECT_EQ(report.classification, WeightUpdateClass::kPartialRebuild);
  EXPECT_NEAR(report.tree_ratio, 1.2, 1e-12);
  EXPECT_GT(report.charged_local_rounds, 1u);
  // The sweep re-derived the numerics in place: drift resets.
  EXPECT_EQ(state.cumulative_drift(), 1.0);

  Graph perturbed(g.num_nodes());
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& edge = g.edge(id);
    perturbed.add_edge(edge.u, edge.v,
                       id == e ? edge.weight * 1.2 : edge.weight);
  }
  Rng rhs_rng(14);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  const LaplacianSolveReport solved = state.solve(b);
  EXPECT_TRUE(solved.converged);
  EXPECT_LT(residual_on(perturbed, solved.x, b), 1e-5);
}

TEST(SolverCacheUpdates, CumulativeDriftEscalatesEventually) {
  const Graph g = make_grid(7, 7);
  SolverCache cache(cache_options());
  CachedSolverState& state = cache.acquire(g).state;

  const std::vector<EdgeId> tree = state.solver().level0_tree_edges();
  std::vector<char> on_tree(g.num_edges(), 0);
  for (EdgeId e : tree) on_tree[e] = 1;
  EdgeId off_tree = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (on_tree[e] == 0) { off_tree = e; break; }
  }
  ASSERT_NE(off_tree, kInvalidEdge);

  // Repeated ×1.2 nudges: each is individually reusable, but the drift limit
  // (2.0) bounds how far the chain may stray before a sweep. 1.2³ ≈ 1.73
  // still reuses; the fourth nudge (×1.2 ⇒ 2.07 > 2.0) must escalate.
  double w = g.edge(off_tree).weight;
  for (int step = 0; step < 3; ++step) {
    w *= 1.2;
    const WeightUpdateReport r = state.update_weights({{off_tree, w}});
    ASSERT_EQ(r.classification, WeightUpdateClass::kReusePreconditioner)
        << "step " << step;
  }
  EXPECT_NEAR(state.cumulative_drift(), 1.2 * 1.2 * 1.2, 1e-9);
  w *= 1.2;
  const WeightUpdateReport r = state.update_weights({{off_tree, w}});
  EXPECT_EQ(r.classification, WeightUpdateClass::kPartialRebuild);
  EXPECT_EQ(state.cumulative_drift(), 1.0);
}

TEST(SolverCacheUpdates, LargePerturbationTriggersFullRebuild) {
  const Graph g = make_grid(7, 7);
  SolverCache cache(cache_options(CacheOracleKind::kShortcutSupported, 40));
  cache.acquire(g);

  Graph heavy(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    heavy.add_edge(edge.u, edge.v, e == 0 ? edge.weight * 8.0 : edge.weight);
  }
  auto acquired = cache.acquire(heavy);
  EXPECT_TRUE(acquired.hit);
  EXPECT_EQ(acquired.update.classification, WeightUpdateClass::kFullRebuild);
  EXPECT_EQ(acquired.state.full_rebuilds(), 1u);
  EXPECT_EQ(acquired.state.weight_scale(), 1.0);

  // A rebuilt entry is bit-interchangeable with a cold stack on the new
  // weights: same root seed, same construction order.
  Rng rhs_rng(17);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  ColdRig cold(heavy, 40);
  expect_reports_equal(acquired.state.solve(b), cold.solver.solve(b));
}

TEST(SolverCacheUpdates, PartialRebuildTracksAColdSolverWithinTolerance) {
  const Graph g = make_grid(8, 8);
  SolverCache cache(cache_options());
  cache.acquire(g);

  // σ = 3 on two edges: beyond reuse (1.25), within partial (4.0).
  Graph perturbed(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    perturbed.add_edge(edge.u, edge.v,
                       (e == 1 || e == 5) ? edge.weight * 3.0 : edge.weight);
  }
  auto acquired = cache.acquire(perturbed);
  EXPECT_TRUE(acquired.hit);
  EXPECT_EQ(acquired.update.classification, WeightUpdateClass::kPartialRebuild);

  Rng rhs_rng(23);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  const LaplacianSolveReport warm = acquired.state.solve(b);
  EXPECT_TRUE(warm.converged);
  // Not bitwise — the sweep keeps the cached tree and off-tree sample rather
  // than resampling — but it answers the same system to the same tolerance.
  EXPECT_LT(residual_on(perturbed, warm.x, b), 1e-5);
}

// --- Fault injection: a throw must never corrupt cached state. ------------

FaultConfig abort_prone_config() {
  FaultConfig config;
  config.drop_rate = 0.9;
  config.horizon = FaultConfig::kNoHorizon;  // never goes clean
  config.round_limit = 64;                   // wedged phases abort loudly
  return config;
}

TEST(SolverCacheFaults, AbortDuringBuildLeavesCacheEmpty) {
  const Graph g = make_grid(7, 7);
  FaultPlan plan(/*seed=*/77, abort_prone_config());
  SolverCacheOptions options = cache_options(CacheOracleKind::kShortcutCongest);
  options.oracle_hook = [&plan](CongestedPaOracle& oracle) {
    auto* shortcut = dynamic_cast<ShortcutPaOracle*>(&oracle);
    ASSERT_NE(shortcut, nullptr);
    shortcut->set_fault_plan(&plan);
  };
  SolverCache cache(options);
  EXPECT_THROW(cache.acquire(g), ChaosAbortError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(g));
  EXPECT_EQ(cache.total_bytes(), 0u);

  // With the faults cleared the same cache recovers: nothing half-built was
  // retained, so the next acquire builds from scratch and serves.
  SolverCache clean(cache_options(CacheOracleKind::kShortcutCongest));
  Rng rhs_rng(31);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  EXPECT_TRUE(clean.acquire(g).state.solve(b).converged);
}

TEST(SolverCacheFaults, AbortDuringFullRebuildPreservesTheOldEntry) {
  const Graph g = make_grid(7, 7);
  FaultPlan plan(/*seed=*/99, abort_prone_config());
  int builds = 0;
  SolverCacheOptions options = cache_options(CacheOracleKind::kShortcutCongest);
  options.oracle_hook = [&plan, &builds](CongestedPaOracle& oracle) {
    // First build (the entry) is clean; the rebuild's fresh oracle gets the
    // fault plan, so the candidate stack aborts mid-measurement.
    if (++builds >= 2) {
      dynamic_cast<ShortcutPaOracle&>(oracle).set_fault_plan(&plan);
    }
  };
  SolverCache cache(options);
  CachedSolverState& state = cache.acquire(g).state;
  Rng rhs_rng(37);
  const Vec b = random_rhs(g.num_nodes(), rhs_rng);
  const LaplacianSolveReport before = state.solve(b);

  // σ = 8 forces the full-rebuild rung, whose candidate build throws.
  EXPECT_THROW(state.update_weights({{0, g.edge(0).weight * 8.0}}),
               ChaosAbortError);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(state.full_rebuilds(), 0u);

  // Strong guarantee: the entry still answers for its pre-update graph,
  // bit-identically to before.
  const LaplacianSolveReport after = state.solve(b);
  EXPECT_EQ(after.x, before.x);
  EXPECT_EQ(after.residual_history, before.residual_history);
  EXPECT_TRUE(cache.contains(g));
}

// --- Metrics and accounting sanity. ---------------------------------------

TEST(SolverCacheAccounting, BuildChargesLandOnTheEntryLedger) {
  const Graph g = make_grid(8, 8);
  SolverCache cache(cache_options(CacheOracleKind::kShortcutCongest));
  CachedSolverState& state = cache.acquire(g).state;
  ASSERT_GT(state.build_rounds(), 0u);

  const RoundLedger& ledger = state.oracle().ledger();
  std::uint64_t construct = 0, measure = 0, base = 0;
  for (const LedgerEntry& e : ledger.entries()) {
    if (e.label == "cache/construct-hierarchy") construct += e.local_rounds;
    if (e.label == "cache/measure-instances") {
      measure += e.local_rounds + e.global_rounds;
    }
    if (e.label == "cache/base-factor") base += e.local_rounds;
  }
  EXPECT_GT(construct, 0u);
  EXPECT_GT(measure, 0u);
  EXPECT_GT(base, 0u);
  EXPECT_EQ(construct + measure + base, state.build_rounds());
  EXPECT_TRUE(state.oracle().warm_charging());
}

}  // namespace
}  // namespace dls
