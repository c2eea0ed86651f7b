// Tests for the self-healing layer: the numerical watchdog and its kernel
// remediations, the supervisor's escalation ladder at the PA-oracle
// boundary, the typed degradation of an unsupervised abort, and the
// end-to-end property the whole subsystem exists for — a supervised solve
// under fault injection either produces the bit-identical solution of the
// fault-free run or a typed DegradedResult, never an unhandled throw. Clean
// runs must stay bit-identical to an unsupervised build (the determinism
// contract of docs/RESILIENCE.md).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/generators.hpp"
#include "laplacian/recursive_solver.hpp"
#include "linalg/solvers.hpp"
#include "obs/metrics.hpp"
#include "linalg/vector_ops.hpp"
#include "resilience/recovery.hpp"
#include "resilience/solve_supervisor.hpp"
#include "resilience/watchdog.hpp"
#include "sim/fault_injection.hpp"

namespace dls {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- NumericalWatchdog: signal detection -----------------------------------

TEST(Watchdog, CleanObservationsRaiseNothing) {
  NumericalWatchdog wd;
  EXPECT_EQ(wd.check_vector({1.0, -2.0, 0.0}, 0), WatchdogSignal::kNone);
  EXPECT_EQ(wd.check_scalar(3.5, 0), WatchdogSignal::kNone);
  double rel = 1.0;
  for (std::size_t it = 0; it < 100; ++it) {
    EXPECT_EQ(wd.observe_residual(rel, it), WatchdogSignal::kNone);
    rel *= 0.9;
  }
  EXPECT_EQ(wd.observe_beta(0.7, 5), WatchdogSignal::kNone);
  EXPECT_FALSE(wd.triggered());
  EXPECT_EQ(wd.report().anomalies(), 0u);
}

TEST(Watchdog, DetectsNonFiniteVectorAndScalar) {
  NumericalWatchdog wd;
  EXPECT_EQ(wd.check_vector({1.0, kNan, 2.0}, 3),
            WatchdogSignal::kNonFiniteVector);
  EXPECT_EQ(wd.check_scalar(kInf, 4), WatchdogSignal::kNonFiniteScalar);
  EXPECT_EQ(wd.observe_residual(kNan, 5), WatchdogSignal::kNonFiniteScalar);
  ASSERT_EQ(wd.report().incidents.size(), 3u);
  EXPECT_EQ(wd.report().incidents[0],
            (WatchdogIncident{3, WatchdogSignal::kNonFiniteVector}));
  EXPECT_EQ(wd.report().incidents[1],
            (WatchdogIncident{4, WatchdogSignal::kNonFiniteScalar}));
}

TEST(Watchdog, DetectsResidualDivergence) {
  WatchdogConfig config;
  config.divergence_factor = 100.0;
  NumericalWatchdog wd(config);
  EXPECT_EQ(wd.observe_residual(1.0, 0), WatchdogSignal::kNone);
  EXPECT_EQ(wd.observe_residual(0.5, 1), WatchdogSignal::kNone);
  // Divergence is judged against the best residual so far (0.5), not the
  // previous one.
  EXPECT_EQ(wd.observe_residual(49.0, 2), WatchdogSignal::kNone);
  EXPECT_EQ(wd.observe_residual(51.0, 3), WatchdogSignal::kResidualDivergence);
}

TEST(Watchdog, DetectsResidualStagnation) {
  WatchdogConfig config;
  config.stagnation_window = 5;
  NumericalWatchdog wd(config);
  EXPECT_EQ(wd.observe_residual(1.0, 0), WatchdogSignal::kNone);
  for (std::size_t it = 1; it < 5; ++it) {
    EXPECT_EQ(wd.observe_residual(1.0, it), WatchdogSignal::kNone);
  }
  EXPECT_EQ(wd.observe_residual(1.0, 5), WatchdogSignal::kResidualStagnation);
}

TEST(Watchdog, ResetResidualTrackingForgetsHistory) {
  WatchdogConfig config;
  config.stagnation_window = 3;
  config.divergence_factor = 10.0;
  NumericalWatchdog wd(config);
  EXPECT_EQ(wd.observe_residual(0.01, 0), WatchdogSignal::kNone);
  wd.reset_residual_tracking();
  // Without the reset this would be a 100x divergence over best = 0.01.
  EXPECT_EQ(wd.observe_residual(1.0, 1), WatchdogSignal::kNone);
}

TEST(Watchdog, DetectsBetaExplosion) {
  WatchdogConfig config;
  config.beta_limit = 1e3;
  NumericalWatchdog wd(config);
  EXPECT_EQ(wd.observe_beta(-999.0, 0), WatchdogSignal::kNone);
  EXPECT_EQ(wd.observe_beta(-1001.0, 1), WatchdogSignal::kBetaExplosion);
}

TEST(Watchdog, RestartBudgetExhaustionSetsGaveUp) {
  WatchdogConfig config;
  config.max_restarts = 2;
  NumericalWatchdog wd(config);
  EXPECT_TRUE(wd.allow_restart());
  EXPECT_TRUE(wd.allow_restart());
  EXPECT_FALSE(wd.report().gave_up);
  EXPECT_FALSE(wd.allow_restart());
  EXPECT_TRUE(wd.report().gave_up);
  EXPECT_EQ(wd.report().restarts, 2u);
}

TEST(Watchdog, DisabledConfigIsInert) {
  WatchdogConfig config;
  config.enabled = false;
  NumericalWatchdog wd(config);
  EXPECT_EQ(wd.check_vector({kNan}, 0), WatchdogSignal::kNone);
  EXPECT_EQ(wd.check_scalar(kInf, 0), WatchdogSignal::kNone);
  EXPECT_EQ(wd.observe_residual(kNan, 0), WatchdogSignal::kNone);
  EXPECT_EQ(wd.observe_beta(kInf, 0), WatchdogSignal::kNone);
  EXPECT_FALSE(wd.triggered());
}

// --- Watchdog remediation inside the iteration kernels ---------------------

/// Deterministic mean-zero rhs with no special spectral structure (a plain
/// ramp excites so few eigenmodes on small grids that CG can finish before a
/// deliberately poisoned late matvec call ever happens).
Vec messy_rhs(std::size_t n) {
  Vec b(n);
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<double>((i * 2654435761u) % 97);
    mean += b[i];
  }
  mean /= static_cast<double>(n);
  for (double& v : b) v -= mean;
  return b;
}

TEST(WatchdogKernels, CgRecoversFromTransientNanMatvec) {
  const Graph g = make_grid(4, 4);
  const Vec b = messy_rhs(g.num_nodes());
  std::size_t calls = 0;
  const LinearOperator poisoned = [&](const Vec& x) {
    Vec y = laplacian_apply(g, x);
    if (++calls == 3) y[1] = kNan;  // one transient corruption
    return y;
  };
  const SolveResult result = conjugate_gradient(poisoned, b);
  EXPECT_TRUE(result.converged) << result.residual_norm;
  EXPECT_TRUE(all_finite(result.x));
  ASSERT_TRUE(result.watchdog.triggered());
  EXPECT_EQ(result.watchdog.incidents[0].signal,
            WatchdogSignal::kNonFiniteVector);
  EXPECT_GE(result.watchdog.restarts, 1u);
  EXPECT_FALSE(result.watchdog.gave_up);
}

TEST(WatchdogKernels, CgPersistentNanFailsTypedNotPoisoned) {
  const Graph g = make_path(8);
  const Vec b = messy_rhs(g.num_nodes());
  const LinearOperator broken = [n = g.num_nodes()](const Vec&) {
    return Vec(n, kNan);
  };
  const SolveResult result = conjugate_gradient(broken, b);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.watchdog.gave_up);
  EXPECT_EQ(result.watchdog.restarts, WatchdogConfig{}.max_restarts);
  // The iterate never absorbs a NaN: the typed failure keeps x finite.
  EXPECT_TRUE(all_finite(result.x));
}

TEST(WatchdogKernels, NonFiniteRhsFailsImmediately) {
  Vec b = messy_rhs(8);
  b[3] = kInf;
  const Graph g = make_path(8);
  const SolveResult result = solve_laplacian_cg(g, b);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  ASSERT_TRUE(result.watchdog.triggered());
  EXPECT_TRUE(all_finite(result.x));
}

TEST(WatchdogKernels, PcgRecoversFromPoisonedPreconditioner) {
  const Graph g = make_grid(4, 4);
  const Vec b = messy_rhs(g.num_nodes());
  const LinearOperator op = [&g](const Vec& x) {
    return laplacian_apply(g, x);
  };
  std::size_t calls = 0;
  const LinearOperator precond = [&](const Vec& r) {
    if (++calls == 2) return Vec(r.size(), kNan);
    return r;  // identity preconditioner otherwise
  };
  const SolveResult result = preconditioned_cg(op, precond, b);
  EXPECT_TRUE(result.converged) << result.residual_norm;
  ASSERT_TRUE(result.watchdog.triggered());
  EXPECT_GE(result.watchdog.restarts, 1u);
  EXPECT_TRUE(all_finite(result.x));
}

TEST(WatchdogKernels, CleanSolveBitIdenticalWithWatchdogDisabled) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());
  SolveOptions off;
  off.watchdog.enabled = false;
  const SolveResult guarded = solve_laplacian_cg(g, b);   // watchdog default-on
  const SolveResult bare = solve_laplacian_cg(g, b, off);
  // The determinism contract: on a healthy run the watchdog observes and
  // never perturbs — identical iterates, bit for bit.
  EXPECT_EQ(guarded.x, bare.x);
  EXPECT_EQ(guarded.iterations, bare.iterations);
  EXPECT_EQ(guarded.residual_norm, bare.residual_norm);
  EXPECT_FALSE(guarded.watchdog.triggered());
}

// --- SupervisedPaOracle: the escalation ladder -----------------------------

/// Deterministic fault source for ladder tests: the first `failures` measure
/// calls throw ChaosAbortError (with a small partial ledger, like a wedged
/// phase would carry); later calls return a fixed cost.
class FlakyOracle final : public CongestedPaOracle {
 public:
  FlakyOracle(const Graph& g, std::size_t failures)
      : CongestedPaOracle(g), failures_(failures) {}
  std::string name() const override { return "flaky"; }
  std::size_t measure_calls() const { return calls_; }

 protected:
  Measured measure(const PartCollection&) override {
    ++calls_;
    if (calls_ <= failures_) {
      RoundLedger partial;
      partial.charge_local(7, "flaky/wedged-phase");
      throw ChaosAbortError("flaky oracle wedged", partial);
    }
    return {5, 0, 0, {}};
  }

 private:
  std::size_t failures_ = 0;
  std::size_t calls_ = 0;
};

PartCollection whole_graph_part(const Graph& g) {
  PartCollection pc;
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  pc.parts.push_back(std::move(all));
  return pc;
}

std::vector<std::vector<double>> twos(const PartCollection& pc) {
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 2.0);
  }
  return values;
}

TEST(Supervisor, ModeParsing) {
  EXPECT_EQ(supervisor_mode_from_string("off"), SupervisorMode::kOff);
  EXPECT_EQ(supervisor_mode_from_string("retry"), SupervisorMode::kRetry);
  EXPECT_EQ(supervisor_mode_from_string("degrade"), SupervisorMode::kDegrade);
  EXPECT_THROW(supervisor_mode_from_string("sometimes"),
               std::invalid_argument);
  EXPECT_STREQ(to_string(SupervisorMode::kDegrade), "degrade");
}

TEST(Supervisor, OffModeIsTransparentAndPropagatesFailures) {
  const Graph g = make_path(8);
  FlakyOracle flaky(g, 1);
  SupervisorConfig config;
  config.mode = SupervisorMode::kOff;
  SupervisedPaOracle sup(flaky, config);
  const PartCollection pc = whole_graph_part(g);
  EXPECT_THROW(sup.aggregate_once(pc, twos(pc), AggregationMonoid::sum()),
               ChaosAbortError);
  EXPECT_TRUE(sup.ledger().recovery_events().empty());
  EXPECT_EQ(sup.tier(), EscalationTier::kNone);
}

TEST(Supervisor, RetriesRecoverTransientFailures) {
  const Graph g = make_path(8);
  FlakyOracle flaky(g, 2);  // two wedged attempts, then healthy
  SupervisedPaOracle sup(flaky);
  const PartCollection pc = whole_graph_part(g);
  const std::vector<double> results =
      sup.aggregate_once(pc, twos(pc), AggregationMonoid::sum());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 16.0);  // exact fold despite the failed attempts
  EXPECT_EQ(sup.tier(), EscalationTier::kRetry);
  EXPECT_EQ(flaky.measure_calls(), 3u);

  const RecoveryCounters counters = sup.counters();
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.rebuilds, 0u);
  EXPECT_EQ(counters.degradations, 0u);
  // Each retry records the 7 wasted rounds plus a positive backoff wait, and
  // those rounds are charged on the ledger, not just annotated.
  EXPECT_GT(counters.rounds_lost, 2u * 7u);
  bool charged_failed_attempt = false;
  for (const LedgerEntry& e : sup.ledger().entries()) {
    charged_failed_attempt |= e.label == "supervisor/failed-attempt";
  }
  EXPECT_TRUE(charged_failed_attempt);
}

TEST(Supervisor, RebuildsAfterRetryBudget) {
  const Graph g = make_path(8);
  SupervisorConfig config;
  config.retry_budget = 3;
  config.rebuild_budget = 1;
  // Initial try + 3 retries all wedge; the rebuild (call 5) succeeds.
  FlakyOracle flaky(g, 4);
  SupervisedPaOracle sup(flaky, config);
  const PartCollection pc = whole_graph_part(g);
  const std::vector<double> results =
      sup.aggregate_once(pc, twos(pc), AggregationMonoid::sum());
  EXPECT_EQ(results[0], 16.0);
  EXPECT_EQ(sup.tier(), EscalationTier::kRebuild);
  EXPECT_EQ(flaky.measure_calls(), 5u);
  EXPECT_EQ(sup.counters().retries, 3u);
  EXPECT_EQ(sup.counters().rebuilds, 1u);
  EXPECT_EQ(sup.counters().degradations, 0u);
}

TEST(Supervisor, DegradesToBaselineAndStaysDegraded) {
  const Graph g = make_path(8);
  FlakyOracle flaky(g, 1000);  // the primary never comes back
  SupervisedPaOracle sup(flaky);
  const PartCollection pc = whole_graph_part(g);
  const std::vector<double> results =
      sup.aggregate_once(pc, twos(pc), AggregationMonoid::sum());
  EXPECT_EQ(results[0], 16.0);  // the baseline fallback still aggregates
  EXPECT_TRUE(sup.degraded());
  EXPECT_EQ(sup.tier(), EscalationTier::kDegrade);
  EXPECT_EQ(sup.counters().degradations, 1u);
  const std::size_t calls_at_degrade = flaky.measure_calls();

  // Degradation is sticky: a later instance goes straight to the baseline
  // without poking the suspect primary again.
  PartCollection segments;
  segments.parts.push_back({0, 1, 2});
  segments.parts.push_back({4, 5, 6});
  const std::vector<double> later =
      sup.aggregate_once(segments, twos(segments), AggregationMonoid::sum());
  EXPECT_EQ(later, (std::vector<double>{6.0, 6.0}));
  EXPECT_EQ(flaky.measure_calls(), calls_at_degrade);
  EXPECT_EQ(sup.counters().degradations, 1u);  // no second degrade event
}

TEST(Supervisor, RetryModeRethrowsTypedAfterLadderCap) {
  const Graph g = make_path(8);
  SupervisorConfig config;
  config.mode = SupervisorMode::kRetry;
  FlakyOracle flaky(g, 1000);
  SupervisedPaOracle sup(flaky, config);
  const PartCollection pc = whole_graph_part(g);
  try {
    sup.aggregate_once(pc, twos(pc), AggregationMonoid::sum());
    FAIL() << "expected ChaosAbortError";
  } catch (const ChaosAbortError& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos);
    // The abort's ledger carries the recovery trace for diagnosis.
    EXPECT_GT(e.ledger().recovery_count(RecoveryAction::kRetry), 0u);
  }
  EXPECT_EQ(highest_tier(sup.ledger()), EscalationTier::kExhausted);
}

TEST(Supervisor, RecoveryTraceReplaysFromSeed) {
  const Graph g = make_path(8);
  const PartCollection pc = whole_graph_part(g);
  const auto run = [&](std::uint64_t jitter_seed) {
    FlakyOracle flaky(g, 3);
    SupervisorConfig config;
    config.jitter_seed = jitter_seed;
    config.initial_backoff = 16;
    config.max_backoff = 256;
    SupervisedPaOracle sup(flaky, config);
    sup.aggregate_once(pc, twos(pc), AggregationMonoid::sum());
    return sup.ledger();
  };
  const RoundLedger a = run(0xAAAA);
  const RoundLedger b = run(0xAAAA);
  EXPECT_TRUE(a == b);  // same seed: bit-identical trace, events included
  const RoundLedger c = run(0xBBBB);
  EXPECT_NE(a.total_local(), c.total_local());  // jitter decorrelates
}

// --- Solver-level: supervised solves under fault injection -----------------

LaplacianSolverOptions chain_options() {
  LaplacianSolverOptions options;
  options.base_size = 12;  // force a real multi-level chain on test graphs
  options.tolerance = 1e-6;
  return options;
}

struct SweepMix {
  const char* name;
  FaultConfig config;
};

std::vector<SweepMix> sweep_mixes() {
  std::vector<SweepMix> mixes;
  {
    FaultConfig c;
    c.drop_rate = 0.5;
    c.round_limit = 20;  // tight budget: some measures wedge and abort
    mixes.push_back({"droppy", c});
  }
  {
    FaultConfig c;
    c.drop_rate = 0.2;
    c.crash_rate = 0.05;
    c.max_crash_len = 4;
    c.round_limit = 20;
    mixes.push_back({"crashy", c});
  }
  return mixes;
}

Graph sweep_family(int family, Rng& rng) {
  switch (family) {
    case 0: return make_grid(5, 5);
    case 1: return make_random_regular(24, 3, rng);
    default: return make_path(24);
  }
}

// The keystone property: in degrade mode a supervised solve under fault
// injection NEVER throws and NEVER degrades — the ladder always lands on a
// working oracle, and because PA aggregates are value-exact at every rung,
// the solution is bit-identical to the fault-free solve.
TEST(SupervisedSolve, FaultedSolveMatchesFaultFreeBitwise) {
  std::size_t ladder_engagements = 0;
  for (int family = 0; family < 3; ++family) {
    for (const SweepMix& mix : sweep_mixes()) {
      for (std::uint64_t rep = 0; rep < 2; ++rep) {
        const std::uint64_t seed = 0x51EE * (rep + 1) + family * 131;
        Rng family_rng(0xFA111 + family);
        const Graph g = sweep_family(family, family_rng);
        const Vec b = messy_rhs(g.num_nodes());
        const std::string label = std::string("family") +
                                  std::to_string(family) + "/" + mix.name +
                                  "/rep" + std::to_string(rep);

        // Fault-free reference.
        Rng clean_oracle_rng(seed);
        ShortcutPaOracle clean_oracle(g, clean_oracle_rng);
        Rng clean_solver_rng(seed ^ 0x50F7);
        DistributedLaplacianSolver clean(clean_oracle, clean_solver_rng,
                                         chain_options());
        const LaplacianSolveReport want = clean.solve(b);
        ASSERT_TRUE(want.converged) << label;

        // Same scenario, faulted and supervised.
        FaultPlan plan(seed ^ 0xFA57, mix.config);
        Rng faulty_oracle_rng(seed);
        ShortcutPaOracle faulty_oracle(g, faulty_oracle_rng);
        faulty_oracle.set_fault_plan(&plan);
        SupervisedPaOracle supervised(faulty_oracle);
        Rng faulty_solver_rng(seed ^ 0x50F7);
        DistributedLaplacianSolver solver(supervised, faulty_solver_rng,
                                          chain_options());
        LaplacianSolveReport got;
        ASSERT_NO_THROW(got = solver.solve(b)) << label;

        EXPECT_FALSE(got.degraded.has_value()) << label;
        EXPECT_TRUE(got.converged) << label;
        EXPECT_EQ(got.x, want.x) << label;  // bit-identical, not approximate
        if (supervised.tier() != EscalationTier::kNone) ++ladder_engagements;
      }
    }
  }
  // The sweep must actually exercise recovery, not pass vacuously.
  EXPECT_GT(ladder_engagements, 0u);
}

// Supervisor capped at retry + permanently lossy network: the solve must
// come back as a typed DegradedResult — finite partial x, named tier,
// recorded reason — never an unhandled ChaosAbortError.
TEST(SupervisedSolve, RetryModeExhaustionDegradesTyped) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());
  FaultConfig faults;
  faults.drop_rate = 1.0;
  faults.horizon = FaultConfig::kNoHorizon;
  faults.round_limit = 64;
  FaultPlan plan(0xDE6D, faults);
  Rng oracle_rng(77);
  ShortcutPaOracle oracle(g, oracle_rng);
  oracle.set_fault_plan(&plan);
  SupervisorConfig sup_config;
  sup_config.mode = SupervisorMode::kRetry;
  sup_config.retry_budget = 1;
  sup_config.rebuild_budget = 1;
  SupervisedPaOracle supervised(oracle, sup_config);
  Rng solver_rng(78);
  DistributedLaplacianSolver solver(supervised, solver_rng, chain_options());

  LaplacianSolveReport report;
  ASSERT_NO_THROW(report = solver.solve(b));
  ASSERT_TRUE(report.degraded.has_value());
  EXPECT_EQ(report.degraded->tier, EscalationTier::kExhausted);
  EXPECT_FALSE(report.degraded->reason.empty());
  EXPECT_FALSE(report.converged);
  EXPECT_TRUE(all_finite(report.x));
  EXPECT_GT(report.recovery.retries + report.recovery.rebuilds, 0u);
}

// Transient oracle failures are the supervisor's to absorb: its retry rung
// re-runs only the wedged measurement, so the solve converges undegraded
// with the retries recorded in the report and the level-0 stats.
TEST(SupervisedSolve, RetryRungAbsorbsTransientAborts) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());
  FlakyOracle flaky(g, 2);  // first two measures wedge, then healthy
  SupervisorConfig sup_config;
  sup_config.mode = SupervisorMode::kRetry;
  SupervisedPaOracle supervised(flaky, sup_config);
  Rng solver_rng(99);
  DistributedLaplacianSolver solver(supervised, solver_rng, chain_options());

  LaplacianSolveReport report;
  ASSERT_NO_THROW(report = solver.solve(b));
  EXPECT_TRUE(report.converged) << report.relative_residual;
  EXPECT_FALSE(report.degraded.has_value());
  EXPECT_EQ(report.recovery.retries, 2u);
  EXPECT_EQ(solver.level_stats()[0].pa_retries, 2u);
}

// Without a supervisor nothing absorbs the abort, so the solve degrades
// typed: tier exhausted, no completed iteration, and x = 0.
TEST(SupervisedSolve, UnsupervisedAbortDegradesTyped) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());
  FlakyOracle flaky(g, 2);
  Rng solver_rng(99);
  DistributedLaplacianSolver solver(flaky, solver_rng, chain_options());
  LaplacianSolveReport report;
  ASSERT_NO_THROW(report = solver.solve(b));
  ASSERT_TRUE(report.degraded.has_value());
  EXPECT_EQ(report.degraded->tier, EscalationTier::kExhausted);
  EXPECT_EQ(report.degraded->completed_iterations, 0u);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.x, Vec(g.num_nodes(), 0.0));
}

// Oracle faults strike only inside measure(), and a solve measures every
// instance on its first descent of the chain, before outer iteration 1
// completes. So an abort always finds the solve at iteration 0, where the
// supervisor's retry of the one wedged measurement is the cheapest recovery.
TEST(SupervisedSolve, SolveMeasuresEveryInstanceInItsFirstOuterIteration) {
  const Graph g = make_grid(12, 12);
  const Vec b = messy_rhs(g.num_nodes());
  FlakyOracle counter(g, 0);  // never fails: counts measure calls
  LaplacianSolverOptions options = chain_options();
  options.max_outer_iterations = 1;
  Rng solver_rng(99);
  DistributedLaplacianSolver solver(counter, solver_rng, options);
  ASSERT_GE(solver.num_levels(), 3u);
  EXPECT_EQ(counter.measure_calls(), 0u);  // construction measures nothing

  const LaplacianSolveReport report = solver.solve(b);
  EXPECT_EQ(report.outer_iterations, 1u);
  // The global instance plus one matvec instance per non-base level >= 1.
  EXPECT_EQ(counter.measure_calls(), solver.num_levels() - 1);
  solver.warm_instances();
  EXPECT_EQ(counter.measure_calls(), solver.num_levels() - 1);
}

// The determinism contract, end to end: wrapping a clean oracle in the
// supervisor changes nothing — same solution bits, same round totals, no
// recovery events — so golden traces are untouched by the resilience layer.
TEST(SupervisedSolve, CleanSupervisedSolveBitIdenticalToUnsupervised) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());

  Rng bare_oracle_rng(4242);
  ShortcutPaOracle bare_oracle(g, bare_oracle_rng);
  Rng bare_solver_rng(17);
  DistributedLaplacianSolver bare(bare_oracle, bare_solver_rng,
                                  chain_options());
  const LaplacianSolveReport want = bare.solve(b);

  Rng sup_oracle_rng(4242);
  ShortcutPaOracle primary(g, sup_oracle_rng);
  SupervisedPaOracle supervised(primary);
  Rng sup_solver_rng(17);
  DistributedLaplacianSolver solver(supervised, sup_solver_rng,
                                    chain_options());
  const LaplacianSolveReport got = solver.solve(b);

  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.local_rounds, want.local_rounds);
  EXPECT_EQ(got.global_rounds, want.global_rounds);
  EXPECT_EQ(got.pa_calls, want.pa_calls);
  EXPECT_TRUE(supervised.ledger().recovery_events().empty());
  EXPECT_EQ(supervised.tier(), EscalationTier::kNone);
  EXPECT_FALSE(got.recovery.any());
  EXPECT_FALSE(got.watchdog.triggered());
}

// --- Workspace reuse across the resilience paths ----------------------------
//
// The solver's shared lease arena (docs/KERNELS.md) persists across solve()
// calls, watchdog restarts, abort unwinds and supervisor recoveries.
// These tests pin two properties at once: recycled buffers never change the
// solution bits, and once warm the arena creates no new backing vectors —
// observed through the global mem.alloc.ws.* mirrors, since the arena itself
// is a private member.

struct WsMetricSnapshot {
  std::uint64_t buffers;
  std::uint64_t grows;
  std::uint64_t acquires;

  static WsMetricSnapshot take() {
    MetricsRegistry& reg = MetricsRegistry::global();
    return {reg.counter("mem.alloc.ws.buffers").value(),
            reg.counter("mem.alloc.ws.capacity_grows").value(),
            reg.counter("mem.alloc.ws.acquires").value()};
  }
};

TEST(WorkspaceReuse, RepeatSolvesReuseWarmArenaBitIdentically) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());
  Rng oracle_rng(4242);
  ShortcutPaOracle oracle(g, oracle_rng);
  Rng solver_rng(17);
  DistributedLaplacianSolver solver(oracle, solver_rng, chain_options());

  const LaplacianSolveReport first = solver.solve(b);
  ASSERT_TRUE(first.converged);
  const WsMetricSnapshot warm = WsMetricSnapshot::take();
  for (int rep = 0; rep < 3; ++rep) {
    const LaplacianSolveReport again = solver.solve(b);
    EXPECT_TRUE(again.converged);
    EXPECT_EQ(again.x, first.x);  // recycled buffers, identical bits
  }
  const WsMetricSnapshot after = WsMetricSnapshot::take();
  // The arena was exercised (leases flowed) but fully recycled: no new
  // backing vectors, no capacity growth.
  EXPECT_GT(after.acquires, warm.acquires);
  EXPECT_EQ(after.buffers, warm.buffers);
  EXPECT_EQ(after.grows, warm.grows);
}

TEST(WorkspaceReuse, WarmArenaSurvivesAbortUnwinds) {
  const Graph g = make_grid(5, 5);
  const Vec b = messy_rhs(g.num_nodes());
  FlakyOracle flaky(g, 4);  // four wedged measures, no supervisor
  Rng solver_rng(99);
  DistributedLaplacianSolver solver(flaky, solver_rng, chain_options());

  // Each of the first two solves spends one abort in its outer iteration and
  // one in its certificate, and degrades. The unwinds release their leases
  // back into the arena (RAII), so the second degraded solve needs no buffer
  // the first did not already create.
  LaplacianSolveReport degraded;
  ASSERT_NO_THROW(degraded = solver.solve(b));
  EXPECT_TRUE(degraded.degraded.has_value());
  EXPECT_EQ(flaky.measure_calls(), 2u);
  const WsMetricSnapshot unwound = WsMetricSnapshot::take();
  ASSERT_NO_THROW(degraded = solver.solve(b));
  EXPECT_TRUE(degraded.degraded.has_value());
  EXPECT_EQ(flaky.measure_calls(), 4u);
  EXPECT_EQ(WsMetricSnapshot::take().buffers, unwound.buffers);

  // Oracle healthy now: the first healthy solve warms the arena, and the
  // next runs entirely on recycled buffers to the same solution bits.
  LaplacianSolveReport first;
  ASSERT_NO_THROW(first = solver.solve(b));
  EXPECT_TRUE(first.converged);
  EXPECT_FALSE(first.degraded.has_value());
  const WsMetricSnapshot warm = WsMetricSnapshot::take();
  LaplacianSolveReport second;
  ASSERT_NO_THROW(second = solver.solve(b));
  EXPECT_TRUE(second.converged);
  EXPECT_FALSE(second.degraded.has_value());
  EXPECT_EQ(second.x, first.x);
  const WsMetricSnapshot after = WsMetricSnapshot::take();
  EXPECT_GT(after.acquires, warm.acquires);
  EXPECT_EQ(after.buffers, warm.buffers);
  EXPECT_EQ(after.grows, warm.grows);
}

TEST(WorkspaceReuse, FaultedSupervisedRepeatSolvesMatchCleanBitwise) {
  Rng family_rng(0xFA111 + 1);
  const Graph g = make_random_regular(24, 3, family_rng);
  const Vec b = messy_rhs(g.num_nodes());
  const std::uint64_t seed = 0x51EE + 131;

  // Fault-free reference on a fresh (cold-arena) solver.
  Rng clean_oracle_rng(seed);
  ShortcutPaOracle clean_oracle(g, clean_oracle_rng);
  Rng clean_solver_rng(seed ^ 0x50F7);
  DistributedLaplacianSolver clean(clean_oracle, clean_solver_rng,
                                   chain_options());
  const LaplacianSolveReport want = clean.solve(b);
  ASSERT_TRUE(want.converged);

  // Faulted + supervised solver, solved twice: the first solve may engage
  // the escalation ladder (and warms the arena while unwinding through
  // recoveries); the second runs on recycled buffers with the fault plan in
  // a different phase. Both must reproduce the clean bits.
  FaultConfig config;
  config.drop_rate = 0.5;
  config.round_limit = 20;
  FaultPlan plan(seed ^ 0xFA57, config);
  Rng faulty_oracle_rng(seed);
  ShortcutPaOracle faulty_oracle(g, faulty_oracle_rng);
  faulty_oracle.set_fault_plan(&plan);
  SupervisedPaOracle supervised(faulty_oracle);
  Rng faulty_solver_rng(seed ^ 0x50F7);
  DistributedLaplacianSolver solver(supervised, faulty_solver_rng,
                                    chain_options());

  LaplacianSolveReport first;
  ASSERT_NO_THROW(first = solver.solve(b));
  EXPECT_FALSE(first.degraded.has_value());
  EXPECT_EQ(first.x, want.x);
  const WsMetricSnapshot warm = WsMetricSnapshot::take();

  LaplacianSolveReport second;
  ASSERT_NO_THROW(second = solver.solve(b));
  EXPECT_FALSE(second.degraded.has_value());
  EXPECT_EQ(second.x, want.x);
  const WsMetricSnapshot after = WsMetricSnapshot::take();
  EXPECT_GT(after.acquires, warm.acquires);
  EXPECT_EQ(after.buffers, warm.buffers);
  EXPECT_EQ(after.grows, warm.grows);
}

}  // namespace
}  // namespace dls
