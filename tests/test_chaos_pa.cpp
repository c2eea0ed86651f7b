// Chaos/property sweep for the congested-PA pipelines under fault injection.
//
// The property: under eventual delivery (finite fault horizon), a faulted
// solve must agree *bit-for-bit* with the fault-free oracle on every part's
// aggregate — faults may cost rounds, never correctness. A failing case
// prints a shrunk repro (minimal fault list + seeds, see chaos_harness.hpp).
//
// The smoke sweep runs on every CI push with a fixed default root seed;
// DLS_CHAOS_SEED overrides it (echoed below) and DLS_CHAOS_FULL=1 widens the
// grid for the nightly job.
#include <gtest/gtest.h>

#include "chaos_harness.hpp"
#include "laplacian/pa_oracle.hpp"
#include "obs/metrics.hpp"
#include "resilience/solve_supervisor.hpp"

namespace dls {
namespace {

using chaos::CaseConfig;

constexpr std::uint64_t kDefaultRootSeed = 0xC4A05'2022ULL;

struct FaultMix {
  const char* name;
  FaultConfig config;
};

std::vector<FaultMix> fault_mixes() {
  std::vector<FaultMix> mixes;
  {
    FaultConfig c;
    c.drop_rate = 0.1;
    mixes.push_back({"drop10", c});
  }
  {
    FaultConfig c;
    c.drop_rate = 0.5;
    mixes.push_back({"drop50", c});
  }
  {
    FaultConfig c;
    c.duplicate_rate = 0.2;
    c.delay_rate = 0.2;
    c.max_delay = 3;
    c.reorder = true;
    mixes.push_back({"dup-delay", c});
  }
  {
    FaultConfig c;
    c.flap_rate = 0.05;
    c.max_flap_len = 3;
    c.drop_rate = 0.05;
    mixes.push_back({"flap", c});
  }
  {
    FaultConfig c;
    c.crash_rate = 0.02;
    c.max_crash_len = 3;
    c.drop_rate = 0.1;
    mixes.push_back({"crash", c});
  }
  // Corruption mixes run with payload integrity on: detected corruptions are
  // retransmitted, so the sweep's bit-exact-agreement property must still
  // hold — corruption may cost rounds, never correctness. (Without the
  // checksum word the fold would be silently wrong; that negative space is
  // pinned by UncheckedCorruptionShrinksToCorruptRepro below.)
  {
    FaultConfig c;
    c.corrupt_rate = 0.2;
    c.integrity = true;
    mixes.push_back({"corrupt", c});
  }
  {
    FaultConfig c;
    c.corrupt_rate = 0.15;
    c.drop_rate = 0.15;
    c.integrity = true;
    mixes.push_back({"corrupt-drop", c});
  }
  return mixes;
}

/// Runs the (families × mixes × repeats) grid derived from the root seed.
/// Every case failure reports the shrunk repro and fails the test.
void run_sweep(std::uint64_t root_seed, int families, std::size_t repeats,
               PaModel model) {
  Rng seeder(root_seed);
  const std::vector<FaultMix> mixes = fault_mixes();
  std::size_t cases = 0;
  for (int family = 0; family < families; ++family) {
    for (const FaultMix& mix : mixes) {
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        CaseConfig c;
        c.label = std::string("family") + std::to_string(family) + "/" +
                  mix.name + "/rep" + std::to_string(rep);
        c.family = family;
        c.scenario_seed = seeder();
        c.fault_seed = seeder();
        c.faults = mix.config;
        c.model = model;
        std::vector<FaultEvent> injected;
        const std::string diagnosis = chaos::run_case(c, nullptr, &injected);
        ++cases;
        if (!diagnosis.empty()) {
          ADD_FAILURE() << diagnosis << chaos::describe_repro(c, injected);
        }
      }
    }
  }
  ::testing::Test::RecordProperty("chaos_cases", static_cast<int>(cases));
}

TEST(ChaosPa, SmokeSweepAgreesWithFaultFreeOracle) {
  const std::uint64_t root_seed = chaos::root_seed_from_env(kDefaultRootSeed);
  // Echo the seed so any failure in CI is replayable with one command.
  std::printf("[chaos] DLS_CHAOS_SEED=%llu (export to replay)\n",
              static_cast<unsigned long long>(root_seed));
  const bool full = chaos::full_sweep_requested();
  run_sweep(root_seed, /*families=*/4, /*repeats=*/full ? 8 : 2,
            PaModel::kSupportedCongest);
}

TEST(ChaosPa, SweepCoversCongestModel) {
  const std::uint64_t root_seed =
      chaos::root_seed_from_env(kDefaultRootSeed) ^ 0x9e3779b97f4a7c15ULL;
  const bool full = chaos::full_sweep_requested();
  run_sweep(root_seed, /*families=*/full ? 4 : 2, /*repeats=*/full ? 4 : 1,
            PaModel::kCongest);
}

// A plan with all rates at zero injects nothing and must leave the solve
// bit-identical to the null-plan run — results, round totals, and the full
// per-phase ledger. This is the guard for the acceptance criterion that
// fault-free paths match the pinned golden traces without regeneration.
TEST(ChaosPa, ZeroRatePlanIsBitIdenticalToNullPlan) {
  for (int family = 0; family < 4; ++family) {
    CaseConfig c;
    c.family = family;
    c.scenario_seed = 0xABCD0000 + static_cast<std::uint64_t>(family);
    const chaos::Scenario s = chaos::build_scenario(c);

    CongestedPaOptions options;
    Rng null_rng(s.solver_seed);
    const CongestedPaOutcome null_plan = solve_congested_pa(
        s.g, s.pc, s.values, AggregationMonoid::sum(), null_rng, options);

    FaultPlan plan(/*seed=*/1234, FaultConfig{});  // all rates zero
    options.faults = &plan;
    Rng zero_rng(s.solver_seed);
    const CongestedPaOutcome zero_rate = solve_congested_pa(
        s.g, s.pc, s.values, AggregationMonoid::sum(), zero_rng, options);

    EXPECT_EQ(zero_rate.results, null_plan.results) << "family " << family;
    EXPECT_EQ(zero_rate.total_rounds, null_plan.total_rounds)
        << "family " << family;
    EXPECT_EQ(zero_rate.phases, null_plan.phases);
    EXPECT_TRUE(zero_rate.ledger == null_plan.ledger) << "family " << family;
    EXPECT_TRUE(plan.injected().empty());
  }
}

// Permanently lossy network (no horizon) + a small round budget: the solve
// must fail loudly with ChaosAbortError carrying a diagnosable partial
// ledger, not livelock.
TEST(ChaosPa, PermanentLossAbortsWithDiagnosableLedger) {
  CaseConfig c;
  c.family = 0;
  c.scenario_seed = 0xDEAD01;
  const chaos::Scenario s = chaos::build_scenario(c);

  FaultConfig config;
  config.drop_rate = 1.0;
  config.horizon = FaultConfig::kNoHorizon;
  config.round_limit = 64;
  FaultPlan plan(/*seed=*/77, config);
  CongestedPaOptions options;
  options.faults = &plan;
  Rng rng(s.solver_seed);
  try {
    solve_congested_pa(s.g, s.pc, s.values, AggregationMonoid::sum(), rng,
                       options);
    FAIL() << "expected ChaosAbortError";
  } catch (const ChaosAbortError& e) {
    EXPECT_NE(std::string(e.what()).find("round budget"), std::string::npos);
    ASSERT_FALSE(e.ledger().entries().empty());
    EXPECT_EQ(e.ledger().entries().back().label.rfind("aborted-", 0), 0u)
        << e.ledger().entries().back().label;
  }
}

// Replaying the injected event list of a failing-free run must reproduce the
// generative run exactly (same results, same injected events).
TEST(ChaosPa, ReplayOfInjectedEventsMatchesGenerativeRun) {
  CaseConfig c;
  c.family = 2;
  c.scenario_seed = 0xFACE02;
  c.fault_seed = 0xFACE03;
  c.faults.drop_rate = 0.3;
  c.faults.duplicate_rate = 0.1;
  c.faults.delay_rate = 0.1;
  c.faults.reorder = true;

  std::vector<FaultEvent> injected;
  const std::string generative = chaos::run_case(c, nullptr, &injected);
  EXPECT_EQ(generative, "");
  ASSERT_FALSE(injected.empty())
      << "fault mix injected nothing — the sweep would be vacuous";

  std::vector<FaultEvent> replayed;
  const std::string replay = chaos::run_case(c, &injected, &replayed);
  EXPECT_EQ(replay, "");
  EXPECT_EQ(replayed, injected);
}

// The ShortcutPaOracle's measure-time cross-check (distributed == fold) is
// the fault-correctness oracle once a plan is attached.
TEST(ChaosPa, OracleMeasurementSurvivesFaultPlan) {
  Rng graph_rng(42);
  const Graph g = make_grid(6, 6);
  PartCollection pc = stacked_voronoi_instance(g, 3, 2, graph_rng);

  FaultConfig config;
  config.drop_rate = 0.2;
  config.duplicate_rate = 0.1;
  FaultPlan plan(/*seed=*/9, config);

  Rng oracle_rng(1001);
  ShortcutPaOracle oracle(g, oracle_rng);
  oracle.set_fault_plan(&plan);
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 2.0);
  }
  const std::vector<double> results =
      oracle.aggregate_once(pc, values, AggregationMonoid::sum());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    EXPECT_EQ(results[i], 2.0 * static_cast<double>(pc.parts[i].size()));
  }
  EXPECT_GT(oracle.ledger().total_local(), 0u);
}

// Without integrity words a corrupted payload perturbs the convergecast fold.
// The shortcut oracle's cross-check against the sequential fold is what
// catches it: the measurement aborts typed instead of pricing a wrong run,
// and the supervisor ladder turns the abort into exact results.
TEST(ChaosPa, FoldCrossCheckCatchesUncheckedCorruption) {
  Rng graph_rng(42);
  const Graph g = make_grid(6, 6);
  const PartCollection pc = stacked_voronoi_instance(g, 3, 2, graph_rng);
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 2.0);
  }
  FaultConfig config;
  config.corrupt_rate = 1.0;  // every word of the first `horizon` rounds

  FaultPlan plan(/*seed=*/9, config);
  Rng oracle_rng(1001);
  ShortcutPaOracle oracle(g, oracle_rng);
  oracle.set_fault_plan(&plan);
  try {
    oracle.aggregate_once(pc, values, AggregationMonoid::sum());
    ADD_FAILURE() << "a corrupted fold was priced as a clean run";
  } catch (const ChaosAbortError& e) {
    EXPECT_NE(std::string(e.what()).find("disagrees with sequential fold"),
              std::string::npos)
        << e.what();
  }

  FaultPlan supervised_plan(/*seed=*/9, config);
  Rng primary_rng(1001);
  ShortcutPaOracle primary(g, primary_rng);
  primary.set_fault_plan(&supervised_plan);
  SupervisedPaOracle supervised(primary);  // kDegrade: the full ladder
  const std::vector<double> results =
      supervised.aggregate_once(pc, values, AggregationMonoid::sum());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    EXPECT_EQ(results[i], 2.0 * static_cast<double>(pc.parts[i].size()));
  }
  EXPECT_TRUE(supervised.degraded());
  EXPECT_GT(supervised.counters().retries, 0u);
}

// End-to-end repro pipeline: a case that genuinely fails (permanent loss +
// tiny round budget) must shrink to a non-empty minimal fault list and print
// both seeds, exactly what a CI failure would hand the developer.
TEST(ChaosPa, FailingCaseProducesShrunkRepro) {
  CaseConfig c;
  c.label = "repro-smoke";
  c.family = 1;  // random tree: smallest scenario family
  c.scenario_seed = 0xBADF00D;
  c.fault_seed = 0xBADF00E;
  c.faults.drop_rate = 1.0;
  c.faults.horizon = FaultConfig::kNoHorizon;
  c.faults.round_limit = 24;

  std::vector<FaultEvent> injected;
  const std::string diagnosis = chaos::run_case(c, nullptr, &injected);
  ASSERT_NE(diagnosis.find("ChaosAbortError"), std::string::npos) << diagnosis;
  ASSERT_FALSE(injected.empty());

  const std::string repro = chaos::describe_repro(c, injected);
  EXPECT_NE(repro.find("chaos repro for repro-smoke"), std::string::npos);
  EXPECT_NE(repro.find("scenario_seed = 195948557"), std::string::npos);
  EXPECT_NE(repro.find("minimal fault list"), std::string::npos);
  EXPECT_NE(repro.find("drop("), std::string::npos) << repro;
}

// Corruption with integrity across the scenario families: results stay
// bit-identical to the clean run, every injected corruption is detected
// (none delivered), and the detections plus checksum words show up in the
// net.corrupt.* / net.integrity.* metrics — rounds are paid, correctness is
// not. (Per-call counters live on AggregationOutcome; across a whole
// congested-PA solve the registry totals are the accounting surface.)
TEST(ChaosPa, IntegrityMakesCorruptionExactAndAccounted) {
  MetricCounter& injected_metric =
      MetricsRegistry::global().counter("net.corrupt.injected");
  MetricCounter& detected_metric =
      MetricsRegistry::global().counter("net.corrupt.detected");
  MetricCounter& delivered_metric =
      MetricsRegistry::global().counter("net.corrupt.delivered");
  MetricCounter& words_metric =
      MetricsRegistry::global().counter("net.integrity.words");
  std::uint64_t injected_total = 0;
  for (int family = 0; family < 4; ++family) {
    CaseConfig c;
    c.family = family;
    c.scenario_seed = 0xC0DE00 + static_cast<std::uint64_t>(family);
    const chaos::Scenario s = chaos::build_scenario(c);

    CongestedPaOptions options;
    Rng clean_rng(s.solver_seed);
    const CongestedPaOutcome clean = solve_congested_pa(
        s.g, s.pc, s.values, AggregationMonoid::sum(), clean_rng, options);

    const std::uint64_t injected0 = injected_metric.value();
    const std::uint64_t detected0 = detected_metric.value();
    const std::uint64_t delivered0 = delivered_metric.value();
    const std::uint64_t words0 = words_metric.value();
    FaultConfig config;
    config.corrupt_rate = 0.25;
    config.integrity = true;
    FaultPlan plan(0xF00D + static_cast<std::uint64_t>(family), config);
    options.faults = &plan;
    Rng faulty_rng(s.solver_seed);
    const CongestedPaOutcome faulted = solve_congested_pa(
        s.g, s.pc, s.values, AggregationMonoid::sum(), faulty_rng, options);

    EXPECT_EQ(faulted.results, clean.results) << "family " << family;
    EXPECT_GT(words_metric.value(), words0) << "family " << family;
    // Every injected corruption was detected; none slipped into a fold.
    EXPECT_EQ(detected_metric.value() - detected0,
              injected_metric.value() - injected0);
    EXPECT_EQ(delivered_metric.value(), delivered0);
    // Integrity doubles slot occupancy even before any corruption bites.
    EXPECT_GT(faulted.total_rounds, clean.total_rounds);
    injected_total += injected_metric.value() - injected0;
  }
  EXPECT_GT(injected_total, 0u)
      << "corrupt_rate=0.25 never fired — the sweep would be vacuous";
}

// Without the checksum word, corruption is the one fault the delivery layer
// cannot mask: the faulted fold silently disagrees with the clean one, the
// harness's comparison catches it, and the ddmin shrinker reduces the
// schedule to a minimal repro naming the corrupt event(s).
TEST(ChaosPa, UncheckedCorruptionShrinksToCorruptRepro) {
  CaseConfig c;
  c.label = "corrupt-repro";
  c.family = 1;  // random tree: smallest scenario family
  c.scenario_seed = 0xC0FFEE;
  c.faults.corrupt_rate = 0.3;
  std::string diagnosis;
  std::vector<FaultEvent> injected;
  // A corruption can land on a result-inert slot (broadcast markers, deduped
  // copies); scan a few schedules for one that perturbs a fold.
  for (std::uint64_t seed = 1; seed <= 8 && diagnosis.empty(); ++seed) {
    c.fault_seed = seed;
    diagnosis = chaos::run_case(c, nullptr, &injected);
  }
  ASSERT_FALSE(diagnosis.empty())
      << "no schedule perturbed any fold — corruption injection is vacuous";
  ASSERT_FALSE(injected.empty());
  const std::string repro = chaos::describe_repro(c, injected);
  EXPECT_NE(repro.find("minimal fault list"), std::string::npos);
  EXPECT_NE(repro.find("corrupt("), std::string::npos) << repro;
}

// --- shrinker unit tests (synthetic predicates; no network involved) ------

std::vector<FaultEvent> synthetic_events(std::size_t n) {
  std::vector<FaultEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back({FaultKind::kDrop, 1, i + 1, i, 0});
  }
  return events;
}

TEST(ChaosShrinker, ReducesToSingleCulprit) {
  const std::vector<FaultEvent> events = synthetic_events(37);
  const FaultEvent culprit = events[17];
  std::size_t evaluations = 0;
  const std::vector<FaultEvent> minimal = chaos::shrink_events(
      events, [&](const std::vector<FaultEvent>& subset) {
        ++evaluations;
        for (const FaultEvent& e : subset) {
          if (e == culprit) return true;
        }
        return false;
      });
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], culprit);
  EXPECT_GT(evaluations, 0u);
}

TEST(ChaosShrinker, KeepsConjunctionOfTwoEvents) {
  const std::vector<FaultEvent> events = synthetic_events(16);
  const FaultEvent a = events[3];
  const FaultEvent b = events[12];
  const std::vector<FaultEvent> minimal = chaos::shrink_events(
      events, [&](const std::vector<FaultEvent>& subset) {
        bool has_a = false;
        bool has_b = false;
        for (const FaultEvent& e : subset) {
          has_a |= e == a;
          has_b |= e == b;
        }
        return has_a && has_b;
      });
  EXPECT_EQ(minimal, (std::vector<FaultEvent>{a, b}));
}

// Mixed-kind schedules shrink across kinds: the minimal list keeps exactly
// the corrupt event the predicate demands and drops every drop around it.
TEST(ChaosShrinker, IsolatesCorruptEventAmongDrops) {
  std::vector<FaultEvent> events = synthetic_events(12);
  const FaultEvent culprit{FaultKind::kCorrupt, 1, 5, 3, 0x40};
  events.insert(events.begin() + 6, culprit);
  const std::vector<FaultEvent> minimal = chaos::shrink_events(
      events, [&](const std::vector<FaultEvent>& subset) {
        for (const FaultEvent& e : subset) {
          if (e.kind == FaultKind::kCorrupt && e.param == 0x40) return true;
        }
        return false;
      });
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], culprit);
  EXPECT_EQ(to_string(minimal[0]).rfind("corrupt(", 0), 0u);
}

TEST(ChaosShrinker, EmptyListIsFixpoint) {
  const std::vector<FaultEvent> minimal = chaos::shrink_events(
      {}, [](const std::vector<FaultEvent>&) { return true; });
  EXPECT_TRUE(minimal.empty());
}

TEST(ChaosHarness, RootSeedEnvParsing) {
  // Only exercises the fallback path: the suite must not depend on the
  // caller's environment beyond DLS_CHAOS_SEED itself being well-formed.
  const std::uint64_t seed = chaos::root_seed_from_env(123);
  const char* env = std::getenv("DLS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    EXPECT_EQ(seed, 123u);
  } else {
    EXPECT_EQ(seed, std::strtoull(env, nullptr, 0));
  }
}

}  // namespace
}  // namespace dls
