#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "calibrate.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace dls;

WorkloadSpec make_workload(const RunConfig& config) {
  WorkloadSpec spec;
  spec.name = config.workload;
  Rng gen(derive_seed(kInstanceSeed, 0x6e6));
  const std::size_t side = config.size != 0 ? config.size
                           : config.smoke      ? 16
                                               : 64;
  if (config.workload == "grid-cold") {
    spec.graph = make_grid(side, side);
    spec.oracle = OracleKind::kShortcutSupported;
    spec.reference_cycles = config.smoke ? 1 : 3;
  } else if (config.workload == "expander-ncc") {
    // n = 8192 solves take 1.5–2.4 s each here and swing ±20% from one
    // solve to the next; n = 4096 solves take ≈0.4 s and stay within ±10%.
    const std::size_t n = config.size != 0 ? config.size
                          : config.smoke      ? 256
                                              : 4096;
    do {
      spec.graph = make_random_regular(n, 4, gen);
    } while (!is_connected(spec.graph));
    spec.oracle = OracleKind::kNcc;
    spec.solves_per_stack = 2;
    // Set-up is ≈4% of a cycle here; a few builds per cycle give it as
    // many samples as the other timings.
    spec.setups_per_cycle = 4;
  } else if (config.workload == "wgrid-serve") {
    spec.graph = make_weighted_grid(side, side, gen, 1.0, 1e4);
    spec.oracle = OracleKind::kShortcutCongest;
    spec.serve = true;
  } else {
    throw std::invalid_argument("unknown workload: " + config.workload);
  }
  return spec;
}

std::uint64_t solver_seed() { return derive_seed(kSolverSeed, 0); }

Vec operation_rhs(const RunConfig& config, const WorkloadSpec& spec,
                  bool reference, std::uint64_t index) {
  Rng rng(reference ? derive_seed(kReferenceSeed, index)
                    : derive_seed(config.seed ^ 0xb5ULL, index));
  return random_rhs(spec.graph.num_nodes(), rng);
}

LaplacianSolverOptions default_solver_options() {
  LaplacianSolverOptions options;
  // Default options except the outer-iteration cap: random right-hand sides
  // on the 64×64 grid need 550–700 outer iterations, past the default 600.
  options.max_outer_iterations = 2000;
  return options;
}

CacheOracleKind cache_oracle_kind(OracleKind kind) {
  switch (kind) {
    case OracleKind::kShortcutSupported:
      return CacheOracleKind::kShortcutSupported;
    case OracleKind::kShortcutCongest:
      return CacheOracleKind::kShortcutCongest;
    case OracleKind::kNcc:
      return CacheOracleKind::kNcc;
  }
  return CacheOracleKind::kShortcutSupported;
}

std::unique_ptr<CongestedPaOracle> make_oracle(const Graph& g, OracleKind kind,
                                               Rng& rng) {
  switch (kind) {
    case OracleKind::kShortcutSupported:
      return std::make_unique<ShortcutPaOracle>(g, rng);
    case OracleKind::kShortcutCongest:
      return std::make_unique<ShortcutPaOracle>(
          g, rng, SchedulingPolicy::kRandomPriority, PaModel::kCongest);
    case OracleKind::kNcc:
      return std::make_unique<NccPaOracle>(g, rng);
  }
  return nullptr;
}

Stack::Stack(const Graph& g, OracleKind kind, std::uint64_t seed,
             const LaplacianSolverOptions& options, WallSpans* spans)
    : rng(seed) {
  auto t = Clock::now();
  oracle = make_oracle(g, kind, rng);
  oracle_s = seconds_since(t);
  {
    const WallSpan span(spans, "laplacian.DistributedLaplacianSolver");
    t = Clock::now();
    solver = std::make_unique<DistributedLaplacianSolver>(*oracle, rng, options);
    build_s = seconds_since(t);
  }
  const WallSpan span(spans, "laplacian.warm_instances");
  t = Clock::now();
  solver->warm_instances();
  measure_s = seconds_since(t);
}

bool accept_solution(SolutionChecker& checker, const Vec& b,
                     const LaplacianSolveReport& report, bool corrupt,
                     SolutionCheck* check_out) {
  Vec x = report.x;
  if (corrupt && !x.empty()) x[x.size() / 2] += 1e-3 * (1.0 + std::abs(x[0]));
  const SolutionCheck check = checker.check(b, x);
  if (check_out != nullptr) *check_out = check;
  return report.converged && !report.degraded.has_value() && check.ok;
}

UpdateStream::UpdateStream(const Graph& g, const std::vector<EdgeId>& tree,
                           std::uint64_t seed) {
  std::vector<char> on_tree(g.num_edges(), 0);
  for (EdgeId e : tree) on_tree[e] = 1;
  std::vector<EdgeId> off;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (on_tree[e] == 0) off.push_back(e);
  }
  Rng rng(seed);
  rng.shuffle(off);
  off.resize(std::min<std::size_t>(off.size(), 16));
  off_tree_ = off;
  if (!tree.empty()) tree_edge_ = tree[rng.next_below(tree.size())];
}

WeightUpdateClass UpdateStream::apply(std::size_t step, Graph& g) const {
  // Steps cycle ×1.1 off-tree, ×1.5 tree, ÷1.1 off-tree, ÷1.5 tree, so the
  // weights return to the original after every fourth update and the
  // partial rebuild resets the entry's drift before it can accumulate.
  const bool forward = step % 4 < 2;
  if (step % 2 == 0) {
    for (EdgeId e : off_tree_) {
      const double w = g.edge(e).weight;
      g.set_weight(e, forward ? w * 1.1 : w / 1.1);
    }
    return WeightUpdateClass::kReusePreconditioner;
  }
  const double w = g.edge(tree_edge_).weight;
  g.set_weight(tree_edge_, forward ? w * 1.5 : w / 1.5);
  return WeightUpdateClass::kPartialRebuild;
}

namespace {

/// Per-solve counts of the cycles that always run; their medians are
/// identical for every run of one seed.
struct Counts {
  Samples rounds, global_rounds, pa_calls, outer;
  void add(const LaplacianSolveReport& r) {
    rounds.add(static_cast<double>(r.local_rounds + r.global_rounds));
    global_rounds.add(static_cast<double>(r.global_rounds));
    pa_calls.add(static_cast<double>(r.pa_calls));
    outer.add(static_cast<double>(r.outer_iterations));
  }
};

/// setup, solve and tts are wall time scaled to the nominal host speed (see
/// calibrate.hpp) by the calibration samples taken right before and right
/// after the call. The times as measured go to the report.
struct Timings {
  Samples setup, solve, tts;
  Samples setup_measured, solve_measured;
  HostSpeed host;
  /// Records one set-up; returns its scaled time.
  double add_setup(double wall_s, double calibration_s) {
    setup_measured.add(wall_s);
    setup.add(at_nominal_speed(wall_s, calibration_s));
    return at_nominal_speed(wall_s, calibration_s);
  }
  /// Records one solve; returns its scaled time.
  double add_solve(double wall_s, double calibration_s) {
    solve_measured.add(wall_s);
    solve.add(at_nominal_speed(wall_s, calibration_s));
    return at_nominal_speed(wall_s, calibration_s);
  }
  // rhs_per_s: RHS solved over the scaled wall time of the calls that solved
  // them — solve_batch on the serving workload's 4-thread pool, solve on
  // the others. Set-up and updates are not part of it, and only the batches
  // are scaled by samples taken on the pool's 4 threads.
  double rate_s = 0.0;
  std::uint64_t rate_rhs = 0;
  // Peak RSS when the reference cycles end: a fixed amount of work, whatever
  // the time budget adds after it.
  double peak_rss_mb = 0.0;
};

void emit_end_to_end(RunResult& result, const Timings& t, const Counts& c,
                     const SolutionChecker& checker) {
  MetricSink& m = result.metrics;
  m.set_timing("setup_s", t.setup, "s");
  m.set_timing("solve_s", t.solve, "s");
  m.set_timing("time_to_solution_s", t.tts, "s");
  m.set("rhs_per_s", static_cast<double>(t.rate_rhs) / t.rate_s, "1/s");
  m.set("rounds", c.rounds.median(), "rounds");
  m.set("pa_calls", c.pa_calls.median(), "count");
  m.set("outer_iterations", c.outer.median(), "count");
  m.set("peak_rss_mb", t.peak_rss_mb, "MiB");
  m.note("setup as measured: " + t.setup_measured.describe("s"));
  m.note("solve as measured: " + t.solve_measured.describe("s"));
  Samples calibration;
  for (const double s : t.host.samples()) calibration.add(s);
  m.note("calibration sample: " + calibration.describe("s") + ", nominal " +
         std::to_string(kNominalCalibrationS) + " s");
  m.note("outer iterations per solve: " + c.outer.describe("count"));
  m.note("PA calls per solve: " + c.pa_calls.describe("count"));
  m.note("global rounds per solve: " + c.global_rounds.describe("rounds"));
  char line[160];
  std::snprintf(line, sizeof line,
                "failed_frac %g (%llu of %llu); worst check: residual %.3g, "
                "L-norm error %.3g",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        result.attempted, 1)),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted),
                checker.worst_residual(), checker.worst_energy_error());
  m.note(line);
}

/// grid-cold and expander-ncc: fresh stacks per cycle, then
/// `solves_per_stack` solves on the last one.
RunResult run_stacks(const RunConfig& config, const WorkloadSpec& spec) {
  RunResult result;
  Timings t;
  Counts counts;
  SolutionChecker checker(spec.graph, default_solver_options().tolerance);
  const auto start = Clock::now();
  t.host.mark();
  for (std::size_t cycle = 0;
       cycle < spec.reference_cycles || seconds_since(start) < config.seconds;
       ++cycle) {
    std::unique_ptr<Stack> stack;
    std::vector<double> setups_wall;
    for (std::size_t s = 0; s < spec.setups_per_cycle; ++s) {
      stack.reset();
      const auto t0 = Clock::now();
      stack = std::make_unique<Stack>(spec.graph, spec.oracle, solver_seed());
      setups_wall.push_back(seconds_since(t0));
    }
    const double setup_calibration_s = t.host.mark();
    double setup_s = 0.0;
    for (const double wall : setups_wall) {
      setup_s = t.add_setup(wall, setup_calibration_s);
    }
    const bool reference = cycle < spec.reference_cycles;
    for (std::size_t k = 0; k < spec.solves_per_stack; ++k) {
      const Vec b = operation_rhs(config, spec, reference,
                                  cycle * spec.solves_per_stack + k);
      const auto t0 = Clock::now();
      const LaplacianSolveReport report = stack->solver->solve(b);
      const double wall = seconds_since(t0);
      const double solve_s = t.add_solve(wall, t.host.mark());
      t.rate_s += solve_s;
      ++t.rate_rhs;
      if (k == 0) t.tts.add(setup_s + solve_s);
      if (reference) counts.add(report);
      ++result.attempted;
      if (!accept_solution(checker, b, report, config.corrupt)) ++result.failed;
    }
    if (cycle + 1 == spec.reference_cycles) t.peak_rss_mb = peak_rss_mb();
  }
  emit_end_to_end(result, t, counts, checker);
  return result;
}

/// wgrid-serve: sessions of one cache miss and two single solves, then
/// rounds of one weight update (reuse rung, then partial rebuild) followed by
/// an 8-RHS batch on the 4-thread pool.
RunResult run_serve(const RunConfig& config, const WorkloadSpec& spec) {
  RunResult result;
  Timings t;
  Counts counts;
  Samples update;
  constexpr std::size_t kPoolThreads = 4;
  ThreadPool pool(kPoolThreads);
  SolutionChecker checker(spec.graph, default_solver_options().tolerance);
  // Two singles keep sessions short, so a run has about eight set-up and
  // time-to-solution samples.
  constexpr std::size_t kSingles = 2;
  constexpr std::size_t kRounds = 2;
  const auto start = Clock::now();
  t.host.mark();
  for (std::size_t session = 0;
       session < spec.reference_cycles || seconds_since(start) < config.seconds;
       ++session) {
    SolverCacheOptions options;
    options.solver = default_solver_options();
    options.oracle = cache_oracle_kind(spec.oracle);
    options.seed = solver_seed();
    SolverCache cache(options);
    Graph current = spec.graph;
    checker.refresh(current);
    const bool reference = session < spec.reference_cycles;
    std::uint64_t rhs_index = session * (kSingles + kRounds * spec.batch);
    const auto next_rhs = [&] {
      return operation_rhs(config, spec, reference, rhs_index++);
    };
    const auto accept = [&](const Vec& b, const LaplacianSolveReport& r) {
      ++result.attempted;
      if (!accept_solution(checker, b, r, config.corrupt)) ++result.failed;
      if (reference) counts.add(r);
    };

    t.host.mark();  // the miss's sample before; the last one was a batch ago
    auto t0 = Clock::now();
    CachedSolverState& entry = cache.acquire(current).state;
    const double miss_s = seconds_since(t0);
    const double setup_s = t.add_setup(miss_s, t.host.mark());
    for (std::size_t k = 0; k < kSingles; ++k) {
      const Vec b = next_rhs();
      t0 = Clock::now();
      const LaplacianSolveReport report = entry.solve(b);
      const double wall = seconds_since(t0);
      const double solve_s = t.add_solve(wall, t.host.mark());
      if (k == 0) t.tts.add(setup_s + solve_s);
      accept(b, report);
    }

    const UpdateStream stream(current, entry.solver().level0_tree_edges(),
                              options.seed);
    for (std::size_t r = 0; r < kRounds; ++r) {
      const WeightUpdateClass expected = stream.apply(r, current);
      t0 = Clock::now();
      const SolverCache::Acquired acquired = cache.acquire(current);
      const double update_s = seconds_since(t0);
      update.add(at_nominal_speed(update_s, t.host.mark()));
      checker.refresh(current);
      ++result.attempted;
      if (!acquired.hit || acquired.update.classification != expected) {
        ++result.failed;
      }

      std::vector<Vec> bs;
      for (std::size_t i = 0; i < spec.batch; ++i) bs.push_back(next_rhs());
      // The batch runs on the pool's threads, and so do its samples.
      const double before = calibration_sample_s(kPoolThreads);
      t0 = Clock::now();
      const std::vector<LaplacianSolveReport> reports =
          entry.solve_batch(bs, &pool);
      const double batch_s = seconds_since(t0);
      const double after = calibration_sample_s(kPoolThreads);
      t.rate_s += at_nominal_speed(batch_s, 0.5 * (before + after));
      t.rate_rhs += bs.size();
      for (std::size_t i = 0; i < bs.size(); ++i) accept(bs[i], reports[i]);
    }
    if (session + 1 == spec.reference_cycles) t.peak_rss_mb = peak_rss_mb();
  }
  emit_end_to_end(result, t, counts, checker);
  result.metrics.note("update (reuse and partial rungs): " +
                      update.describe("s"));
  return result;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  const WorkloadSpec spec = make_workload(config);
  return spec.serve ? run_serve(config, spec) : run_stacks(config, spec);
}

}  // namespace perfbench
