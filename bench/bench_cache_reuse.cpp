// Warm solver-state cache (docs/CACHING.md): cold per-query stacks vs one
// SolverCache entry serving a query stream, under the CONGEST shortcut
// oracle — the model where every cold PA call re-pays shortcut construction
// that a long-lived entry builds (and is charged for) exactly once. Three
// claims are on display: (1) per-query simulated-round savings of a warm
// entry on an unchanged graph — solo (one solve per arriving query) and
// batched (the stream fanned through the entry's session, docs/BATCHING.md)
// — with the entry's one-time build charge and the break-even query count
// reported next to them; (2) the determinism
// contract — every warm solution is asserted bit-identical to its cold
// solve inside the bench itself; (3) the dynamic-update ladder — a scripted
// perturbation stream (uniform rescale, small off-tree nudges, a tree-edge
// bump, a structural-scale jolt) routed through update_weights, with the
// classification mix and per-update charged rounds tabulated.
//
// Flags: --smoke (small grid for CI), --json PATH (flat metrics for
// scripts/bench_compare.py), --trace PATH (Chrome trace of the run),
// --queries N (query stream length per family).
#include <algorithm>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "laplacian/solver_cache.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

using namespace dls;
using namespace dls::bench;

namespace {

struct Family {
  std::string name;  // doubles as the metric key prefix
  Graph graph;
};

std::vector<Family> make_families(bool smoke) {
  Rng gen_rng(13);
  std::vector<Family> families;
  if (smoke) {
    families.push_back({"grid", make_grid(9, 9)});
    families.push_back({"expander", make_random_regular(96, 4, gen_rng)});
    families.push_back({"weighted-grid", make_weighted_grid(8, 8, gen_rng)});
  } else {
    families.push_back({"grid", make_grid(16, 16)});
    families.push_back({"expander", make_random_regular(256, 4, gen_rng)});
    families.push_back({"weighted-grid", make_weighted_grid(12, 12, gen_rng)});
  }
  return families;
}

constexpr std::uint64_t kStackSeed = 7001;

LaplacianSolverOptions solver_options() {
  LaplacianSolverOptions options;
  options.tolerance = 1e-6;
  options.base_size = 40;
  return options;
}

/// One cold serving stack: everything rebuilt from kStackSeed, CONGEST
/// model, exactly what a SolverCache entry is bit-interchangeable with.
struct ColdStack {
  Rng rng;
  ShortcutPaOracle oracle;
  DistributedLaplacianSolver solver;

  explicit ColdStack(const Graph& g)
      : rng(kStackSeed),
        oracle(g, rng, SchedulingPolicy::kRandomPriority, PaModel::kCongest),
        solver(oracle, rng, solver_options()) {}
};

/// The scripted perturbation stream for the update-ladder table. Each step
/// maps the current logical weights to the next ones; the expected rung is
/// asserted so the bench doubles as an end-to-end classification check.
struct UpdateStep {
  std::string label;
  WeightUpdateClass expected;
};

}  // namespace

int main(int argc, char** argv) {
  const WallTimer total_timer;
  const Flags flags(argc, argv, {"smoke", "json", "queries", "trace"});
  const bool smoke = flags.get_bool("smoke", false);
  const std::string json_path = flags.get("json", "");
  const auto num_queries =
      static_cast<std::size_t>(flags.get_int("queries", smoke ? 4 : 8));
  std::unique_ptr<TraceSession> trace;
  const std::string trace_path = flags.get("trace", "");
  if (!trace_path.empty()) trace = std::make_unique<TraceSession>(trace_path);

  banner("solver-state cache reuse",
         "cold per-query stacks vs one warm cache entry (CONGEST shortcuts)");

  JsonMetrics metrics("cache_reuse");
  Table table({"family", "n", "queries", "cold rounds/q", "warm solo r/q",
               "warm batch r/q", "saved solo", "saved batch", "build rounds",
               "break-even q", "cold ms", "warm ms", "bit-identical"});
  Table updates({"family", "update", "class", "sigma", "charged rounds"});
  double worst_saved = 1.0;

  for (const Family& family : make_families(smoke)) {
    const std::size_t n = family.graph.num_nodes();
    Rng rhs_rng(4242);
    std::vector<Vec> queries;
    queries.reserve(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
      queries.push_back(random_rhs(n, rhs_rng));
    }

    // Cold serving: a fresh stack per query — under the CONGEST model every
    // query pays shortcut construction inside its PA calls.
    WallTimer cold_timer;
    std::vector<LaplacianSolveReport> cold_reports;
    cold_reports.reserve(num_queries);
    for (const Vec& b : queries) {
      ColdStack stack(family.graph);
      cold_reports.push_back(stack.solver.solve(b));
    }
    const double cold_seconds = cold_timer.seconds();
    std::uint64_t cold_rounds = 0;
    for (const auto& r : cold_reports) {
      cold_rounds += r.local_rounds + r.global_rounds;
    }

    // Warm serving: one cache entry, built (and charged) once, then queried.
    // Two warm modes, both bit-identical to the cold solves:
    //  - solo: one entry.solve() per arriving query. Skips the per-call
    //    shortcut-construction charge; still pays each query's data movement
    //    in full.
    //  - batch: the entry's SolveSession fans the stream out through the
    //    batched multi-RHS path (docs/BATCHING.md), so the shared charges
    //    pipeline round-robin on the entry's ledger. This is the serving
    //    mode the ≥60% bar of docs/CACHING.md is stated for.
    SolverCacheOptions cache_options;
    cache_options.solver = solver_options();
    cache_options.oracle = CacheOracleKind::kShortcutCongest;
    cache_options.seed = kStackSeed;
    SolverCache cache(cache_options);
    WallTimer warm_timer;
    CachedSolverState& entry = cache.acquire(family.graph).state;
    std::vector<LaplacianSolveReport> warm_reports;
    warm_reports.reserve(num_queries);
    for (const Vec& b : queries) warm_reports.push_back(entry.solve(b));
    std::uint64_t warm_solo_rounds = 0;
    for (const auto& r : warm_reports) {
      warm_solo_rounds += r.local_rounds + r.global_rounds;
    }
    // Batched warm serving, accounted as the ledger delta the entry's oracle
    // actually charges for the whole stream (per-RHS reports deliberately
    // keep full unamortized rounds; docs/BATCHING.md).
    const RoundLedger& entry_ledger = entry.oracle().ledger();
    const std::uint64_t batch_before =
        entry_ledger.total_local() + entry_ledger.total_global();
    const std::vector<LaplacianSolveReport> batch_reports =
        entry.solve_batch(queries);
    const std::uint64_t warm_batch_rounds =
        entry_ledger.total_local() + entry_ledger.total_global() - batch_before;
    const double warm_seconds = warm_timer.seconds();

    // The determinism contract, checked in the bench itself: warm charging
    // and state reuse never move a single bit of any solution, solo or
    // batched.
    bool identical = true;
    for (std::size_t q = 0; identical && q < num_queries; ++q) {
      identical = warm_reports[q].x == cold_reports[q].x &&
                  batch_reports[q].x == cold_reports[q].x &&
                  warm_reports[q].outer_iterations ==
                      cold_reports[q].outer_iterations &&
                  warm_reports[q].residual_history ==
                      cold_reports[q].residual_history;
    }
    DLS_REQUIRE(identical, "warm cached solve diverged from cold solve (" +
                               family.name + ")");

    const auto fraction_saved = [&](std::uint64_t warm) {
      return 1.0 - static_cast<double>(warm) /
                       static_cast<double>(std::max<std::uint64_t>(cold_rounds, 1));
    };
    const double saved_solo = fraction_saved(warm_solo_rounds);
    const double saved_batch = fraction_saved(warm_batch_rounds);
    worst_saved = std::min(worst_saved, saved_batch);
    const std::uint64_t build = entry.build_rounds();
    const double cold_per_query =
        static_cast<double>(cold_rounds) / static_cast<double>(num_queries);
    const double warm_solo_per_query = static_cast<double>(warm_solo_rounds) /
                                       static_cast<double>(num_queries);
    const double warm_batch_per_query = static_cast<double>(warm_batch_rounds) /
                                        static_cast<double>(num_queries);
    // Queries after which build + batched warm serving beats cold serving.
    const double break_even =
        static_cast<double>(build) /
        std::max(cold_per_query - warm_batch_per_query, 1e-9);

    table.add_row({family.name, Table::cell(n), Table::cell(num_queries),
                   Table::cell(cold_per_query, 0),
                   Table::cell(warm_solo_per_query, 0),
                   Table::cell(warm_batch_per_query, 0),
                   Table::cell(saved_solo), Table::cell(saved_batch),
                   Table::cell(build), Table::cell(break_even),
                   Table::cell(cold_seconds * 1e3),
                   Table::cell(warm_seconds * 1e3), identical ? "yes" : "NO"});

    const std::string prefix = family.name + "/";
    metrics.set(prefix + "rounds_cold_per_query", cold_per_query);
    metrics.set(prefix + "rounds_warm_solo_per_query", warm_solo_per_query);
    metrics.set(prefix + "rounds_warm_batch_per_query", warm_batch_per_query);
    metrics.set(prefix + "saved_solo_fraction", saved_solo);
    metrics.set(prefix + "saved_fraction", saved_batch);
    metrics.set(prefix + "build_rounds", static_cast<double>(build));
    metrics.set(prefix + "break_even_queries", break_even);
    metrics.set(prefix + "wall_cold_ms", cold_seconds * 1e3);
    metrics.set(prefix + "wall_warm_ms", warm_seconds * 1e3);

    // ---- Dynamic weight updates: the classification ladder end to end. ----
    // Each step perturbs the *logical* weights and re-acquires, so the diff
    // routes through update_weights exactly as a serving loop's would.
    Graph current(family.graph.num_nodes());
    for (const Edge& e : family.graph.edges()) {
      current.add_edge(e.u, e.v, e.weight);
    }
    const std::vector<EdgeId> tree = entry.solver().level0_tree_edges();
    std::vector<char> on_tree(current.num_edges(), 0);
    for (EdgeId e : tree) on_tree[e] = 1;
    EdgeId off_tree = 0;
    for (EdgeId e = 0; e < current.num_edges(); ++e) {
      if (on_tree[e] == 0) { off_tree = e; break; }
    }
    const auto apply_and_acquire = [&](const std::string& label,
                                       WeightUpdateClass expected) {
      auto acquired = cache.acquire(current);
      DLS_REQUIRE(acquired.hit, "update stream must hit the cached structure");
      const WeightUpdateReport& report = acquired.update;
      DLS_REQUIRE(report.classification == expected,
                  "update '" + label + "' classified as " +
                      to_string(report.classification) + ", expected " +
                      to_string(expected));
      // One query after each update keeps the stream honest: the entry must
      // actually answer for the perturbed graph.
      const LaplacianSolveReport r = acquired.state.solve(queries[0]);
      DLS_REQUIRE(r.converged, "post-update solve failed on " + label);
      updates.add_row({family.name, label, to_string(report.classification),
                       Table::cell(report.spectral_ratio),
                       Table::cell(report.charged_local_rounds)});
      metrics.set(prefix + "update/" + label + "/class",
                  static_cast<double>(static_cast<int>(report.classification)));
      metrics.set(prefix + "update/" + label + "/charged_rounds",
                  static_cast<double>(report.charged_local_rounds));
    };

    // Uniform ×2: exact rescale, nothing rebuilt.
    for (EdgeId e = 0; e < current.num_edges(); ++e) {
      current.set_weight(e, current.edge(e).weight * 2.0);
    }
    apply_and_acquire("uniform-x2", WeightUpdateClass::kRescale);
    // One off-tree edge ×1.15: reuse the chain as a stale preconditioner.
    current.set_weight(off_tree, current.edge(off_tree).weight * 1.15);
    apply_and_acquire("offtree-x1.15", WeightUpdateClass::kReusePreconditioner);
    // A level-0 tree edge ×1.5: numerics re-derived through the provenance.
    if (!tree.empty()) {
      current.set_weight(tree.front(), current.edge(tree.front()).weight * 1.5);
      apply_and_acquire("tree-x1.5", WeightUpdateClass::kPartialRebuild);
    }
    // One edge ×10: past every similarity limit, fresh stack from the seed.
    current.set_weight(off_tree, current.edge(off_tree).weight * 10.0);
    apply_and_acquire("edge-x10", WeightUpdateClass::kFullRebuild);

    metrics.set(prefix + "full_rebuilds",
                static_cast<double>(cache.acquire(current).state.full_rebuilds()));
  }

  table.print(std::cout);
  std::cout << "\nupdate-classification mix (scripted perturbation stream)\n";
  updates.print(std::cout);
  // The acceptance bar of docs/CACHING.md, checked after the tables so a
  // regression still prints its diagnostics: a warm entry serving the query
  // stream through its batched session must save at least 60% of the cold
  // per-query rounds on an unchanged graph.
  DLS_REQUIRE(worst_saved >= 0.60,
              "warm batched serving saved only " +
                  std::to_string(worst_saved * 100) +
                  "% of cold rounds on the worst family "
                  "(docs/CACHING.md promises >= 60%)");
  footnote(
      "Expected shape: solo warm solves save the per-call shortcut "
      "construction the CONGEST cold path re-pays inside every PA call; "
      "batched warm serving additionally pipelines the stream through the "
      "entry's session and drops >= 60% below cold (the docs/CACHING.md bar; "
      "break-even q = "
      "build rounds amortized against per-query batch savings). Solutions "
      "are bit-identical in all three modes; only charged rounds move. The "
      "update ladder classifies uniform scaling as an exact rescale, "
      "sub-1.25x off-tree drift as preconditioner reuse, tree-edge drift as "
      "a provenance reweight sweep, and a 10x jolt as a full rebuild from "
      "the entry's seed.");
  print_wall_clock(BenchRuntime{}, total_timer);  // single-threaded bench
  metrics.write(json_path);
  return 0;
}
