// Multi-RHS batching: SolveSession::solve_batch vs N sequential solve()
// calls, across families × batch sizes × thread counts. Three claims are on
// display: (1) wall-clock speedup from fanning independent RHS across the
// ThreadPool — the hierarchy, Cholesky base factor, and measured PA
// instances are built once and reused; (2) simulated-round savings from
// amortized batch charging — concurrent PA aggregations over one measured
// shortcut instance pipeline as one congested phase instead of N replays;
// (3) the determinism contract — every batch result is asserted bit-identical
// to the sequential solve, for every thread count, inside the bench itself.
//
// Flags: --smoke (small grid for CI), --json PATH (flat metrics for
// scripts/bench_compare.py), --threads N (extra thread count to sweep),
// --cache (serve every family through a warm SolverCache entry; asserted
// bit-identical to the bare stack, so tables and metrics are unchanged).
#include <algorithm>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "laplacian/recursive_solver.hpp"
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
    families.push_back({"grid", make_grid(22, 22)});
    families.push_back({"expander", make_random_regular(384, 4, gen_rng)});
    families.push_back({"weighted-grid", make_weighted_grid(16, 16, gen_rng)});
  }
  return families;
}

std::vector<Vec> make_batch(std::size_t k, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> bs;
  bs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) bs.push_back(random_rhs(n, rng));
  return bs;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"smoke", "cache", "json", "trace", "threads"});
  const bool smoke = flags.get_bool("smoke", false);
  const bool use_cache = flags.get_bool("cache", false);
  const std::string json_path = flags.get("json", "");
  std::unique_ptr<TraceSession> trace;
  const std::string trace_path = flags.get("trace", "");
  if (!trace_path.empty()) trace = std::make_unique<TraceSession>(trace_path);

  banner("multi-RHS batching",
         "solve_batch vs sequential solves: wall clock + amortized rounds");

  const std::vector<Family> families = make_families(smoke);
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 16};
  std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  const auto extra = static_cast<std::size_t>(flags.get_int("threads", 0));
  if (extra > 0 &&
      std::find(thread_counts.begin(), thread_counts.end(), extra) ==
          thread_counts.end()) {
    thread_counts.push_back(extra);
  }

  JsonMetrics metrics("multi_rhs");
  Table table({"family", "n", "batch", "threads", "seq ms", "batch ms",
               "speedup", "seq rounds", "batch rounds", "rounds saved",
               "bit-identical"});

  LaplacianSolverOptions options;
  options.tolerance = 1e-6;
  options.base_size = 40;
  // --cache: one warm entry per family, bit-interchangeable with the bare
  // stack below (same seed, same oracle construction order). The cache holds
  // the entries alive across the family loop.
  std::unique_ptr<SolverCache> cache;
  if (use_cache) {
    SolverCacheOptions cache_options;
    cache_options.solver = options;
    cache_options.oracle = CacheOracleKind::kShortcutSupported;
    cache_options.seed = 42;
    cache_options.max_entries = families.size();
    cache = std::make_unique<SolverCache>(cache_options);
  }

  for (const Family& family : families) {
    const std::size_t n = family.graph.num_nodes();
    Rng rng(42);
    std::unique_ptr<ShortcutPaOracle> bare_oracle;
    std::unique_ptr<DistributedLaplacianSolver> bare_solver;
    DistributedLaplacianSolver* solver_ptr = nullptr;
    if (use_cache) {
      solver_ptr = &cache->acquire(family.graph).state.solver();
    } else {
      bare_oracle = std::make_unique<ShortcutPaOracle>(family.graph, rng);
      bare_solver =
          std::make_unique<DistributedLaplacianSolver>(*bare_oracle, rng, options);
      solver_ptr = bare_solver.get();
    }
    DistributedLaplacianSolver& solver = *solver_ptr;
    // Warm-up solve: measures every PA instance once, so neither timed path
    // pays one-off measurement cost and both charge cached costs only.
    const LaplacianSolveReport warmup = solver.solve(make_batch(1, n, 7)[0]);
    if (use_cache) {
      // The cache contract, checked in the bench itself: a cached entry's
      // solves are bit-identical to the bare (non-cached) stack's.
      Rng ref_rng(42);
      ShortcutPaOracle ref_oracle(family.graph, ref_rng);
      DistributedLaplacianSolver ref_solver(ref_oracle, ref_rng, options);
      const LaplacianSolveReport ref = ref_solver.solve(make_batch(1, n, 7)[0]);
      DLS_REQUIRE(warmup.x == ref.x &&
                      warmup.outer_iterations == ref.outer_iterations,
                  "cached solve diverged from the bare stack (family " +
                      family.name + ")");
    }

    for (const std::size_t k : batch_sizes) {
      const std::vector<Vec> bs = make_batch(k, n, 1234 + k);

      // Sequential baseline: k independent solve() calls on the shared path.
      WallTimer seq_timer;
      std::vector<LaplacianSolveReport> seq_reports;
      seq_reports.reserve(k);
      for (const Vec& b : bs) seq_reports.push_back(solver.solve(b));
      const double seq_seconds = seq_timer.seconds();
      std::uint64_t seq_rounds = 0;
      for (const auto& r : seq_reports) seq_rounds += r.local_rounds;

      for (const std::size_t threads : thread_counts) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

        SolveSession session(solver);
        WallTimer batch_timer;
        const auto batch_reports = session.solve_batch(bs, pool.get());
        const double batch_seconds = batch_timer.seconds();
        const std::uint64_t batch_rounds =
            session.last_batch_ledger().total_local();

        // The determinism contract, checked in the bench itself: every slot
        // is bit-identical to its sequential solve for every thread count.
        bool identical = batch_reports.size() == k;
        for (std::size_t i = 0; identical && i < k; ++i) {
          identical = batch_reports[i].x == seq_reports[i].x &&
                      batch_reports[i].outer_iterations ==
                          seq_reports[i].outer_iterations &&
                      batch_reports[i].local_rounds == seq_reports[i].local_rounds;
        }
        DLS_REQUIRE(identical,
                    "batch result diverged from sequential solves (family " +
                        family.name + ", batch " + std::to_string(k) +
                        ", threads " + std::to_string(threads) + ")");

        const double speedup = seq_seconds / std::max(batch_seconds, 1e-12);
        const double saved = 1.0 - static_cast<double>(batch_rounds) /
                                       static_cast<double>(std::max<std::uint64_t>(
                                           seq_rounds, 1));
        table.add_row({family.name, Table::cell(n), Table::cell(k),
                       Table::cell(threads), Table::cell(seq_seconds * 1e3),
                       Table::cell(batch_seconds * 1e3), Table::cell(speedup),
                       Table::cell(seq_rounds), Table::cell(batch_rounds),
                       Table::cell(saved), identical ? "yes" : "NO"});

        const std::string prefix = family.name + "/b" + std::to_string(k) +
                                   "/t" + std::to_string(threads) + "/";
        metrics.set(prefix + "wall_seq_ms", seq_seconds * 1e3);
        metrics.set(prefix + "wall_batch_ms", batch_seconds * 1e3);
        metrics.set(prefix + "speedup", speedup);
        metrics.set(prefix + "rounds_seq", static_cast<double>(seq_rounds));
        metrics.set(prefix + "rounds_batch", static_cast<double>(batch_rounds));
      }
    }
  }

  table.print(std::cout);
  footnote(
      "Expected shape: speedup ~ min(batch, threads) once per-RHS work "
      "dominates pool overhead (sequential baseline is timed once per batch "
      "size and reused across thread rows). Simulated rounds are thread-count "
      "invariant; 'rounds saved' is the amortized batch-charging win — "
      "concurrent PA calls over one measured instance pipeline instead of "
      "replaying, so it grows with batch size and is 0 at batch 1.");
  metrics.write(json_path);
  return 0;
}
