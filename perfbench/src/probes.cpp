// The traced run: per-layer numbers for one workload, measured from outside
// by timing calls into each module's public API.
//
// One operation of the workload (build, warm, solve one RHS) runs first
// untraced and then again from the same seed under the round-clocked Tracer
// plus the benchmark's own wall spans; the difference is the tracing
// overhead. The layer probes (shortcuts, congested_pa, linalg, sim ledger,
// session, cache) and the yardsticks (tree-only chain, CG over the same
// oracle, sequential CG) then run on the workload graph.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "calibrate.hpp"
#include "congested_pa/solver.hpp"
#include "graph/algorithms.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/solvers.hpp"
#include "obs/trace.hpp"
#include "shortcuts/construction.hpp"
#include "shortcuts/shortcut.hpp"
#include "sim/aggregation_scheduler.hpp"
#include "sim/round_ledger.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dls;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Median nanoseconds per call of `body`, over `batches` batches of `reps`.
double ns_per_call(std::size_t reps, const std::function<void()>& body,
                   std::size_t batches = 7) {
  Samples s;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    s.add(seconds_since(t0) * 1e9 / static_cast<double>(reps));
  }
  return s.median();
}

/// Bookkeeping shared by every probe: the metric sink, the solution checker
/// and the attempted/failed tally.
struct Probe {
  const RunConfig& config;
  const WorkloadSpec& spec;
  RunResult result;
  SolutionChecker checker;
  WallSpans spans;

  Probe(const RunConfig& c, const WorkloadSpec& s)
      : config(c), spec(s), checker(s.graph, default_solver_options().tolerance) {}

  void set(const std::string& name, double value, const std::string& unit) {
    result.metrics.set(name, value, unit);
  }
  bool accept(const Vec& b, const LaplacianSolveReport& report) {
    ++result.attempted;
    if (accept_solution(checker, b, report, config.corrupt)) return true;
    ++result.failed;
    return false;
  }
  std::uint64_t seed(std::uint64_t index) const {
    return derive_seed(config.seed, index);
  }
  static std::uint64_t solver_seed() { return perfbench::solver_seed(); }
  Vec rhs(std::uint64_t index) const {
    return operation_rhs(config, spec, false, index);
  }
};

PaModel pa_model(OracleKind kind) {
  switch (kind) {
    case OracleKind::kShortcutSupported:
      return PaModel::kSupportedCongest;
    case OracleKind::kShortcutCongest:
      return PaModel::kCongest;
    case OracleKind::kNcc:
      return PaModel::kNcc;
  }
  return PaModel::kSupportedCongest;
}

/// Ledger-label rollup of the entries [from, end) — one solve's charges.
void rollup_rounds(Probe& p, const RoundLedger& ledger, std::size_t from) {
  double matvec = 0, pa = 0, elim = 0, base = 0, check = 0;
  const auto& entries = ledger.entries();
  for (std::size_t i = from; i < entries.size(); ++i) {
    const LedgerEntry& e = entries[i];
    const auto r = static_cast<double>(e.local_rounds + e.global_rounds);
    const std::string& l = e.label;
    if (l == "solver/matvec-L0") {
      matvec += r;
    } else if (l.size() >= 3 && l.compare(l.size() - 3, 3, "-pa") == 0) {
      pa += r;
    } else if (l.rfind("solver/elim-", 0) == 0) {
      elim += r;
    } else if (l == "solver/base-case") {
      base += r;
    } else if (l == "solver/residual-check") {
      check += r;
    }
  }
  p.set("rounds.matvec_L0", matvec, "rounds");
  p.set("rounds.pa", pa, "rounds");
  p.set("rounds.elim", elim, "rounds");
  p.set("rounds.base_case", base, "rounds");
  p.set("rounds.residual_check", check, "rounds");
}

/// Span cap of the round-clocked Tracer. Every span open and close reads the
/// ledger cursor, and RoundLedger::total_messages() scans every entry, so an
/// uncapped trace of a full solve costs time quadratic in the ledger size
/// (35× the solve on grid-cold). Past the cap the Tracer only counts drops.
constexpr std::size_t kMaxTraceSpans = std::size_t{1} << 14;

/// One workload operation (stack build, warm, one solve) with a wall span
/// around each public call. With `tracer` set the round-clocked Tracer is
/// installed for the whole operation.
struct Operation {
  std::unique_ptr<Stack> stack;
  LaplacianSolveReport report;
  double solve_s = 0.0;
  double total_s = 0.0;
  std::size_t ledger_from = 0;  // first ledger entry of the solve
  double rss_growth_mb = 0.0;
};

Operation run_operation(Probe& p, const Vec& b, const std::string& name,
                        Tracer* tracer) {
  Operation op;
  const TraceScope scope(tracer);
  const WallSpan span(&p.spans, name);
  const auto t0 = Clock::now();
  op.stack = std::make_unique<Stack>(p.spec.graph, p.spec.oracle, p.solver_seed(),
                                     default_solver_options(), &p.spans);
  op.ledger_from = op.stack->oracle->ledger().entries().size();
  const double rss_before = current_rss_mb();
  {
    const WallSpan solve_span(&p.spans, "laplacian.solve");
    const auto ts = Clock::now();
    op.report = op.stack->solver->solve(b);
    op.solve_s = seconds_since(ts);
  }
  op.total_s = seconds_since(t0);
  op.rss_growth_mb = current_rss_mb() - rss_before;
  p.accept(b, op.report);
  return op;
}

/// Runs the operation with wall spans only, then with the Tracer installed,
/// then with wall spans again; the layer metrics come from the first, the
/// tracing overhead from the second against the mean of the other two.
/// Returns the warm stack of the last run for the probes that need one.
std::unique_ptr<Stack> probe_operation(Probe& p, const Vec& b) {
  Operation op = run_operation(p, b, "operation", nullptr);
  const Stack& stack = *op.stack;
  const LaplacianSolveReport& report = op.report;

  const auto& stats = stack.solver->level_stats();
  p.set("laplacian.build_s", stack.build_s, "s");
  p.set("laplacian.levels", static_cast<double>(stats.size()), "count");
  p.set("laplacian.level1_shrink",
        stats.size() > 1 ? static_cast<double>(stats[0].nodes) /
                               static_cast<double>(stats[1].nodes)
                         : 1.0,
        "ratio");
  p.set("laplacian.base_nodes", static_cast<double>(stats.back().nodes),
        "count");
  p.set("laplacian.state_mb",
        static_cast<double>(stack.solver->approx_state_bytes()) / kMiB, "MiB");

  const CongestedPaOracle& oracle = *stack.oracle;
  double measured = 0.0;
  for (std::size_t i = 0; i < oracle.num_instances(); ++i) {
    if (!oracle.is_measured(i)) continue;
    measured += static_cast<double>(oracle.measured_local_rounds(i) +
                                    oracle.measured_global_rounds(i));
  }
  p.set("oracle.measure_s", stack.measure_s, "s");
  p.set("oracle.instances", static_cast<double>(oracle.num_instances()),
        "count");
  p.set("oracle.measured_rounds", measured, "rounds");

  const double outer = std::max<double>(1.0, report.outer_iterations);
  const double calls = std::max<double>(1.0, report.pa_calls);
  p.set("solve.pa_calls_per_outer", calls / outer, "count");
  p.set("solve.ns_per_pa_call", op.solve_s * 1e9 / calls, "ns");
  p.set("solve.global_rounds_per_outer",
        static_cast<double>(report.global_rounds) / outer, "rounds");
  rollup_rounds(p, oracle.ledger(), op.ledger_from);
  p.set("sim.ledger_entries_per_solve",
        static_cast<double>(oracle.ledger().entries().size() - op.ledger_from),
        "count");
  p.set("sim.rss_growth_mb_per_solve", op.rss_growth_mb, "MiB");

  TracerOptions options;
  options.max_spans = kMaxTraceSpans;
  Tracer tracer({}, options);
  const double traced_s = run_operation(p, b, "operation + Tracer", &tracer).total_s;
  Operation again = run_operation(p, b, "operation", nullptr);
  p.set("trace.overhead_frac",
        traced_s / (0.5 * (op.total_s + again.total_s)) - 1.0, "ratio");
  p.set("trace.spans",
        static_cast<double>(tracer.spans().size() + tracer.dropped_spans()),
        "count");
  return std::move(again.stack);
}

/// Shortcut construction, its measurement alone, and the congested PA
/// solver, on random-path stand-in instances with ρ = 1 and ρ = 4.
void probe_shortcuts(Probe& p) {
  const Graph& g = p.spec.graph;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(g.num_nodes()))));
  Rng rng(p.seed(101));
  double build_s = 0, measure_s = 0, pa_s = 0, pa_rounds = 0;
  std::size_t quality = 0;
  for (const std::size_t rho : {1, 4}) {
    const PartCollection pc =
        random_path_instance(g, side * rho / 2, side, rho, rng);
    const WallSpan span(&p.spans, "shortcuts+congested_pa rho=" +
                                      std::to_string(rho));
    auto t0 = Clock::now();
    const BestShortcut best = build_best_shortcut(g, pc, rng);
    build_s += seconds_since(t0);
    t0 = Clock::now();
    const ShortcutQuality q = measure_shortcut(g, pc, best.shortcut);
    measure_s += seconds_since(t0);
    quality = std::max(quality, q.quality());

    std::vector<std::vector<double>> values(pc.num_parts());
    for (std::size_t i = 0; i < pc.num_parts(); ++i) {
      values[i].assign(pc.parts[i].size(), 1.0);
    }
    CongestedPaOptions options;
    options.model = pa_model(p.spec.oracle);
    t0 = Clock::now();
    const CongestedPaOutcome out = solve_congested_pa(
        g, pc, values, AggregationMonoid::sum(), rng, options);
    pa_s += seconds_since(t0);
    pa_rounds += static_cast<double>(out.total_rounds);
    for (std::size_t i = 0; i < pc.num_parts(); ++i) {
      ++p.result.attempted;
      if (out.results[i] != static_cast<double>(pc.parts[i].size())) {
        ++p.result.failed;
      }
    }
  }
  p.set("shortcuts.build_best_s", build_s, "s");
  p.set("shortcuts.measure_s", measure_s, "s");
  p.set("shortcuts.quality", static_cast<double>(quality), "count");
  p.set("congested_pa.solve_s", pa_s, "s");
  p.set("congested_pa.rounds", pa_rounds, "rounds");
}

/// Connected base-size piece of g: the first `size` nodes in BFS order.
Graph bfs_prefix(const Graph& g, std::size_t size) {
  const BfsResult bfs_result = bfs(g, 0);
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return bfs_result.dist[a] < bfs_result.dist[b];
  });
  order.resize(std::min(size, order.size()));
  std::vector<NodeId> index(g.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < order.size(); ++i) {
    index[order[i]] = static_cast<NodeId>(i);
  }
  Graph sub(order.size());
  for (const Edge& e : g.edges()) {
    if (index[e.u] != kInvalidNode && index[e.v] != kInvalidNode) {
      sub.add_edge(index[e.u], index[e.v], e.weight);
    }
  }
  return sub;
}

/// Kernel timings on the workload graph. Arrays are far below the last-level
/// cache, so bytes are computed from array sizes and no rate is derived.
void probe_linalg(Probe& p) {
  const WallSpan span(&p.spans, "linalg kernels");
  const Graph& g = p.spec.graph;
  const LaplacianCsr csr(g);
  const std::size_t n = g.num_nodes();
  const Vec x = p.rhs(900);
  Vec y(n);
  volatile double sink = 0.0;
  const std::size_t reps = std::max<std::size_t>(50, 8'000'000 / (n + 1));
  p.set("linalg.csr_apply_ns", ns_per_call(reps, [&] {
          csr.apply(x, y);
          sink = sink + y[0];
        }), "ns");
  p.set("linalg.csr_apply_bytes",
        static_cast<double>((n + 1) * sizeof(std::uint32_t) +
                            csr.num_entries() * (sizeof(NodeId) + sizeof(double)) +
                            3 * n * sizeof(double)),
        "bytes");
  p.set("linalg.dot_ns",
        ns_per_call(reps, [&] { sink = sink + blocked_dot(x, y); }), "ns");

  const Graph base = bfs_prefix(g, default_solver_options().base_size);
  const GroundedCholesky chol(base);
  Rng rng(p.seed(901));
  const Vec bb = random_rhs(base.num_nodes(), rng);
  Vec xb;
  SolveWorkspace ws;
  p.set("linalg.cholesky_solve_ns", ns_per_call(2000, [&] {
          chol.solve_into(bb, xb, ws);
          sink = sink + xb[0];
        }), "ns");
}

/// Cost of one ledger charge, the solve loop's bookkeeping primitive.
void probe_ledger(Probe& p) {
  const WallSpan span(&p.spans, "sim ledger");
  const std::string label = "solver/matvec-L0";
  Samples s;
  constexpr std::size_t kCharges = 100'000;
  for (int b = 0; b < 5; ++b) {
    RoundLedger ledger;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kCharges; ++i) ledger.charge_local(1, label);
    s.add(seconds_since(t0) * 1e9 / kCharges);
  }
  p.set("sim.ledger_charge_ns", s.median(), "ns");
}

/// Batched solves on a warm stack, 1 thread against a 4-thread pool.
void probe_session(Probe& p, Stack& stack) {
  const WallSpan span(&p.spans, "laplacian.solve_batch x2");
  std::vector<Vec> bs;
  for (std::size_t i = 0; i < p.spec.batch; ++i) bs.push_back(p.rhs(1000 + i));
  auto t0 = Clock::now();
  const auto serial = stack.solver->solve_batch(bs, nullptr);
  const double t1 = seconds_since(t0);
  ThreadPool pool(4);
  const RoundLedger& ledger = stack.oracle->ledger();
  const std::uint64_t before = ledger.total_local() + ledger.total_global();
  t0 = Clock::now();
  const auto pooled = stack.solver->solve_batch(bs, &pool);
  const double t4 = seconds_since(t0);
  const std::uint64_t charged =
      ledger.total_local() + ledger.total_global() - before;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    p.accept(bs[i], serial[i]);
    p.accept(bs[i], pooled[i]);
  }
  p.set("session.batch_s", t4, "s");
  p.set("session.parallel_efficiency", t1 / (4.0 * t4), "ratio");
  p.set("session.amortized_rounds_per_rhs",
        static_cast<double>(charged) / static_cast<double>(bs.size()),
        "rounds");
}

/// One SolverCache entry on the workload graph: the miss, then alternating
/// reuse-rung and partial-rebuild updates.
void probe_cache(Probe& p, const Vec& b) {
  const WallSpan span(&p.spans, "laplacian.SolverCache");
  SolverCacheOptions options;
  options.solver = default_solver_options();
  options.oracle = cache_oracle_kind(p.spec.oracle);
  options.seed = p.solver_seed();
  SolverCache cache(options);
  Graph current = p.spec.graph;
  CachedSolverState& entry = cache.acquire(current).state;
  p.set("cache.build_rounds", static_cast<double>(entry.build_rounds()),
        "rounds");
  p.set("cache.entry_mb", static_cast<double>(entry.approx_bytes()) / kMiB,
        "MiB");
  SolutionChecker checker(current, options.solver.tolerance);
  const auto accept = [&](const LaplacianSolveReport& r) {
    ++p.result.attempted;
    if (!accept_solution(checker, b, r, p.config.corrupt)) ++p.result.failed;
  };
  accept(entry.solve(b));

  const UpdateStream stream(current, entry.solver().level0_tree_edges(),
                            options.seed);
  Samples reuse, partial;
  for (std::size_t step = 0; step < 8; ++step) {
    const WeightUpdateClass expected = stream.apply(step, current);
    const auto t0 = Clock::now();
    const SolverCache::Acquired acquired = cache.acquire(current);
    (step % 2 == 0 ? reuse : partial).add(seconds_since(t0));
    checker.refresh(current);
    ++p.result.attempted;
    if (!acquired.hit || acquired.update.classification != expected) {
      ++p.result.failed;
    }
    if (step == 0) {
      const LaplacianSolveReport r = entry.solve(b);
      accept(r);
      p.set("cache.outer_after_reuse", static_cast<double>(r.outer_iterations),
            "count");
    }
  }
  p.set("cache.update_reuse_s", reuse.median(), "s");
  p.set("cache.update_partial_s", partial.median(), "s");
}

/// CG whose communication is charged through the workload's oracle: one
/// local exchange and two global-instance PA calls per iteration, plus the
/// initial ‖b‖ reduction. Returns the rounds charged.
double cg_over_oracle(Probe& p, const Vec& b) {
  const Graph& g = p.spec.graph;
  Rng rng(p.solver_seed());
  const auto owned = make_oracle(g, p.spec.oracle, rng);
  CongestedPaOracle& oracle = *owned;
  PartCollection global;
  global.parts.emplace_back(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) global.parts[0][v] = v;
  const auto instance = oracle.prepare(global);
  const RoundLedger& ledger = oracle.ledger();
  const std::uint64_t before = ledger.total_local() + ledger.total_global();

  const LaplacianCsr& csr = p.checker.csr();
  const double tol = default_solver_options().tolerance;
  const std::size_t n = g.num_nodes();
  Vec x(n, 0.0), r = b, dir = b, ad(n);
  double rr = blocked_dot(r, r);
  oracle.charge_aggregate(instance);
  const double b_norm = std::sqrt(rr);
  for (std::size_t it = 0; it < 10 * n && std::sqrt(rr) > tol * b_norm; ++it) {
    oracle.charge_local_exchange("cg/matvec");
    csr.apply(dir, ad);
    project_mean_zero(ad);
    const double alpha = rr / blocked_dot(dir, ad);
    oracle.charge_aggregate(instance);
    axpy(alpha, dir, x);
    const double rr_next = axpy_dot(-alpha, ad, r);
    oracle.charge_aggregate(instance);
    xpay(r, rr_next / rr, dir);
    rr = rr_next;
  }
  LaplacianSolveReport report;
  report.x = x;
  report.converged = std::sqrt(rr) <= tol * b_norm;
  p.accept(b, report);
  return static_cast<double>(ledger.total_local() + ledger.total_global() -
                             before);
}

void probe_yardsticks(Probe& p, const Vec& b) {
  {
    const WallSpan span(&p.spans, "ref tree-only chain");
    LaplacianSolverOptions options = default_solver_options();
    options.tree_preconditioner_only = true;
    const Stack stack(p.spec.graph, p.spec.oracle, p.solver_seed(), options);
    const auto t0 = Clock::now();
    const LaplacianSolveReport r = stack.solver->solve(b);
    p.set("ref.tree_only.solve_s", seconds_since(t0), "s");
    p.accept(b, r);
    p.set("ref.tree_only.rounds",
          static_cast<double>(r.local_rounds + r.global_rounds), "rounds");
    p.set("ref.tree_only.pa_calls", static_cast<double>(r.pa_calls), "count");
  }
  {
    const WallSpan span(&p.spans, "ref CG over oracle");
    p.set("ref.cg_oracle.rounds", cg_over_oracle(p, b), "rounds");
  }
  const WallSpan span(&p.spans, "ref sequential CG");
  SolveOptions options;
  options.tolerance = default_solver_options().tolerance;
  SolveWorkspace ws;
  Samples s;
  SolveResult seq;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    seq = solve_laplacian_cg(p.checker.csr(), b, options, ws);
    s.add(seconds_since(t0));
  }
  LaplacianSolveReport report;
  report.x = seq.x;
  report.converged = seq.converged;
  p.accept(b, report);
  p.set("ref.seq_cg.iterations", static_cast<double>(seq.iterations), "count");
  p.set("ref.seq_cg_s", s.median(), "s");
}

}  // namespace

RunResult run_traced(const RunConfig& config) {
  const WorkloadSpec spec = make_workload(config);
  Probe p(config, spec);
  const Vec b = p.rhs(0);
  // Every probe's times are scaled to the nominal host speed by the
  // calibration samples taken right before and right after it, as the
  // end-to-end timings are.
  HostSpeed host;
  host.mark();
  const auto calibrated = [&](const std::function<void()>& probe) {
    const std::size_t from = p.result.metrics.entries().size();
    probe();
    p.result.metrics.scale_times(from, at_nominal_speed(1.0, host.mark()));
  };
  std::unique_ptr<Stack> warm;
  calibrated([&] { warm = probe_operation(p, b); });
  calibrated([&] { probe_shortcuts(p); });
  calibrated([&] { probe_linalg(p); });
  calibrated([&] { probe_ledger(p); });
  calibrated([&] { probe_session(p, *warm); });
  warm.reset();
  calibrated([&] { probe_cache(p, b); });
  calibrated([&] { probe_yardsticks(p, b); });
  for (const std::string& line : p.spans.render()) p.result.metrics.note(line);
  return std::move(p.result);
}

}  // namespace perfbench
