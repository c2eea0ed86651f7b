#include "laplacian/recursive_solver.hpp"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "laplacian/low_stretch_tree.hpp"
#include "obs/ledger_clock.hpp"
#include "sim/fault_injection.hpp"

namespace dls {

namespace {

/// Relative residual each inner (preconditioner-level) solve aims for. Crude
/// on purpose: the outer flexible PCG absorbs the inexactness.
constexpr double kInnerTolerance = 0.2;

}  // namespace

DistributedLaplacianSolver::DistributedLaplacianSolver(
    CongestedPaOracle& oracle, Rng& rng, const LaplacianSolverOptions& options)
    : oracle_(oracle), options_(options) {
  const Graph& g = oracle_.graph();
  DLS_REQUIRE(is_connected(g), "Laplacian solver requires a connected graph");
  DLS_REQUIRE(options_.tolerance > 0, "tolerance must be positive");
  DLS_REQUIRE(options_.max_levels >= 1, "max_levels must be at least 1");

  // Global 1-congested instance used by every inner product.
  {
    PartCollection pc;
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
    pc.parts.push_back(std::move(all));
    global_instance_ = oracle_.prepare(pc);
    global_values_.resize(1);
    global_values_[0].assign(g.num_nodes(), 0.0);
  }
  {
    Rng diam_rng = rng.fork();
    base_transfer_rounds_ = approx_diameter(g, diam_rng, 2);
  }

  // Build the chain.
  MinorGraph current = MinorGraph::identity(g);
  for (std::size_t depth = 0; depth < options_.max_levels; ++depth) {
    Level level;
    level.minor = current;
    level.view = level.minor.as_graph();
    level.csr.rebuild(level.view);

    LevelStats stats;
    stats.nodes = level.minor.num_nodes;
    stats.edges = level.minor.edges.size();
    stats.host_congestion = level.minor.host_congestion(g.num_nodes());

    // Prepared matvec instance for minor levels (level 0 is local exchange).
    if (depth > 0) {
      const PartCollection pc = level.minor.matvec_parts();
      if (pc.num_parts() > 0) {
        level.matvec_instance = oracle_.prepare(pc);
        level.has_matvec_instance = true;
        level.matvec_values.resize(pc.num_parts());
        for (std::size_t i = 0; i < pc.num_parts(); ++i) {
          level.matvec_values[i].assign(pc.parts[i].size(), 0.0);
        }
      }
    }

    const bool base = level.minor.num_nodes <= options_.base_size ||
                      depth + 1 == options_.max_levels;
    if (base) {
      level.is_base = true;
      stats.is_base = true;
      level.base_solver = std::make_unique<GroundedCholesky>(level.view, 0);
      levels_.push_back(std::move(level));
      stats_.push_back(stats);
      break;
    }

    const double budget =
        options_.tree_preconditioner_only
            ? 0.0
            : std::max(1.0, options_.offtree_fraction *
                                static_cast<double>(level.minor.num_nodes));
    level.sparsifier = build_ultra_sparsifier(level.minor, budget, rng);
    stats.off_tree_kept = level.sparsifier.off_tree_kept;
    stats.avg_stretch =
        level.sparsifier.total_stretch /
        std::max<double>(1.0, static_cast<double>(level.minor.edges.size()));
    level.elim = eliminate_degree_le2(level.sparsifier.sparsifier);
    stats.chain_hops = level.elim.max_chain_hops;

    const MinorGraph next = level.elim.schur;
    stats_.push_back(stats);
    levels_.push_back(std::move(level));
    // Guard against a stalled chain: if elimination failed to shrink the
    // graph meaningfully, let the next iteration bottom out in Cholesky.
    if (next.num_nodes + 2 >= current.num_nodes) {
      Level base_level;
      base_level.minor = next;
      base_level.view = base_level.minor.as_graph();
      base_level.csr.rebuild(base_level.view);
      base_level.is_base = true;
      base_level.base_solver =
          std::make_unique<GroundedCholesky>(base_level.view, 0);
      LevelStats base_stats;
      base_stats.nodes = next.num_nodes;
      base_stats.edges = next.edges.size();
      base_stats.host_congestion = next.host_congestion(g.num_nodes());
      base_stats.is_base = true;
      stats_.push_back(base_stats);
      levels_.push_back(std::move(base_level));
      break;
    }
    current = next;
  }
  DLS_ASSERT(levels_.back().is_base, "chain must terminate in a base level");
}

void DistributedLaplacianSolver::warm_instances() {
  // Natural first-use order of a sequential solve: the global inner-product
  // instance is touched first (the ‖b‖ dot), and — because the initial
  // preconditioner application descends to the base case before any
  // minor-level matvec runs — matvec instances are first touched on the
  // recursion unwind, deepest non-base level first. Measurement is the only
  // rng-consuming, oracle-mutating step of a solve, so matching that order
  // exactly keeps the oracle's rng stream (and therefore every measured
  // cost) identical to what N sequential solves would have produced. The
  // base level's matvec instance is deliberately NOT warmed: a sequential
  // solve never aggregates it (the base case gathers and solves locally).
  ScopedSpan span(Tracer::ambient(), "solver/warm-instances",
                  SpanKind::kPhase);
  oracle_.warm(global_instance_);
  for (std::size_t l = levels_.size() - 1; l-- > 1;) {
    if (levels_[l].has_matvec_instance) {
      oracle_.warm(levels_[l].matvec_instance);
    }
  }
}

std::size_t DistributedLaplacianSolver::approx_state_bytes() const {
  const auto minor_bytes = [](const MinorGraph& m) {
    std::size_t b = sizeof(MinorGraph) + m.host.size() * sizeof(NodeId);
    for (const MinorEdge& e : m.edges) {
      b += sizeof(MinorEdge) + e.g_path.size() * sizeof(NodeId);
    }
    return b;
  };
  const auto graph_bytes = [](const Graph& g) {
    return sizeof(Graph) + g.num_edges() * sizeof(Edge) +
           2 * g.num_edges() * sizeof(Adjacency);
  };
  std::size_t bytes = sizeof(*this);
  for (const Level& lv : levels_) {
    bytes += minor_bytes(lv.minor) + graph_bytes(lv.view) +
             minor_bytes(lv.sparsifier.sparsifier) +
             lv.sparsifier.source_edges.size() *
                 (sizeof(EdgeId) + sizeof(double)) +
             lv.elim.steps.size() * sizeof(EliminationStep) +
             minor_bytes(lv.elim.schur);
    for (const auto& vals : lv.matvec_values) {
      bytes += vals.size() * sizeof(double);
    }
    if (lv.base_solver != nullptr) {
      // Dense grounded factor: n×n lower triangle stored square.
      bytes += lv.minor.num_nodes * lv.minor.num_nodes * sizeof(double);
    }
  }
  return bytes;
}

std::vector<EdgeId> DistributedLaplacianSolver::level0_tree_edges() const {
  std::vector<EdgeId> edges;
  const Level& lv = levels_.front();
  if (lv.is_base) return edges;
  const UltraSparsifier& sp = lv.sparsifier;
  edges.reserve(sp.tree_edge_indices.size());
  // Level 0 is the identity minor, so a sparsifier source edge IS the graph
  // edge id.
  for (const std::size_t idx : sp.tree_edge_indices) {
    edges.push_back(sp.source_edges[idx]);
  }
  return edges;
}

void DistributedLaplacianSolver::refresh_operator_weights() {
  Level& lv = levels_.front();
  const Graph& g = oracle_.graph();
  DLS_REQUIRE(lv.minor.edges.size() == g.num_edges(),
              "level-0 minor out of sync with the graph");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lv.minor.edges[e].weight = g.edge(e).weight;
  }
  lv.view = lv.minor.as_graph();
  lv.csr.refresh_weights(lv.view);
  if (lv.is_base) {
    lv.base_solver = std::make_unique<GroundedCholesky>(lv.view, 0);
  }
}

namespace {

/// Weight-blind structural equality: same nodes, hosts, endpoints, and host
/// paths. The reweight sweep commits only when every level's structure is
/// preserved, so the measured matvec PA instances (which depend on structure
/// alone) stay valid.
bool same_minor_structure(const MinorGraph& a, const MinorGraph& b) {
  if (a.num_nodes != b.num_nodes || a.host != b.host ||
      a.edges.size() != b.edges.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].u != b.edges[i].u || a.edges[i].v != b.edges[i].v ||
        a.edges[i].g_path != b.edges[i].g_path) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool DistributedLaplacianSolver::reweight_chain_from_graph() {
  const Graph& g = oracle_.graph();
  struct Candidate {
    MinorGraph minor;
    Graph view;
    MinorGraph sparsifier;  // non-base levels
    EliminationResult elim;  // non-base levels
    std::unique_ptr<GroundedCholesky> base;  // base level
  };
  std::vector<Candidate> cands(levels_.size());

  // Phase 1: derive every level's new numerics into temporaries, validating
  // structure as we go. Nothing below mutates the solver, so a mismatch (or
  // an exception) leaves the chain exactly as it was.
  MinorGraph current = levels_.front().minor;
  if (current.edges.size() != g.num_edges()) return false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    current.edges[e].weight = g.edge(e).weight;
  }
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Level& lv = levels_[l];
    if (!same_minor_structure(current, lv.minor)) return false;
    cands[l].minor = current;
    cands[l].view = cands[l].minor.as_graph();
    if (lv.is_base) {
      cands[l].base = std::make_unique<GroundedCholesky>(cands[l].view, 0);
      break;
    }
    const UltraSparsifier& sp = lv.sparsifier;
    if (sp.source_edges.size() != sp.sparsifier.edges.size() ||
        sp.reweight_factors.size() != sp.sparsifier.edges.size()) {
      return false;
    }
    MinorGraph respars = sp.sparsifier;
    for (std::size_t i = 0; i < respars.edges.size(); ++i) {
      respars.edges[i].weight =
          current.edges[sp.source_edges[i]].weight * sp.reweight_factors[i];
    }
    EliminationResult elim = eliminate_degree_le2(respars);
    if (l + 1 >= levels_.size() ||
        !same_minor_structure(elim.schur, levels_[l + 1].minor)) {
      return false;
    }
    cands[l].sparsifier = std::move(respars);
    current = elim.schur;
    cands[l].elim = std::move(elim);
  }

  // Phase 2: commit — moves plus an in-place CSR weight refresh (structure
  // was validated identical above, so the cheap path applies; it allocates
  // nothing and cannot throw past its size checks).
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lv = levels_[l];
    lv.minor = std::move(cands[l].minor);
    lv.view = std::move(cands[l].view);
    lv.csr.refresh_weights(lv.view);
    if (lv.is_base) {
      lv.base_solver = std::move(cands[l].base);
      break;
    }
    lv.sparsifier.sparsifier = std::move(cands[l].sparsifier);
    lv.elim = std::move(cands[l].elim);
  }
  return true;
}

void DistributedLaplacianSolver::ctx_charge_aggregate(
    SolveContext& ctx, CongestedPaOracle::InstanceId instance) {
  if (ctx.pa_counts != nullptr) ++(*ctx.pa_counts)[instance];
  if (ctx.shared()) {
    oracle_.charge_aggregate(instance);
    return;
  }
  oracle_.charge_aggregate_into(instance, *ctx.ledger, ctx.pa_calls);
}

void DistributedLaplacianSolver::apply_matvec_into(SolveContext& ctx,
                                                   std::size_t level,
                                                   const Vec& x, Vec& y) {
  Level& lv = levels_[level];
  if (level == 0) {
    ctx_ledger(ctx).charge_local(1, "solver/matvec-L0");
  } else if (lv.has_matvec_instance) {
    ctx_charge_aggregate(ctx, lv.matvec_instance);
  }
  lv.csr.apply(x, y);
}

double DistributedLaplacianSolver::charged_dot(SolveContext& ctx, const Vec& a,
                                               const Vec& b) {
  ctx_charge_aggregate(ctx, global_instance_);
  return dot(a, b);
}

void DistributedLaplacianSolver::apply_preconditioner_into(
    SolveContext& ctx, std::size_t level, const Vec& r, Vec& z_out,
    SolveWorkspace& ws) {
  Level& lv = levels_[level];
  DLS_ASSERT(!lv.is_base, "preconditioner requested at base level");
  // Forward-eliminate the rhs onto the Schur system, solve the next level
  // crudely, back-substitute. The sweeps are local chains of the spliced
  // paths; charge the longest chain once per direction.
  if (lv.elim.max_chain_hops > 0) {
    ctx_ledger(ctx).charge_local(lv.elim.max_chain_hops,
                                 "solver/elim-forward");
  }
  WorkspaceLease work = ws.acquire_scratch(0);
  WorkspaceLease reduced = ws.acquire_scratch(0);
  WorkspaceLease schur_x = ws.acquire_scratch(0);
  WorkspaceLease b_at_elim = ws.acquire_scratch(0);
  lv.elim.forward_rhs_into(r, *work, *reduced);
  project_mean_zero(*reduced);
  std::size_t inner_iters = 0;
  solve_level(ctx, level + 1, *reduced, kInnerTolerance,
              options_.inner_iterations, *schur_x, &inner_iters);
  if (lv.elim.max_chain_hops > 0) {
    ctx_ledger(ctx).charge_local(lv.elim.max_chain_hops,
                                 "solver/elim-backward");
  }
  lv.elim.backward_solution_into(*schur_x, r, *work, *b_at_elim, z_out);
  project_mean_zero(z_out);
}

void DistributedLaplacianSolver::solve_level(SolveContext& ctx,
                                             std::size_t level, const Vec& b,
                                             double tol, std::size_t max_iter,
                                             Vec& x_out,
                                             std::size_t* iterations_out,
                                             std::vector<double>* history,
                                             NumericalWatchdog* wd) {
  Level& lv = levels_[level];
  SolveWorkspace& ws = ctx_ws(ctx);
  if (iterations_out != nullptr) *iterations_out = 0;
  Tracer* tracer = Tracer::ambient();
  if (lv.is_base) {
    ScopedSpan span(tracer, "solver/base-case", SpanKind::kLevel);
    span.counter("level", level);
    // Gather the base system's rhs to a leader, solve locally, scatter.
    ctx_ledger(ctx).charge_local(
        2 * (lv.minor.num_nodes + base_transfer_rounds_), "solver/base-case");
    WorkspaceLease rhs = ws.acquire_scratch(0);
    *rhs = b;
    project_mean_zero(*rhs);
    lv.base_solver->solve_into(*rhs, x_out, ws);
    return;
  }
  ScopedSpan level_span(tracer, "solver/level", SpanKind::kLevel);
  level_span.counter("level", level);

  // Flexible PCG (Polak–Ribière beta) — tolerant of the slightly nonlinear
  // preconditioner formed by crude inner solves. The recurrence vectors are
  // leases: after the first outer iteration has sized every buffer the loop
  // touches the heap zero times (the zero-allocation contract the kernels
  // test asserts, docs/KERNELS.md).
  const std::size_t n = lv.minor.num_nodes;
  WorkspaceLease rhs_l = ws.acquire_scratch(0);
  Vec& rhs = *rhs_l;
  rhs = b;
  project_mean_zero(rhs);
  x_out.assign(n, 0.0);
  const double b_norm = std::sqrt(charged_dot(ctx, rhs, rhs));
  if (b_norm == 0.0) return;
  WorkspaceLease r_l = ws.acquire_scratch(n);
  WorkspaceLease z_l = ws.acquire_scratch(n);
  WorkspaceLease p_l = ws.acquire_scratch(n);
  WorkspaceLease r_prev_l = ws.acquire_scratch(n);
  WorkspaceLease ap_l = ws.acquire_scratch(n);
  WorkspaceLease dr_l = ws.acquire_scratch(n);
  Vec& r = *r_l;
  Vec& z = *z_l;
  Vec& p = *p_l;
  Vec& r_prev = *r_prev_l;
  Vec& ap = *ap_l;
  Vec& dr = *dr_l;
  r = rhs;
  apply_preconditioner_into(ctx, level, r, z, ws);
  p = z;
  double rz = charged_dot(ctx, r, z);
  r_prev = r;
  // Watchdog remediation: recompute the true residual from the current
  // iterate (fully charged — the remediation matvec is real work) and reset
  // the search direction to preconditioned steepest descent. A poisoned
  // iterate rewinds to zero. (`ap` doubles as the matvec temp; the loop top
  // overwrites it before its next use.)
  const auto pcg_restart = [&](WatchdogSignal signal) {
    apply_matvec_into(ctx, level, x_out, ap);
    project_mean_zero(ap);
    if (!all_finite(ap) || !all_finite(x_out)) {
      x_out.assign(n, 0.0);
      ap.assign(n, 0.0);
    }
    sub_into(rhs, ap, r);
    apply_preconditioner_into(ctx, level, r, z, ws);
    p = z;
    rz = charged_dot(ctx, r, z);
    r_prev = r;
    wd->reset_residual_tracking();
    RecoveryEvent event;
    event.action = RecoveryAction::kWatchdogRestart;
    event.subject = level;
    event.attempt = static_cast<std::uint32_t>(wd->report().restarts);
    event.detail = to_string(signal);
    ctx_ledger(ctx).record_recovery(std::move(event));
  };
  for (std::size_t it = 0; it < max_iter; ++it) {
    // One span per *outer* PCG iteration; inner (recursive) solves are
    // covered by their level span, so the trace stays proportional to the
    // hierarchy, not to the product of all inner iteration counts.
    ScopedSpan iter_span(level == 0 ? tracer : nullptr,
                         "solver/outer-iteration", SpanKind::kIteration);
    iter_span.counter("iteration", it);
    apply_matvec_into(ctx, level, p, ap);
    project_mean_zero(ap);
    if (wd != nullptr &&
        wd->check_vector(ap, it) != WatchdogSignal::kNone) {
      if (!wd->allow_restart()) break;
      pcg_restart(WatchdogSignal::kNonFiniteVector);
      continue;
    }
    const double pap = charged_dot(ctx, p, ap);
    if (wd != nullptr && wd->check_scalar(pap, it) != WatchdogSignal::kNone) {
      if (!wd->allow_restart()) break;
      pcg_restart(WatchdogSignal::kNonFiniteScalar);
      continue;
    }
    // The curvature pᵀAp divides the step; a non-positive or vanishing value
    // (relative to rz) means the recurrence broke down. Under a watchdog that
    // is a typed kTinyDenominator restart — never a silent break that leaves
    // a stale iterate unreported. Inner (un-watched) solves keep the historic
    // silent break: they are crude by design and their caller re-residuals.
    if (wd != nullptr) {
      const WatchdogSignal signal = wd->check_denominator(rz, pap, it);
      if (signal != WatchdogSignal::kNone) {
        if (!wd->allow_restart()) break;
        pcg_restart(signal);
        continue;
      }
    } else if (pap <= 0.0) {
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x_out);
    r_prev = r;
    // Fused residual update + norm: bit-identical to axpy then dot (the
    // charge for the norm's PA call lands right after, as it always did).
    const double rr = axpy_dot(-alpha, ap, r);
    if (iterations_out != nullptr) *iterations_out = it + 1;
    ctx_charge_aggregate(ctx, global_instance_);
    const double rel = std::sqrt(rr) / b_norm;
    if (history != nullptr) history->push_back(rel);
    if (rel <= tol) break;
    if (wd != nullptr) {
      const WatchdogSignal signal = wd->observe_residual(rel, it);
      if (signal != WatchdogSignal::kNone) {
        if (!wd->allow_restart()) break;
        pcg_restart(signal);
        continue;
      }
    }
    apply_preconditioner_into(ctx, level, r, z, ws);
    // Polak–Ribière: beta = zᵀ(r − r_prev) / rzₖ. The rz division is typed
    // post-hoc: a vanishing rz blows |beta| up and observe_beta raises
    // kBetaExplosion, so no silent-division path exists here either. (The
    // dot is still skipped when rz == 0 exactly, as the charging always did.)
    sub_into(r, r_prev, dr);
    double beta = rz == 0.0 ? 0.0 : charged_dot(ctx, z, dr) / rz;
    if (wd != nullptr &&
        wd->observe_beta(beta, it) != WatchdogSignal::kNone) {
      if (!wd->allow_restart()) break;
      pcg_restart(WatchdogSignal::kBetaExplosion);
      continue;
    }
    rz = charged_dot(ctx, r, z);
    xpay(z, beta, p);
  }
}

LaplacianSolveReport DistributedLaplacianSolver::solve(const Vec& b) {
  SolveContext ctx;  // shared accounting: the historical single-RHS path
  return solve_in_context(b, ctx);
}

void DistributedLaplacianSolver::reset_recovery_attribution() {
  for (LevelStats& s : stats_) {
    s.pa_retries = 0;
    s.pa_rebuilds = 0;
    s.pa_degradations = 0;
  }
}

void DistributedLaplacianSolver::attribute_recovery_event(
    const RecoveryEvent& e) {
  // Supervisor events carry the PA instance id, solver events the level index
  // directly (only instance-subject actions below consult the mapping, so the
  // overload is unambiguous).
  std::size_t level = 0;  // global instance and solver events → level 0
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].has_matvec_instance &&
        levels_[l].matvec_instance == e.subject) {
      level = l;
      break;
    }
  }
  switch (e.action) {
    case RecoveryAction::kRetry: ++stats_[level].pa_retries; break;
    case RecoveryAction::kRebuild: ++stats_[level].pa_rebuilds; break;
    case RecoveryAction::kDegrade: ++stats_[level].pa_degradations; break;
    default: break;  // not attributed to a level
  }
}

LaplacianSolveReport DistributedLaplacianSolver::solve_in_context(
    const Vec& b, SolveContext& ctx) {
  const Graph& g = oracle_.graph();
  DLS_REQUIRE(b.size() == g.num_nodes(), "rhs size mismatch");
  // Any rhs is accepted: the component of b along the all-ones kernel of L is
  // unsolvable, so it is projected away up front and the solve targets Πb
  // (for b already in range(L) this is the identity up to roundoff). The
  // reported residual is relative to Πb. A zero (or constant) rhs short
  // circuits the iteration but still produces a fully populated report:
  // converged, zero residual, zero iterations, and the rounds the degenerate
  // path actually charged (the ‖b‖ inner product and the certificate).
  Vec rhs = b;
  project_mean_zero(rhs);

  RoundLedger& ledger = ctx_ledger(ctx);
  // One span per solve, clocked on this context's ledger (the oracle's
  // shared ledger, or the slot's private ledger on batched paths). The clock
  // push dedups against an identical outer clock, so a wrapping test or
  // session scope on the same ledger shares this timeline.
  Tracer* tracer = Tracer::ambient();
  ClockScope trace_clock(tracer, ledger_clock(ledger));
  ScopedSpan solve_span(tracer, "solver/solve", SpanKind::kSolve);
  solve_span.counter("levels", levels_.size());
  const std::uint64_t local_before = ledger.total_local();
  const std::uint64_t global_before = ledger.total_global();
  const std::uint64_t hybrid_before = ledger.total_hybrid();
  const std::uint64_t calls_before =
      ctx.shared() ? oracle_.pa_calls() : ctx.pa_calls;
  const std::size_t events_before = ledger.recovery_events().size();
  // Per-solve attribution: level_stats() snapshots the most recent call, it
  // does not accumulate across calls (batch slots leave stats_ to the
  // session, which owns the whole-batch reset + attribution).
  if (ctx.shared()) reset_recovery_attribution();

  LaplacianSolveReport report;
  NumericalWatchdog wd(options_.watchdog);
  std::size_t iterations = 0;
  // A ChaosAbortError escaping the oracle (supervisor off, or its ladder
  // capped at retry) degrades the solve typed. Oracle recovery is the
  // supervisor's ladder, which re-runs only the wedged measurement; the
  // failed attempt's rounds are already on the ledger, charged live.
  try {
    solve_level(ctx, 0, rhs, options_.tolerance, options_.max_outer_iterations,
                report.x, &iterations, &report.residual_history, &wd);
  } catch (const ChaosAbortError& e) {
    RecoveryEvent event;
    event.action = RecoveryAction::kAbort;
    event.subject = 0;
    event.detail = e.what();
    ledger.record_recovery(std::move(event));
    DegradedResult degraded;
    degraded.tier = highest_tier(ledger);
    degraded.reason = e.what();
    degraded.completed_iterations = iterations;
    report.degraded = std::move(degraded);
    // No partial iterate survives the unwind: x is zero.
    report.x.assign(g.num_nodes(), 0.0);
    report.residual_history.clear();
    iterations = 0;
  }
  report.outer_iterations = iterations;

  // Post-anomaly iterative refinement: recompute the true residual and run a
  // short corrective solve on it (fully charged, watchdog off to avoid
  // recursion). Clean solves never enter this branch.
  if (options_.watchdog.enabled && options_.watchdog.refine_on_anomaly &&
      wd.triggered() && !report.degraded.has_value() &&
      all_finite(report.x)) {
    ctx_ledger(ctx).charge_local(1, "solver/refine-residual");
    Vec res = sub(rhs, laplacian_apply(g, report.x));
    project_mean_zero(res);
    if (all_finite(res)) {
      std::size_t refine_iters = 0;
      Vec correction;
      try {
        solve_level(ctx, 0, res, options_.tolerance,
                    std::max<std::size_t>(iterations, 16), correction,
                    &refine_iters);
      } catch (const ChaosAbortError&) {
        correction.clear();  // refinement is best-effort; keep the iterate
      }
      if (!correction.empty() && all_finite(correction)) {
        axpy(1.0, correction, report.x);
        wd.note_refinement();
        RecoveryEvent event;
        event.action = RecoveryAction::kWatchdogRefine;
        event.subject = 0;
        event.attempt = static_cast<std::uint32_t>(refine_iters);
        event.detail = "post-anomaly refinement pass";
        ledger.record_recovery(std::move(event));
      }
    }
  }

  // Distributed convergence certificate: one local exchange computes the
  // residual entries, one global aggregation lets every node learn its norm.
  // On a degraded solve the certificate itself can wedge — the global
  // instance may never have measured successfully — so a certificate abort is
  // absorbed into the degraded result instead of escaping as an exception;
  // the residual below is then local bookkeeping, not a distributed
  // certificate, and `converged` stays false.
  try {
    ctx_ledger(ctx).charge_local(1, "solver/residual-check");
    ctx_charge_aggregate(ctx, global_instance_);
  } catch (const ChaosAbortError& e) {
    if (!report.degraded.has_value()) {
      DegradedResult degraded;
      degraded.tier = highest_tier(ledger);
      degraded.reason =
          std::string("convergence certificate failed: ") + e.what();
      degraded.completed_iterations = iterations;
      report.degraded = std::move(degraded);
    }
  }
  Vec residual = sub(rhs, laplacian_apply(g, report.x));
  project_mean_zero(residual);
  const double b_norm = norm2(rhs);
  report.relative_residual = b_norm > 0 ? norm2(residual) / b_norm : 0.0;
  report.converged = !report.degraded.has_value() &&
                     report.relative_residual <= 2.0 * options_.tolerance;
  if (report.degraded.has_value()) {
    report.degraded->partial_residual = report.relative_residual;
  }
  report.pa_calls =
      (ctx.shared() ? oracle_.pa_calls() : ctx.pa_calls) - calls_before;
  report.local_rounds = ledger.total_local() - local_before;
  report.global_rounds = ledger.total_global() - global_before;
  report.hybrid_rounds = ledger.total_hybrid() - hybrid_before;
  report.watchdog = wd.report();

  // Fold this call's recovery events into counters; shared contexts also
  // attribute them to chain levels (batch slots defer that to the session).
  const auto& events = ledger.recovery_events();
  for (std::size_t i = events_before; i < events.size(); ++i) {
    count_recovery_event(events[i], report.recovery);
    if (ctx.shared()) attribute_recovery_event(events[i]);
  }
  solve_span.counter("outer-iterations", report.outer_iterations);
  solve_span.counter("pa-calls", report.pa_calls);
  solve_span.counter("converged", report.converged ? 1 : 0);
  solve_span.counter("degraded", report.degraded.has_value() ? 1 : 0);
  solve_span.counter("recovery-events", events.size() - events_before);
  return report;
}

}  // namespace dls
