// The distributed Laplacian solver (Theorem 28 → Theorems 2 and 3).
//
// Structure mirrors [18]/KMP: at each level, the current congested minor is
// ultra-sparsified (low-stretch tree + stretch-sampled off-tree edges), its
// degree-≤2 nodes are eliminated to a much smaller Schur minor, and flexible
// PCG runs with the sparsifier chain as preconditioner; a dense grounded
// Cholesky terminates the chain. All communication is charged through the
// congested-PA oracle (Assumption 27) and explicit local rounds:
//   * a level-0 matvec is one local exchange;
//   * a level-i ≥ 1 matvec is one ρ_i-congested PA call over the minor's
//     host paths (the prepared matvec instance);
//   * every inner product is one 1-congested PA call over the global part;
//   * elimination sweeps charge their longest spliced chain in local rounds;
//   * the base case charges a gather/solve-locally/scatter of the base system.
// Swapping the oracle instantiates the paper's models: ShortcutPaOracle gives
// the (Supported-)CONGEST solver of Theorem 2, NccPaOracle the HYBRID solver
// of Theorem 3, BaselinePaOracle the existential [18] reference point.
//
// Substitution note (DESIGN.md §2): [18]'s full n^{o(1)} machinery (spectral
// vertex sparsifiers, sketched routing) is replaced by this KMP-style chain;
// the PA-call decomposition — the paper's actual subject — is preserved
// exactly, and the solver's n^{o(1)}-type overhead arises the same way
// (polylog iterations per level × Θ(log n / log log n)-ish depth).
#pragma once

#include <memory>
#include <optional>

#include "laplacian/elimination.hpp"
#include "laplacian/pa_oracle.hpp"
#include "laplacian/ultra_sparsifier.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/csr.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/workspace.hpp"
#include "resilience/recovery.hpp"
#include "resilience/watchdog.hpp"

namespace dls {

struct LaplacianSolverOptions {
  double tolerance = 1e-8;          // relative ℓ₂ residual target
  std::size_t base_size = 120;      // dense base-case threshold
  double offtree_fraction = 0.2;    // off-tree budget = fraction · nodes
  std::size_t max_levels = 16;
  std::size_t max_outer_iterations = 600;
  std::size_t inner_iterations = 10;   // per preconditioner level
  bool tree_preconditioner_only = false;  // ablation: bare-tree sparsifier
  /// Numerical watchdog over the top-level outer iteration: NaN/Inf guards on
  /// matvecs and inner products, stagnation/divergence detection, budgeted
  /// restarts and a refinement pass after any anomaly. Thresholds are
  /// generous enough that a healthy solve never trips — the clean path is
  /// bit-identical.
  WatchdogConfig watchdog;
};

struct LevelStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t host_congestion = 0;  // ρ of the minor
  double avg_stretch = 0.0;         // of the level's low-stretch tree
  std::size_t off_tree_kept = 0;
  std::size_t chain_hops = 0;       // longest elimination splice
  bool is_base = false;
  /// Recovery attribution of the MOST RECENT solve()/solve_batch() call
  /// (reset at the start of each; they do not accumulate across calls):
  /// ladder transitions of PA calls owned by this level.
  std::size_t pa_retries = 0;
  std::size_t pa_rebuilds = 0;
  std::size_t pa_degradations = 0;
};

struct LaplacianSolveReport {
  Vec x;
  bool converged = false;
  double relative_residual = 0.0;
  /// Per-outer-iteration relative residuals — the convergence curve
  /// (geometric decay under a healthy preconditioner chain).
  std::vector<double> residual_history;
  std::size_t outer_iterations = 0;
  std::uint64_t pa_calls = 0;
  std::uint64_t local_rounds = 0;
  std::uint64_t global_rounds = 0;
  std::uint64_t hybrid_rounds = 0;
  /// Numerical-watchdog trace of the outer iteration (empty on clean solves).
  WatchdogReport watchdog;
  /// Recovery events recorded on the oracle's ledger during this call, folded
  /// into counters (all zero on clean solves).
  RecoveryCounters recovery;
  /// Set iff the solve gave up after exhausting its recovery budgets, naming
  /// the escalation tier reached — the typed alternative to an unhandled
  /// ChaosAbortError. x is then zero after an oracle abort, or the iterate
  /// reached when only the convergence certificate failed.
  std::optional<DegradedResult> degraded;
};

class ThreadPool;

class DistributedLaplacianSolver {
 public:
  /// Builds the preconditioner chain for oracle.graph() (connected required).
  DistributedLaplacianSolver(CongestedPaOracle& oracle, Rng& rng,
                             const LaplacianSolverOptions& options = {});

  /// Solves L x = b to the configured tolerance. A rhs with non-zero sum is
  /// projected onto range(L) up front (the solve then targets Πb, and the
  /// reported residual is relative to Πb). Charges the oracle's ledger; the
  /// report snapshots the totals accumulated by this call.
  LaplacianSolveReport solve(const Vec& b);

  /// Batched multi-RHS solve through a one-shot SolveSession: reuses the
  /// level hierarchy, base Cholesky factor, and measured oracle costs across
  /// all RHS, fanning independent RHS out over `pool`. Entry i is
  /// bit-identical to solve(bs[i]) on a fresh identically-seeded solver, for
  /// every pool and batch size.
  std::vector<LaplacianSolveReport> solve_batch(const std::vector<Vec>& bs,
                                                ThreadPool* pool = nullptr);

  /// Measures every oracle instance a solve would measure lazily, in the
  /// exact order a fresh sequential solve would first touch them (the global
  /// inner-product instance, then minor matvec instances deepest-first on
  /// the recursion unwind). Idempotent; called by batch solves before
  /// fanning out so the value-oblivious measurement — the only rng-consuming,
  /// oracle-mutating step of a solve — never races and consumes the oracle's
  /// rng stream exactly as N sequential solves would have.
  void warm_instances();

  const std::vector<LevelStats>& level_stats() const { return stats_; }
  std::size_t num_levels() const { return levels_.size(); }
  const Graph& graph() const { return oracle_.graph(); }
  CongestedPaOracle& oracle() { return oracle_; }
  const LaplacianSolverOptions& options() const { return options_; }

  /// Gather+scatter distance term of the base case (the diameter estimate
  /// fixed at construction); exposed for honest re-charging of base rebuilds.
  std::uint64_t base_transfer_rounds() const { return base_transfer_rounds_; }

  /// Rough resident size of the hierarchy (minors, sparsifiers, elimination
  /// records, dense base factor), for cache memory accounting.
  std::size_t approx_state_bytes() const;

  /// Graph edge ids of the level-0 sparsifier's low-stretch tree (empty when
  /// level 0 is the base case). The cache's stretch-drift check watches these
  /// edges: tree weights anchor the preconditioner quality, so they tolerate
  /// less drift than sampled off-tree edges.
  std::vector<EdgeId> level0_tree_edges() const;

  /// Re-reads edge weights from oracle().graph() into the level-0 operator
  /// (minor + view, and the base factor if level 0 is the base). Deeper
  /// levels keep their numerics — the chain becomes a slightly stale (but
  /// still SPD) preconditioner, which flexible PCG absorbs. This is the
  /// "reuse as preconditioner" rung of the cache's update ladder.
  void refresh_operator_weights();

  /// Full per-level reweight sweep: re-reads graph weights, re-derives every
  /// sparsifier's weights through its stored source/factor provenance,
  /// re-runs degree-≤2 elimination level by level, and refactors the base.
  /// Succeeds only when every level's structure (hosts, endpoints, host
  /// paths, chain hops) is preserved — elimination is deterministic on the
  /// structure, so that holds for any positive reweighting; a mismatch
  /// returns false *before any level is mutated* and the caller should
  /// rebuild from scratch. No rng is consumed: tree choice and off-tree
  /// sample stay fixed, only numerics change.
  bool reweight_chain_from_graph();

 private:
  friend class SolveSession;

  struct Level {
    MinorGraph minor;
    Graph view;  // minor.as_graph()
    /// Flat CSR view of `view` (docs/KERNELS.md): the solve-loop matvec
    /// kernel. Rebuilt alongside view; weight-refreshed on reweight paths.
    LaplacianCsr csr;
    UltraSparsifier sparsifier;
    EliminationResult elim;
    CongestedPaOracle::InstanceId matvec_instance = 0;
    bool has_matvec_instance = false;
    std::vector<std::vector<double>> matvec_values;  // charging template
    bool is_base = false;
    std::unique_ptr<GroundedCholesky> base_solver;
  };

  /// Where one solve charges its communication. The default (ledger ==
  /// nullptr) is the shared path: rounds go to the oracle's ledger and PA
  /// calls bump the oracle's counter, exactly the historical behaviour. A
  /// batch slot instead carries a private ledger + counter so concurrent
  /// solves never touch shared mutable state (charge_aggregate_into is
  /// const); the session merges the private ledgers afterwards in slot order.
  struct SolveContext {
    RoundLedger* ledger = nullptr;  // nullptr → shared (oracle) accounting
    std::uint64_t pa_calls = 0;     // private-path call count
    /// Per-instance PA call counts (batch accounting; may be null). Indexed
    /// by oracle InstanceId; sized by the session before fan-out.
    std::vector<std::uint64_t>* pa_counts = nullptr;
    /// Buffer arena this solve leases its working vectors from (nullptr →
    /// the solver's shared workspace). Batch slots carry their own: a
    /// workspace is deliberately not thread-safe, so concurrent slots must
    /// never share one. Leases only shape *where* scratch lives — numerics
    /// are bit-identical for every workspace wiring.
    SolveWorkspace* ws = nullptr;

    bool shared() const { return ledger == nullptr; }
  };

  RoundLedger& ctx_ledger(SolveContext& ctx) {
    return ctx.shared() ? oracle_.ledger() : *ctx.ledger;
  }
  SolveWorkspace& ctx_ws(SolveContext& ctx) {
    return ctx.ws != nullptr ? *ctx.ws : shared_ws_;
  }
  /// Charges one PA call on `instance` (span, measure-on-first-use, ledger
  /// rounds, call counters) without materializing aggregate values — every
  /// solver call site discards them, so the fold is elided entirely.
  void ctx_charge_aggregate(SolveContext& ctx,
                            CongestedPaOracle::InstanceId instance);
  /// y ← L_level · x through the level's CSR view (bit-identical to
  /// laplacian_apply on the level view); charges the level's matvec cost.
  /// `y` must not alias `x`.
  void apply_matvec_into(SolveContext& ctx, std::size_t level, const Vec& x,
                         Vec& y);
  double charged_dot(SolveContext& ctx, const Vec& a, const Vec& b);
  /// z_out ← M⁻¹ r (forward-eliminate, recurse, back-substitute), leasing
  /// sweep scratch from `ws`. `z_out` must not alias `r`.
  void apply_preconditioner_into(SolveContext& ctx, std::size_t level,
                                 const Vec& r, Vec& z_out, SolveWorkspace& ws);
  /// Flexible PCG at `level`; writes the (approximate) solution into `x_out`
  /// (must not alias `b`; resized here). All recurrence vectors are leased
  /// from the context's workspace, so steady-state iterations allocate
  /// nothing. `history` (optional) collects per-iteration relative
  /// residuals. The watchdog `wd`, which guards the numerics, is wired only
  /// on the top-level call.
  void solve_level(SolveContext& ctx, std::size_t level, const Vec& b,
                   double tol, std::size_t max_iter, Vec& x_out,
                   std::size_t* iterations_out,
                   std::vector<double>* history = nullptr,
                   NumericalWatchdog* wd = nullptr);
  /// The full solve pipeline (outer iteration, abort handling, refinement,
  /// certificate, report assembly) charging through `ctx`. Shared contexts
  /// additionally reset + update the per-level recovery attribution in
  /// stats_; private (batch-slot) contexts leave stats_ to the session.
  LaplacianSolveReport solve_in_context(const Vec& b, SolveContext& ctx);
  /// Zeroes the per-solve recovery attribution fields of stats_.
  void reset_recovery_attribution();
  /// Attributes one recovery event to its chain level in stats_ (PA retries,
  /// rebuilds and degradations by instance).
  void attribute_recovery_event(const RecoveryEvent& e);

  CongestedPaOracle& oracle_;
  LaplacianSolverOptions options_;
  std::vector<Level> levels_;
  std::vector<LevelStats> stats_;
  CongestedPaOracle::InstanceId global_instance_ = 0;
  std::vector<std::vector<double>> global_values_;  // charging template
  std::uint64_t base_transfer_rounds_ = 0;  // gather+scatter cost of base case
  /// Default lease arena of single-RHS solves (SolveContext::ws == nullptr).
  /// Lives as long as the solver, so a warm-cached solver's repeated solves
  /// reuse the same buffers — the steady state allocates nothing.
  SolveWorkspace shared_ws_;
};

/// A multi-RHS solve session over one DistributedLaplacianSolver
/// (docs/BATCHING.md). The session owns nothing heavyweight — the hierarchy,
/// base factor, and measured oracle costs live in the solver and are shared
/// by construction — it owns the batch bookkeeping: per-slot private ledgers,
/// the slot-indexed merge, the amortized "one congested phase, not N
/// replays" charge to the oracle's shared ledger, and the per-level recovery
/// attribution.
///
/// Determinism contract: solve_batch(bs, pool)[i] is bit-identical to
/// solve(bs[i]) on a fresh identically-seeded solver — same x, same report,
/// same per-slot ledger entries — for every pool (including none) and every
/// batch size.
class SolveSession {
 public:
  explicit SolveSession(DistributedLaplacianSolver& solver);

  /// Solves the batch; entry i answers bs[i]. RHS fan out across `pool`
  /// (nullptr → inline); results merge in slot order.
  std::vector<LaplacianSolveReport> solve_batch(const std::vector<Vec>& bs,
                                                ThreadPool* pool = nullptr);

  /// Amortized accounting of the most recent batch (what was absorbed into
  /// the oracle's ledger under the "batch/" prefix): pipelined PA phases +
  /// bandwidth-bound local phases.
  const RoundLedger& last_batch_ledger() const { return batch_ledger_; }
  std::uint64_t batches_run() const { return batches_run_; }
  std::uint64_t rhs_solved() const { return rhs_solved_; }

 private:
  DistributedLaplacianSolver& solver_;
  RoundLedger batch_ledger_;
  std::uint64_t batches_run_ = 0;
  std::uint64_t rhs_solved_ = 0;
  /// Per-slot lease arenas (a workspace is not thread-safe, so concurrent
  /// slots never share one). Persisted across batches: slot i's buffers stay
  /// warm for the next batch's slot i, like the solver's shared workspace
  /// does for sequential solves.
  std::vector<std::unique_ptr<SolveWorkspace>> slot_ws_;
};

}  // namespace dls
