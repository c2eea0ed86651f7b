// The benchmark's workloads and the solver stacks they time from outside.
//
//   grid-cold     64×64 unweighted grid, ShortcutPaOracle (Supported-CONGEST):
//                 every operation builds, warms and solves a fresh stack.
//   expander-ncc  random 4-regular graph, n = 4096, NccPaOracle (HYBRID):
//                 each stack is built once and then solves several RHS.
//   wgrid-serve   64×64 grid, w ∈ [1, 1e4], one SolverCache entry (CONGEST
//                 shortcuts) serving 8-RHS batches on a 4-thread pool, with
//                 reuse-rung and partial-rebuild weight updates between them.
//
// What the run seed chooses. Each workload's graph and the solver's own seed
// are fixed (kInstanceSeed, kSolverSeed), and --seed draws the right-hand
// sides. Chains sampled from different solver seeds differ by up to 6× in PA
// calls on these graphs, so a per-operation solver seed would make every
// timing a lottery over chains; every stack is still built cold. The first
// `reference_cycles` cycles solve reference right-hand sides that do not
// depend on --seed either, and the deterministic counts (rounds, PA calls,
// outer iterations) come from them alone, so they are the same in every run
// of one build.
#pragma once

#include <memory>
#include <string>

#include "harness.hpp"
#include "laplacian/pa_oracle.hpp"
#include "laplacian/recursive_solver.hpp"
#include "laplacian/solver_cache.hpp"

namespace perfbench {

enum class OracleKind { kShortcutSupported, kShortcutCongest, kNcc };

struct WorkloadSpec {
  std::string name;
  Graph graph;
  OracleKind oracle = OracleKind::kShortcutSupported;
  /// RHS solved on each stack before it is dropped (stack workloads).
  std::size_t solves_per_stack = 1;
  /// Stacks built per cycle (stack workloads); each is a set-up sample and
  /// only the last one solves.
  std::size_t setups_per_cycle = 1;
  /// Cycles (stacks, or serving sessions) that always run, whatever the
  /// time budget. They solve the reference right-hand sides, and the
  /// deterministic counts come from them.
  std::size_t reference_cycles = 1;
  bool serve = false;
  std::size_t batch = 8;
};

/// Builds the named workload's graph. Throws on an unknown name.
WorkloadSpec make_workload(const RunConfig& config);

/// Root of the random graphs (expander, edge weights): part of the workload
/// definition, the same for every run seed.
inline constexpr std::uint64_t kInstanceSeed = 0x9a9b5eed;
/// Root of the solvers' own rng streams (chain sampling, oracle schedules):
/// part of the solver configuration, the same for every stack and run.
inline constexpr std::uint64_t kSolverSeed = 0x5eed5017;
/// Root of the reference right-hand sides of the first cycles.
inline constexpr std::uint64_t kReferenceSeed = 0x4ef5eed;

std::uint64_t solver_seed();

/// Right-hand side `index` of a run: from the reference stream or from the
/// run seed.
Vec operation_rhs(const RunConfig& config, const WorkloadSpec& spec,
                  bool reference, std::uint64_t index);

dls::LaplacianSolverOptions default_solver_options();
dls::CacheOracleKind cache_oracle_kind(OracleKind kind);

/// The workload's PA oracle on `g`, drawing from `rng` (which must outlive
/// it).
std::unique_ptr<dls::CongestedPaOracle> make_oracle(const Graph& g,
                                                    OracleKind kind,
                                                    dls::Rng& rng);

/// Oracle + chain for one graph, built from one seed, with the wall time of
/// each public construction call.
struct Stack {
  /// With `spans` set, each construction call also gets a wall span.
  Stack(const Graph& g, OracleKind kind, std::uint64_t seed,
        const dls::LaplacianSolverOptions& options = default_solver_options(),
        WallSpans* spans = nullptr);

  dls::Rng rng;
  std::unique_ptr<dls::CongestedPaOracle> oracle;
  std::unique_ptr<dls::DistributedLaplacianSolver> solver;
  double oracle_s = 0.0;   // oracle constructor
  double build_s = 0.0;    // DistributedLaplacianSolver constructor
  double measure_s = 0.0;  // warm_instances()
  double setup_s() const { return oracle_s + build_s + measure_s; }
};

/// True when the report is a clean, converged solve whose x passes the
/// independent check. With `corrupt` set the x is perturbed first.
bool accept_solution(SolutionChecker& checker, const Vec& b,
                     const dls::LaplacianSolveReport& report, bool corrupt,
                     SolutionCheck* check_out = nullptr);

/// Deterministic weight-update stream of the serving workload: `reuse`
/// scales 16 off-tree edges by 1.1 (or back), a partial update scales one
/// level-0 tree edge by 1.5 (or back). Edges are chosen once per entry.
class UpdateStream {
 public:
  UpdateStream(const Graph& g, const std::vector<dls::EdgeId>& tree,
               std::uint64_t seed);
  /// Applies update `step` (even: reuse rung, odd: partial rung) to `g`
  /// and returns the classification the cache must report.
  dls::WeightUpdateClass apply(std::size_t step, Graph& g) const;

 private:
  std::vector<dls::EdgeId> off_tree_;
  dls::EdgeId tree_edge_ = dls::kInvalidEdge;
};

/// The untraced end-to-end run.
RunResult run_workload(const RunConfig& config);
/// The traced per-layer run (probes.cpp).
RunResult run_traced(const RunConfig& config);

}  // namespace perfbench
