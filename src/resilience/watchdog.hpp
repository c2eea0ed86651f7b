// Numerical watchdog for the iterative solvers.
//
// The iteration kernels (linalg/solvers.cpp) and the recursive distributed
// solver (laplacian/recursive_solver.cpp) run against abstract operators —
// including preconditioners formed by crude inner solves and, under fault
// injection, oracles that can abort mid-call. The watchdog sits inside those
// loops and turns silent numerical failure into typed signals:
//
//   * kNonFiniteVector / kNonFiniteScalar — a NaN or Inf escaped a matvec or
//     an inner product; without a guard it poisons every later iterate.
//   * kResidualDivergence — the residual exploded past divergence_factor ×
//     its best value (a broken preconditioner or an asymmetric operator).
//   * kResidualStagnation — no new residual minimum for stagnation_window
//     iterations: the Krylov directions collapsed (loss of orthogonality,
//     beta drift under the flexible-PCG nonlinearity).
//   * kBetaExplosion — the Polak–Ribière beta left [−beta_limit, beta_limit];
//     the next search direction would be garbage.
//
// The watchdog only *detects*; remediation (restart the recurrence, clamp
// beta, run a refinement pass) is applied by the loop that owns the iterates,
// budgeted through allow_restart(). On a healthy run no signal ever fires and
// the iteration is bit-identical to one without a watchdog — the determinism
// contract docs/RESILIENCE.md pins.
//
// This header deliberately depends on nothing above util/ so the linalg
// kernels can use it without a dependency cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dls {

enum class WatchdogSignal : std::uint8_t {
  kNone,
  kNonFiniteVector,
  kNonFiniteScalar,
  kResidualDivergence,
  kResidualStagnation,
  kBetaExplosion,
  /// A recurrence divisor (pap = pᵀAp or rz = rᵀz in PCG) is non-positive or
  /// so small relative to its numerator that the quotient would blow past
  /// denominator_limit — dividing would poison the step. Raised typed so the
  /// loop restarts (or fails with a recorded trace) instead of silently
  /// breaking with a stale iterate.
  kTinyDenominator,
};

const char* to_string(WatchdogSignal signal);

struct WatchdogConfig {
  bool enabled = true;
  /// Iterations without a new residual minimum before kResidualStagnation.
  /// Deliberately generous: flexible PCG plateaus for a few iterations on
  /// hard instances without being sick, and a false positive costs a restart
  /// (extra charged matvec) on an otherwise healthy run.
  std::size_t stagnation_window = 25;
  /// kResidualDivergence when rel > divergence_factor * best rel so far.
  double divergence_factor = 1e4;
  /// |Polak–Ribière beta| above this is kBetaExplosion.
  double beta_limit = 1e8;
  /// check_denominator raises kTinyDenominator when |numerator| exceeds
  /// denominator_limit × denominator (or the denominator is not positive).
  /// Healthy PCG steps have |alpha| = rz/pap within a few orders of
  /// magnitude of 1, so the default never trips on a sound recurrence.
  double denominator_limit = 1e14;
  /// Restarts the owning loop may spend per solve before giving up.
  std::size_t max_restarts = 3;
  /// Append one iterative-refinement pass to a solve on which any signal
  /// fired (recompute the true residual, solve the correction, add it back).
  bool refine_on_anomaly = true;
};

/// One fired signal, tagged with the iteration it fired at.
struct WatchdogIncident {
  std::size_t iteration = 0;
  WatchdogSignal signal = WatchdogSignal::kNone;

  friend bool operator==(const WatchdogIncident&,
                         const WatchdogIncident&) = default;
};

struct WatchdogReport {
  std::vector<WatchdogIncident> incidents;  // every signal, in firing order
  std::size_t restarts = 0;                 // remediations actually applied
  std::size_t refinements = 0;              // refinement passes appended
  bool gave_up = false;  // restart budget exhausted while signals persisted

  std::size_t anomalies() const { return incidents.size(); }
  bool triggered() const { return !incidents.empty(); }
};

/// True iff every entry is finite. (Vec is std::vector<double>; spelled
/// concretely here to keep this header below linalg in the layering.)
bool all_finite(const std::vector<double>& v);

class NumericalWatchdog {
 public:
  explicit NumericalWatchdog(const WatchdogConfig& config = {});

  /// Observation hooks: each returns the signal it raised (kNone when
  /// healthy or the watchdog is disabled) and records it in the report.
  WatchdogSignal check_vector(const std::vector<double>& v,
                              std::size_t iteration);
  WatchdogSignal check_scalar(double value, std::size_t iteration);
  WatchdogSignal observe_residual(double relative_residual,
                                  std::size_t iteration);
  WatchdogSignal observe_beta(double beta, std::size_t iteration);
  /// Guards a division numerator/denominator in the recurrence: raises
  /// kTinyDenominator when the denominator is non-positive or the quotient
  /// magnitude would exceed denominator_limit.
  WatchdogSignal check_denominator(double numerator, double denominator,
                                   std::size_t iteration);

  /// True (and consumes one unit of budget) iff a restart may be applied;
  /// once the budget is gone the report is marked gave_up and the owning
  /// loop must fail typed instead of looping on a sick recurrence.
  bool allow_restart();
  void note_refinement() { ++report_.refinements; }

  /// Forget the residual history (after a restart: the recurrence was reset,
  /// so stagnation/divergence must be judged against the new trajectory).
  void reset_residual_tracking();

  const WatchdogConfig& config() const { return config_; }
  const WatchdogReport& report() const { return report_; }
  bool triggered() const { return report_.triggered(); }

 private:
  WatchdogSignal raise(WatchdogSignal signal, std::size_t iteration);

  WatchdogConfig config_;
  WatchdogReport report_;
  double best_rel_ = -1.0;  // < 0: no residual observed yet
  std::size_t since_improvement_ = 0;
};

}  // namespace dls
