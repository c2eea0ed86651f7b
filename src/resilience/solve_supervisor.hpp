// SolveSupervisor: the escalation ladder at the PA-oracle boundary.
//
// Theorem 28 frames the Laplacian solver as *any* algorithm parameterised by
// a congested-PA oracle (Assumption 27). SupervisedPaOracle exploits exactly
// that: it is itself a CongestedPaOracle whose measure() wraps a primary
// oracle (normally ShortcutPaOracle, possibly carrying a FaultPlan) with a
// recovery ladder, so the solver above it needs no fault-handling code for
// oracle-call failures — it just talks to Assumption 27 as always:
//
//   rung 1  RETRY    — re-attempt the PA call, up to retry_budget times,
//                      with exponential backoff whose per-attempt jitter is
//                      drawn from a seeded stream (deterministic, yet
//                      decorrelated across instances and attempts). Failed
//                      attempts and backoff waits are charged to the ledger.
//   rung 2  REBUILD  — rebuild the shortcut structure for the affected parts
//                      (the primary re-runs its construction from a fresh
//                      fork of its stream) and re-attempt, up to
//                      rebuild_budget times; backoff resets.
//   rung 3  DEGRADE  — demote to the spanning-tree BaselinePaOracle for this
//                      call and the remainder of the solve. The baseline
//                      pays Θ(D + batch)-type rounds but runs fault-free —
//                      availability bought with the round complexity the
//                      paper improves on.
//
// mode kOff forwards straight through (a transparent wrapper), kRetry stops
// the ladder after rung 1 and rethrows, kDegrade runs all three rungs and
// never throws ChaosAbortError out of a measure.
//
// Every transition is recorded as a typed RecoveryEvent on THIS oracle's
// ledger (the one the solver charges), subject = the PA instance id, so the
// solver can attribute recoveries to chain levels. Determinism: the jitter
// stream is seeded from config; given (fault seed, supervisor config) the
// whole recovery path replays bit-identically, and with a null FaultPlan the
// primary never throws, the ladder never engages, and every trace is
// bit-identical to the unsupervised oracle.
#pragma once

#include <memory>
#include <string>

#include "laplacian/pa_oracle.hpp"
#include "resilience/recovery.hpp"

namespace dls {

enum class SupervisorMode : std::uint8_t {
  kOff,      // transparent: failures propagate
  kRetry,    // rung 1 only; rethrows when the retry budget is spent
  kDegrade,  // full ladder; measure() never throws ChaosAbortError
};

const char* to_string(SupervisorMode mode);
/// Parses "off" | "retry" | "degrade" (the --supervisor flag values);
/// throws std::invalid_argument on anything else.
SupervisorMode supervisor_mode_from_string(const std::string& name);

struct SupervisorConfig {
  SupervisorMode mode = SupervisorMode::kDegrade;
  std::size_t retry_budget = 3;    // rung-1 re-attempts per PA call
  std::size_t rebuild_budget = 1;  // rung-2 rebuilds per PA call
  /// Backoff before attempt k waits initial_backoff · 2^(k-1) rounds, capped
  /// at max_backoff, plus jitter drawn uniformly from [0, wait) — seeded, so
  /// retries decorrelate without losing replayability.
  std::uint32_t initial_backoff = 1;
  std::uint32_t max_backoff = 32;
  std::uint64_t jitter_seed = 0x5EED0BACC0FFULL;
};

class SupervisedPaOracle final : public CongestedPaOracle {
 public:
  /// `primary` must outlive this oracle. The degradation fallback (a
  /// BaselinePaOracle over the same graph) is owned here, on a stream forked
  /// deterministically from jitter_seed.
  SupervisedPaOracle(CongestedPaOracle& primary, SupervisorConfig config = {});

  std::string name() const override {
    return "supervised(" + primary_.name() + ")";
  }

  const SupervisorConfig& config() const { return config_; }
  /// Highest ladder rung engaged so far (kDegrade is sticky for the
  /// remainder of this oracle's life — the fallback serves all later calls).
  EscalationTier tier() const { return tier_; }
  bool degraded() const { return tier_ == EscalationTier::kDegrade; }
  /// Summary of this oracle's recovery trace (folds the ledger's events).
  RecoveryCounters counters() const { return tally_recovery(ledger()); }

 protected:
  Measured measure(const PartCollection& pc) override;

 private:
  /// One ladder attempt against `oracle`; rounds of a failed attempt are
  /// charged and recorded before rethrowing decisions are made.
  Measured attempt_measure(CongestedPaOracle& oracle, const PartCollection& pc);
  /// Charges the exponential-backoff wait (with seeded jitter) before
  /// re-attempt number `attempt` (1-based) and returns the rounds waited.
  std::uint64_t charge_backoff(std::uint32_t attempt);
  void bump_tier(EscalationTier t);

  CongestedPaOracle& primary_;
  SupervisorConfig config_;
  Rng jitter_rng_;
  Rng fallback_rng_;  // owned stream for fallback_ (declared before it)
  std::unique_ptr<BaselinePaOracle> fallback_;
  EscalationTier tier_ = EscalationTier::kNone;
};

}  // namespace dls
