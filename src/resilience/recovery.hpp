// Typed recovery outcomes for self-healing solves.
//
// Theorem 28 parameterises the solver by a congested-PA oracle (Assumption
// 27); the oracle boundary is therefore where recovery and degradation
// policy mounts. This header names the rungs of that policy — the
// *escalation ladder* — and the typed partial result a solve returns when
// every rung is exhausted, instead of dying with an unhandled exception:
//
//   kNone        clean solve, no recovery needed
//   kRetry       a PA call was re-attempted after a ChaosAbortError
//   kRebuild     the shortcut structure was rebuilt before re-attempting
//   kDegrade     the oracle was demoted to the spanning-tree baseline for
//                the remainder of the solve
//   kExhausted   every budget spent; the solve is degraded (partial result)
//
// The ladder's transitions are recorded as RecoveryEvents on the RoundLedger
// (sim/round_ledger.hpp); RecoveryCounters folds that trace into the summary
// numbers the stats tables and LevelStats print.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/round_ledger.hpp"

namespace dls {

enum class EscalationTier : std::uint8_t {
  kNone,
  kRetry,
  kRebuild,
  kDegrade,
  kExhausted,
};

const char* to_string(EscalationTier tier);

/// Summary counters over a ledger's recovery trace.
struct RecoveryCounters {
  std::size_t retries = 0;
  std::size_t rebuilds = 0;
  std::size_t degradations = 0;
  std::size_t watchdog_restarts = 0;
  std::size_t watchdog_refinements = 0;
  std::uint64_t rounds_lost = 0;  // simulated work charged to failed attempts

  bool any() const {
    return retries + rebuilds + degradations + watchdog_restarts +
               watchdog_refinements > 0;
  }

  friend bool operator==(const RecoveryCounters&,
                         const RecoveryCounters&) = default;
};

/// Folds one recovery event into `counters` (kAbort shows in the tier, not
/// in a counter).
void count_recovery_event(const RecoveryEvent& e, RecoveryCounters& counters);

/// Folds a ledger's recovery events into counters.
RecoveryCounters tally_recovery(const RoundLedger& ledger);

/// The highest escalation tier a ledger's recovery trace reached.
EscalationTier highest_tier(const RoundLedger& ledger);

/// Typed partial result of a solve whose recovery budget ran out. Never
/// thrown — returned inside the solve report so callers branch on a value,
/// not a catch block.
struct DegradedResult {
  EscalationTier tier = EscalationTier::kExhausted;  // rung reached at give-up
  std::string reason;            // human-readable: what exhausted, where
  std::size_t completed_iterations = 0;  // outer iterations before giving up
  double partial_residual = 0.0;  // relative residual of the partial x
};

}  // namespace dls
