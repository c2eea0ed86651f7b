#include "resilience/recovery.hpp"

namespace dls {

const char* to_string(EscalationTier tier) {
  switch (tier) {
    case EscalationTier::kNone: return "none";
    case EscalationTier::kRetry: return "retry";
    case EscalationTier::kRebuild: return "rebuild";
    case EscalationTier::kDegrade: return "degrade";
    case EscalationTier::kExhausted: return "exhausted";
  }
  return "?";
}

void count_recovery_event(const RecoveryEvent& e, RecoveryCounters& counters) {
  counters.rounds_lost += e.rounds_lost;
  switch (e.action) {
    case RecoveryAction::kRetry: ++counters.retries; break;
    case RecoveryAction::kRebuild: ++counters.rebuilds; break;
    case RecoveryAction::kDegrade: ++counters.degradations; break;
    case RecoveryAction::kWatchdogRestart: ++counters.watchdog_restarts; break;
    case RecoveryAction::kWatchdogRefine:
      ++counters.watchdog_refinements;
      break;
    case RecoveryAction::kAbort: break;  // counted via the tier, not here
  }
}

RecoveryCounters tally_recovery(const RoundLedger& ledger) {
  RecoveryCounters counters;
  for (const RecoveryEvent& e : ledger.recovery_events()) {
    count_recovery_event(e, counters);
  }
  return counters;
}

EscalationTier highest_tier(const RoundLedger& ledger) {
  EscalationTier tier = EscalationTier::kNone;
  const auto bump = [&tier](EscalationTier t) {
    if (static_cast<int>(t) > static_cast<int>(tier)) tier = t;
  };
  for (const RecoveryEvent& e : ledger.recovery_events()) {
    switch (e.action) {
      case RecoveryAction::kRetry: bump(EscalationTier::kRetry); break;
      case RecoveryAction::kRebuild: bump(EscalationTier::kRebuild); break;
      case RecoveryAction::kDegrade: bump(EscalationTier::kDegrade); break;
      case RecoveryAction::kAbort: bump(EscalationTier::kExhausted); break;
      case RecoveryAction::kWatchdogRestart:
      case RecoveryAction::kWatchdogRefine:
        break;  // bookkeeping, not escalation
    }
  }
  return tier;
}

}  // namespace dls
