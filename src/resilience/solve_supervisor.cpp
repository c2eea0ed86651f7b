#include "resilience/solve_supervisor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/fault_injection.hpp"

namespace dls {

const char* to_string(SupervisorMode mode) {
  switch (mode) {
    case SupervisorMode::kOff: return "off";
    case SupervisorMode::kRetry: return "retry";
    case SupervisorMode::kDegrade: return "degrade";
  }
  return "?";
}

SupervisorMode supervisor_mode_from_string(const std::string& name) {
  if (name == "off") return SupervisorMode::kOff;
  if (name == "retry") return SupervisorMode::kRetry;
  if (name == "degrade") return SupervisorMode::kDegrade;
  throw std::invalid_argument("unknown supervisor mode '" + name +
                              "' (expected off|retry|degrade)");
}

SupervisedPaOracle::SupervisedPaOracle(CongestedPaOracle& primary,
                                       SupervisorConfig config)
    : CongestedPaOracle(primary.graph()),
      primary_(primary),
      config_(config),
      jitter_rng_(config.jitter_seed),
      fallback_rng_(jitter_rng_.fork()) {
  DLS_REQUIRE(config_.initial_backoff > 0, "initial_backoff must be positive");
  DLS_REQUIRE(config_.max_backoff >= config_.initial_backoff,
              "max_backoff must be >= initial_backoff");
}

void SupervisedPaOracle::bump_tier(EscalationTier t) {
  if (static_cast<int>(t) > static_cast<int>(tier_)) tier_ = t;
}

CongestedPaOracle::Measured SupervisedPaOracle::attempt_measure(
    CongestedPaOracle& oracle, const PartCollection& pc) {
  // Friend access: the ladder is the one sanctioned external caller of the
  // wrapped oracles' protected measure().
  return oracle.measure(pc);
}

std::uint64_t SupervisedPaOracle::charge_backoff(std::uint32_t attempt) {
  // initial_backoff · 2^(attempt-1), capped; saturate the shift so absurd
  // budgets cannot overflow.
  std::uint64_t wait = config_.max_backoff;
  if (attempt - 1 < 32) {
    wait = std::min<std::uint64_t>(
        config_.max_backoff,
        static_cast<std::uint64_t>(config_.initial_backoff) << (attempt - 1));
  }
  // Additive seeded jitter in [0, wait): retries of concurrent instances
  // decorrelate instead of re-colliding in lockstep, yet the draw sequence —
  // and therefore the whole recovery trace — replays from jitter_seed.
  wait += jitter_rng_.next_below(std::max<std::uint64_t>(wait, 1));
  ledger().charge_local(wait, "supervisor/backoff");
  return wait;
}

CongestedPaOracle::Measured SupervisedPaOracle::measure(
    const PartCollection& pc) {
  if (config_.mode == SupervisorMode::kOff) {
    return attempt_measure(primary_, pc);
  }
  const InstanceId subject = measuring_instance();
  // The ladder span collects every recovery transition of this measurement:
  // RoundLedger::record_recovery annotates the innermost open ambient span,
  // which is exactly this one while the ladder runs.
  ScopedSpan ladder_span(Tracer::ambient(), "supervisor/measure",
                         SpanKind::kRecovery);
  ladder_span.counter("instance", subject);
  // Once degraded, stay degraded: the primary's substrate is suspect for the
  // remainder of the solve, so later instances go straight to the baseline.
  if (degraded()) {
    DLS_ASSERT(fallback_ != nullptr, "degraded without a fallback oracle");
    if (ladder_span.active()) ladder_span.note("already degraded: " + fallback_->name());
    return attempt_measure(*fallback_, pc);
  }
  // Charges a wedged attempt's simulated rounds — real work the network did
  // before aborting — and returns them for the recovery record.
  const auto charge_lost = [this](const ChaosAbortError& e,
                                  const std::string& label) {
    const std::uint64_t lost =
        e.ledger().total_local() + e.ledger().total_global();
    if (lost > 0) ledger().charge_local(lost, label);
    return lost;
  };
  std::string last_error;

  // Rung 1 — retry with jittered backoff. Attempt 0 is the initial try;
  // each re-attempt records a kRetry event carrying the rounds the failed
  // attempt burned plus the backoff wait before trying again.
  for (std::uint32_t attempt = 0; attempt <= config_.retry_budget; ++attempt) {
    try {
      return attempt_measure(primary_, pc);
    } catch (const ChaosAbortError& e) {
      last_error = e.what();
      std::uint64_t lost = charge_lost(e, "supervisor/failed-attempt");
      if (attempt < config_.retry_budget) {
        lost += charge_backoff(attempt + 1);
        RecoveryEvent event;
        event.action = RecoveryAction::kRetry;
        event.subject = subject;
        event.attempt = attempt + 1;
        event.rounds_lost = lost;
        event.detail = last_error;
        ledger().record_recovery(std::move(event));
        bump_tier(EscalationTier::kRetry);
      }
    }
  }

  // Rung 2 — rebuild. measure() re-runs the primary's full construction
  // pipeline (heavy paths, layered graph, shortcut scheduling) on a fresh
  // fault-plan epoch, so each rebuild is a from-scratch structure, not a
  // replay of the wedged one. Backoff resets with the fresh structure.
  for (std::uint32_t rebuild = 1;
       rebuild <= static_cast<std::uint32_t>(config_.rebuild_budget);
       ++rebuild) {
    const std::uint64_t waited = charge_backoff(1);
    RecoveryEvent event;
    event.action = RecoveryAction::kRebuild;
    event.subject = subject;
    event.attempt = rebuild;
    event.rounds_lost = waited;
    event.detail = "rebuild shortcut structure: " + last_error;
    ledger().record_recovery(std::move(event));
    bump_tier(EscalationTier::kRebuild);
    try {
      return attempt_measure(primary_, pc);
    } catch (const ChaosAbortError& e) {
      last_error = e.what();
      charge_lost(e, "supervisor/failed-rebuild");
    }
  }

  if (config_.mode == SupervisorMode::kRetry) {
    // Ladder capped before rung 3: record the give-up and surface the
    // failure; the solver above degrades typed.
    RecoveryEvent event;
    event.action = RecoveryAction::kAbort;
    event.subject = subject;
    event.attempt = static_cast<std::uint32_t>(config_.retry_budget +
                                               config_.rebuild_budget);
    event.rounds_lost = 0;
    event.detail = "retry+rebuild budget exhausted: " + last_error;
    ledger().record_recovery(std::move(event));
    throw ChaosAbortError(
        "supervisor: retry budget exhausted for PA instance " +
            std::to_string(subject) + " (" + last_error + ")",
        ledger());
  }

  // Rung 3 — degrade to the spanning-tree baseline for the rest of the
  // solve. The baseline attaches no fault plan, so it is fault-free by
  // construction here; its costs are measured and charged as usual.
  if (!fallback_) {
    fallback_ = std::make_unique<BaselinePaOracle>(graph(), fallback_rng_);
  }
  RecoveryEvent event;
  event.action = RecoveryAction::kDegrade;
  event.subject = subject;
  event.attempt = 0;
  event.rounds_lost = 0;
  event.detail = primary_.name() + " -> " + fallback_->name() + ": " +
                 last_error;
  ledger().record_recovery(std::move(event));
  bump_tier(EscalationTier::kDegrade);
  return attempt_measure(*fallback_, pc);
}

}  // namespace dls
