#include "sim/round_ledger.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dls {

void RoundLedger::charge_local(std::uint64_t rounds, const std::string& label) {
  charge_local(rounds, label, PhaseCongestion{});
}

void RoundLedger::charge_local(std::uint64_t rounds, const std::string& label,
                               const PhaseCongestion& congestion) {
  local_ += rounds;
  entries_.push_back({label, rounds, 0, congestion});
}

void RoundLedger::charge_global(std::uint64_t rounds, const std::string& label) {
  charge_global(rounds, label, PhaseCongestion{});
}

void RoundLedger::charge_global(std::uint64_t rounds, const std::string& label,
                                const PhaseCongestion& congestion) {
  global_ += rounds;
  entries_.push_back({label, 0, rounds, congestion});
}

std::uint64_t RoundLedger::total_hybrid() const {
  std::uint64_t total = 0;
  for (const LedgerEntry& e : entries_) {
    total += std::max(e.local_rounds, e.global_rounds);
  }
  return total;
}

std::size_t RoundLedger::peak_congestion() const {
  std::size_t peak = 0;
  for (const LedgerEntry& e : entries_) {
    peak = std::max(peak, e.congestion.peak_slot_messages);
  }
  return peak;
}

std::uint64_t RoundLedger::total_messages() const {
  std::uint64_t total = 0;
  for (const LedgerEntry& e : entries_) total += e.congestion.messages;
  return total;
}

void RoundLedger::clear() {
  local_ = 0;
  global_ = 0;
  entries_.clear();
  recovery_events_.clear();
}

void RoundLedger::record_recovery(RecoveryEvent event) {
  // Every recovery transition, wherever it is recorded (supervisor ladder,
  // solver watchdog, solve abort), becomes a span annotation on the
  // ambient trace and a registry tick. No-ops on untraced runs beyond one
  // atomic add; clean runs record no events at all.
  if (Tracer* tracer = Tracer::ambient()) {
    tracer->annotate_current("recovery: " + to_string(event));
  }
  static MetricCounter& recovery_metric =
      MetricsRegistry::global().counter("recovery.events");
  recovery_metric.increment();
  MetricsRegistry::global()
      .counter(std::string("recovery.") + to_string(event.action))
      .increment();
  recovery_events_.push_back(std::move(event));
}

std::size_t RoundLedger::recovery_count(RecoveryAction action) const {
  std::size_t count = 0;
  for (const RecoveryEvent& e : recovery_events_) {
    if (e.action == action) ++count;
  }
  return count;
}

void RoundLedger::absorb(const RoundLedger& other, const std::string& prefix) {
  for (const LedgerEntry& e : other.entries_) {
    entries_.push_back(
        {prefix + "/" + e.label, e.local_rounds, e.global_rounds, e.congestion});
  }
  for (const RecoveryEvent& e : other.recovery_events_) {
    recovery_events_.push_back(e);
  }
  local_ += other.local_;
  global_ += other.global_;
}

const char* to_string(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kRetry: return "retry";
    case RecoveryAction::kRebuild: return "rebuild";
    case RecoveryAction::kDegrade: return "degrade";
    case RecoveryAction::kWatchdogRestart: return "watchdog-restart";
    case RecoveryAction::kWatchdogRefine: return "watchdog-refine";
    case RecoveryAction::kAbort: return "abort";
  }
  return "?";
}

std::string to_string(const RecoveryEvent& event) {
  std::string out = to_string(event.action);
  out += "(subject=" + std::to_string(event.subject) +
         ", attempt=" + std::to_string(event.attempt) +
         ", rounds_lost=" + std::to_string(event.rounds_lost);
  if (!event.detail.empty()) out += ", " + event.detail;
  out += ")";
  return out;
}

}  // namespace dls
