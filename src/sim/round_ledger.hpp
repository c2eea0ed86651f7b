// Round accounting shared by all models.
//
// Algorithms in this library report costs through a RoundLedger so that the
// composition rules of the paper are explicit in code: a simulated step on
// the layered graph Ĝ_ρ charges ρ local rounds (Lemma 16), an NCC step
// charges one global round, and the Laplacian solver charges the measured
// cost of each part-wise-aggregation oracle call (Assumption 27).
//
// Entries optionally carry the PhaseCongestion observed while the phase's
// messages were simulated (see sim/network_metrics.hpp), so a total can be
// decomposed not just into *how many* rounds each phase cost but into *how
// concentrated* its traffic was.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network_metrics.hpp"

namespace dls {

/// One accounted phase: a label plus the rounds it consumed per mode and,
/// when the phase was simulated at message level, its congestion profile.
struct LedgerEntry {
  std::string label;
  std::uint64_t local_rounds = 0;   // CONGEST rounds
  std::uint64_t global_rounds = 0;  // NCC rounds
  PhaseCongestion congestion;       // all-zero when the phase was only charged

  friend bool operator==(const LedgerEntry&, const LedgerEntry&) = default;
};

/// What a resilience layer did in response to a fault or numerical anomaly.
/// These ride on the RoundLedger next to the entries so a solve's recovery
/// path is part of its accounted trace: a clean run records none (keeping
/// golden-trace equality untouched), a supervised faulted run records every
/// escalation transition in order.
enum class RecoveryAction : std::uint8_t {
  kRetry,              // PA call re-attempted after a ChaosAbortError
  kRebuild,            // shortcut structure rebuilt before re-attempting
  kDegrade,            // oracle demoted to the spanning-tree baseline
  kWatchdogRestart,    // iteration restarted after a numerical anomaly
  kWatchdogRefine,     // iterative-refinement pass appended to a solve
  kAbort,              // recovery budget exhausted; solve degraded
};

const char* to_string(RecoveryAction action);

/// One recovery transition. `subject` identifies what recovered (a PA oracle
/// instance id, a solver level, ...), `attempt` numbers the retries of one
/// subject, and `rounds_lost` is the simulated work charged to the failed
/// attempt the action responds to (0 when nothing was wasted).
struct RecoveryEvent {
  RecoveryAction action = RecoveryAction::kRetry;
  std::uint64_t subject = 0;
  std::uint32_t attempt = 0;
  std::uint64_t rounds_lost = 0;
  std::string detail;

  friend bool operator==(const RecoveryEvent&, const RecoveryEvent&) = default;
};

std::string to_string(const RecoveryEvent& event);

class RoundLedger {
 public:
  void charge_local(std::uint64_t rounds, const std::string& label);
  void charge_local(std::uint64_t rounds, const std::string& label,
                    const PhaseCongestion& congestion);
  void charge_global(std::uint64_t rounds, const std::string& label);
  void charge_global(std::uint64_t rounds, const std::string& label,
                     const PhaseCongestion& congestion);

  std::uint64_t total_local() const { return local_; }
  std::uint64_t total_global() const { return global_; }
  /// In HYBRID both modes run in lockstep, so wall-clock rounds is the sum of
  /// phases, each phase costing max(local, global); we track phases
  /// sequentially so the simple sum of per-entry maxima is exact.
  std::uint64_t total_hybrid() const;

  /// Max per-(edge,direction)-slot messages over all entries that carried a
  /// congestion profile — where traffic concentrated worst across phases.
  std::size_t peak_congestion() const;
  /// Total messages over all entries that carried a congestion profile.
  std::uint64_t total_messages() const;

  const std::vector<LedgerEntry>& entries() const { return entries_; }
  void clear();

  /// Appends a typed recovery record (see RecoveryEvent). Recovery events do
  /// not move round totals — the rounds a recovery consumed are charged
  /// through charge_local/charge_global as usual — they record *why*.
  void record_recovery(RecoveryEvent event);
  const std::vector<RecoveryEvent>& recovery_events() const {
    return recovery_events_;
  }
  /// Number of recorded events of one action kind.
  std::size_t recovery_count(RecoveryAction action) const;

  /// Merge a sub-ledger (e.g. an oracle call) under a prefix label.
  void absorb(const RoundLedger& other, const std::string& prefix);

  /// Exact equality: same entries (labels, rounds, congestion) and the same
  /// recovery trace in the same order. This is the "bit-identical ledger"
  /// relation the deterministic batch runtime promises across thread counts;
  /// clean runs record no recovery events, so the pinned golden traces are
  /// unaffected by the resilience layer.
  friend bool operator==(const RoundLedger& a, const RoundLedger& b) {
    return a.local_ == b.local_ && a.global_ == b.global_ &&
           a.entries_ == b.entries_ && a.recovery_events_ == b.recovery_events_;
  }

 private:
  std::uint64_t local_ = 0;
  std::uint64_t global_ = 0;
  std::vector<LedgerEntry> entries_;
  std::vector<RecoveryEvent> recovery_events_;
};

}  // namespace dls
