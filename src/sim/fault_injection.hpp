// Seeded fault injection for the CONGEST message plane.
//
// A FaultPlan turns one uint64_t seed into a complete adversarial schedule:
// which messages are dropped, duplicated, or delayed, which nodes crash and
// recover, which links flap, and how same-round deliveries are reordered.
// Every decision is a *pure function* of (seed, channel, epoch, round,
// subject) through a splitmix-style mixer — not a stateful stream — so the
// schedule a consumer observes does not depend on the order or number of
// queries it makes. Two runs that consult the plan at the same coordinates
// see the same faults; the whole schedule replays from the seed alone.
//
// Every fault that actually fires is recorded as a FaultEvent. A plan can
// also be built *from* an explicit event list (replay mode): only the listed
// events fire, at exactly their recorded coordinates. This is the substrate
// for the chaos harness's shrinker — take the generative schedule's injected
// events, greedily delete subsets, and replay until a minimal failing list
// remains (tests/chaos_harness.hpp).
//
// Epochs delimit independent phases: the consumer (the aggregation
// scheduler) calls begin_epoch() at each phase start, and each phase's
// local round counter restarts at 1. The `horizon` config bounds the rounds
// (per epoch) in which message faults fire — beyond it the network is clean,
// which is the "eventual delivery" guarantee retry loops rely on to
// terminate. Crash and flap windows must *start* within the horizon but may
// extend up to their maximum length past it.
//
// FaultPlan is stateful only in its epoch counter and injected-event log; it
// is NOT thread-safe and must not be shared across concurrently simulated
// scenarios (give each scenario its own plan, same as its own Rng).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/round_ledger.hpp"

namespace dls {

enum class FaultKind : std::uint8_t {
  kDrop,       // message lost in flight (subject = directed slot)
  kDuplicate,  // message delivered twice (subject = directed slot)
  kDelay,      // message held `param` extra rounds (subject = directed slot)
  kReorder,    // same-round delivery batch permuted (subject = consumer key)
  kCrash,      // node down for `param` rounds from `round` (subject = node)
  kLinkDown,   // edge down for `param` rounds from `round` (subject = edge)
  kCorrupt,    // payload bits flipped in flight: `param` is the nonzero XOR
               // mask applied to the payload word (subject = directed slot)
};

/// All kinds, for exhaustive iteration (round-trip tests, mix tables).
inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kDrop,  FaultKind::kDuplicate, FaultKind::kDelay,
    FaultKind::kReorder, FaultKind::kCrash,   FaultKind::kLinkDown,
    FaultKind::kCorrupt,
};

const char* to_string(FaultKind kind);
/// Inverse of to_string; throws std::invalid_argument on an unknown name.
FaultKind fault_kind_from_string(const std::string& name);

/// One fault that fired (or, in replay mode, is scheduled to fire).
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  std::uint32_t epoch = 0;     // phase the fault belongs to
  std::uint64_t round = 0;     // phase-local round (windows: start round)
  std::uint64_t subject = 0;   // slot / node / edge / consumer key per kind
  std::uint32_t param = 0;     // delay or window length; 0 when unused

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
  friend auto operator<=>(const FaultEvent&, const FaultEvent&) = default;
};

std::string to_string(const FaultEvent& event);

/// Rates and bounds for the generative mode. All rates are per-consultation
/// probabilities in [0, 1].
struct FaultConfig {
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double delay_rate = 0.0;
  std::uint32_t max_delay = 3;       // delays drawn from {1..max_delay}
  bool reorder = false;              // permute same-round delivery batches
  double crash_rate = 0.0;           // per (node, round) window-start chance
  std::uint32_t max_crash_len = 4;   // windows drawn from {1..max_crash_len}
  double flap_rate = 0.0;            // per (edge, round) window-start chance
  std::uint32_t max_flap_len = 3;
  /// Per-consultation chance a delivered payload is corrupted in flight: a
  /// seeded nonzero 32-bit mask is XORed into the low (mantissa) bits of the
  /// payload word (see corrupt_payload), so the value always changes but
  /// stays finite. Corruption composes with delay/duplication — every copy
  /// of a corrupted transmission carries the perturbed payload — and never
  /// fires on a message that was already dropped.
  double corrupt_rate = 0.0;

  /// Opt-in payload integrity for the aggregation scheduler. With integrity
  /// on, every transmission ships one extra checksum word — the message
  /// occupies its directed slot for 2 rounds instead of 1 — and a corrupted
  /// payload fails verification at the receiver, which discards it exactly
  /// like a drop (the sender retransmits).
  bool integrity = false;

  /// Message faults only fire in phase-local rounds 1..horizon (crash/flap
  /// windows must start within it). A finite horizon guarantees eventual
  /// delivery; set to kNoHorizon to model a permanently lossy network (the
  /// timeout/abort paths exist for exactly that case).
  static constexpr std::uint64_t kNoHorizon = ~std::uint64_t{0};
  std::uint64_t horizon = 32;

  /// Fault-tolerant phase loops abort (ChaosAbortError) once a phase exceeds
  /// this many rounds instead of livelocking.
  std::uint64_t round_limit = std::uint64_t{1} << 20;
};

/// What the plan decided for one message consultation.
struct MessageFate {
  bool dropped = false;
  std::uint32_t delay = 0;     // extra rounds before delivery (0 = on time)
  bool duplicated = false;     // one extra copy arrives delay+1 rounds later
  bool corrupted = false;      // payload perturbed in flight
  std::uint32_t corrupt_mask = 0;  // nonzero XOR mask when corrupted
};

/// XORs `mask` (forced nonzero) into the low 32 bits of the IEEE-754 bit
/// pattern of `value`. Those bits are all mantissa, so the result is finite
/// whenever the input is, yet always a *different* bit pattern — integer
/// inputs become detectably non-integer-exact sums downstream.
double corrupt_payload(double value, std::uint32_t mask);

class FaultPlan {
 public:
  /// Generative mode: the schedule is derived from `seed` on demand.
  explicit FaultPlan(std::uint64_t seed, FaultConfig config = {});

  /// Replay mode: exactly `events` fire, at their recorded coordinates.
  /// `seed` must match the generative plan the events came from so reorder
  /// permutations re-derive identically.
  static FaultPlan replay(std::uint64_t seed, std::vector<FaultEvent> events,
                          FaultConfig config = {});

  /// Opens the next phase; returns its epoch id (first call returns 1;
  /// consumers that never call this query epoch 0).
  std::uint32_t begin_epoch() { return ++epoch_; }
  std::uint32_t epoch() const { return epoch_; }

  /// Restores the plan to its just-constructed state (epoch 0, empty
  /// injected log) so one plan object can drive a fresh identical run.
  void reset();

  /// The fate of the message crossing directed `slot` whose delivery is due
  /// in phase-local `round`. Crashed endpoints and down links drop it.
  MessageFate message_fate(std::uint64_t round, std::size_t slot, NodeId from,
                           NodeId to);

  /// True iff a crash window covers (current epoch, round) for `v`.
  bool node_crashed(std::uint64_t round, NodeId v);
  /// True iff a flap window covers (current epoch, round) for `e`.
  bool link_down(std::uint64_t round, EdgeId e);

  /// Permutation to apply to a `count`-element same-round delivery batch of
  /// consumer `subject`, or an empty vector for identity (reorder disabled,
  /// count < 2, past horizon, or the derived shuffle was the identity).
  std::vector<std::size_t> reorder_permutation(std::uint64_t round,
                                               std::uint64_t subject,
                                               std::size_t count);

  const FaultConfig& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }
  bool replay_mode() const { return replay_; }

  /// Every fault that fired so far, sorted. Feed this to FaultPlan::replay
  /// (and the shrinker) to reproduce the schedule without the hash oracle.
  std::vector<FaultEvent> injected() const;

 private:
  FaultPlan(std::uint64_t seed, FaultConfig config, bool replay,
            std::vector<FaultEvent> events);

  // Independent decision channels (distinct from FaultKind: some kinds need
  // two draws, e.g. window start + window length).
  enum class Channel : std::uint64_t {
    kDrop,
    kDuplicate,
    kDelay,
    kDelayLen,
    kCrash,
    kCrashLen,
    kFlap,
    kFlapLen,
    kReorder,
    // Appended (never reordered): channel values feed the coordinate hash,
    // so inserting above would silently reshuffle every existing schedule.
    kCorrupt,
    kCorruptMask,
  };
  std::uint64_t mix(Channel channel, std::uint64_t round,
                    std::uint64_t subject) const;
  double uniform(Channel channel, std::uint64_t round,
                 std::uint64_t subject) const;
  /// Replay lookup; returns whether the event exists, and its param.
  bool replay_find(FaultKind kind, std::uint64_t round, std::uint64_t subject,
                   std::uint32_t* param) const;
  void record(FaultKind kind, std::uint64_t round, std::uint64_t subject,
              std::uint32_t param);
  /// Window length (0 = no window) starting at `round` for crash/flap.
  std::uint32_t window_len(FaultKind kind, std::uint64_t round,
                           std::uint64_t subject);

  std::uint64_t seed_ = 0;
  FaultConfig config_;
  bool replay_ = false;
  std::vector<FaultEvent> replay_events_;  // sorted
  std::uint32_t epoch_ = 0;
  std::vector<FaultEvent> injected_;       // kept sorted + deduplicated
};

/// Thrown by fault-tolerant phase loops that exhaust their round budget
/// (FaultConfig::round_limit). Carries the partial round accounting so the
/// failure is diagnosable: which phase wedged, after how many rounds, with
/// what congestion profile.
class ChaosAbortError : public std::runtime_error {
 public:
  ChaosAbortError(const std::string& what, RoundLedger ledger)
      : std::runtime_error(what), ledger_(std::move(ledger)) {}
  const RoundLedger& ledger() const { return ledger_; }

 private:
  RoundLedger ledger_;
};

}  // namespace dls
