// Congestion observability for the message plane.
//
// The aggregation scheduler, the library's local-round engine, moves
// messages through directed (edge, direction) slots, one queue per slot.
// NetworkMetrics is the counter layer it feeds: per-slot message counters,
// a per-round message histogram, and per-phase peaks, all with O(1) cost per
// recorded message. Phase boundaries use epoch-stamped slot counters so
// starting a new phase never pays an O(#slots) clear — the same trick the
// scheduler uses for its scratch buffers.
//
// The summaries feed RoundLedger entries, which is how a bench or the
// Laplacian solver can report *where* congestion concentrates (the
// ρ-congested part-wise-aggregation story of Definition 13) instead of only
// a final round count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dls {

/// Congestion summary of one accounted phase. All counts are messages that
/// actually crossed an edge (multi-word payloads count their full slot
/// occupancy via `words`).
struct PhaseCongestion {
  std::uint64_t messages = 0;          // messages delivered in the phase
  std::size_t peak_slot_messages = 0;  // busiest (edge, direction) slot
  std::size_t peak_round_messages = 0; // busiest single round

  /// Exact comparison — used by the differential suite to assert that
  /// parallel batch runs reproduce serial accounting bit-for-bit.
  friend bool operator==(const PhaseCongestion&,
                         const PhaseCongestion&) = default;
};

/// Summary of two sequential phases: messages add, peaks take the max (a
/// slot's count does not carry across a phase boundary).
inline PhaseCongestion merge_phases(const PhaseCongestion& a,
                                    const PhaseCongestion& b) {
  PhaseCongestion merged;
  merged.messages = a.messages + b.messages;
  merged.peak_slot_messages =
      a.peak_slot_messages > b.peak_slot_messages ? a.peak_slot_messages
                                                  : b.peak_slot_messages;
  merged.peak_round_messages =
      a.peak_round_messages > b.peak_round_messages ? a.peak_round_messages
                                                    : b.peak_round_messages;
  return merged;
}

class NetworkMetrics {
 public:
  struct Phase {
    std::string label;
    std::uint64_t rounds = 0;
    PhaseCongestion congestion;
  };

  /// Re-arms the counters for a network with `num_slots` directed slots
  /// (2 * num_edges for the scheduler). Keeps buffer capacity.
  void reset(std::size_t num_slots);

  /// Opens a new phase; subsequent record_send calls accumulate into it.
  /// Closing the previous phase (if any) uses the rounds recorded so far.
  void begin_phase(const std::string& label);

  /// Closes the current phase, recording how many rounds it consumed.
  void end_phase(std::uint64_t rounds);

  /// One message crossing `slot` during `round`. Rounds must be
  /// non-decreasing within a phase (the scheduler delivers in round order).
  void record_send(std::size_t slot, std::uint64_t round);

  const std::vector<Phase>& phases() const { return phases_; }
  /// Congestion accumulated in the currently open phase.
  const PhaseCongestion& current() const { return current_; }
  /// Sum over all closed phases plus the open one.
  PhaseCongestion totals() const;
  /// Messages per round, indexed by round number, across all phases of this
  /// reset cycle. Rounds that carried no messages read as 0.
  const std::vector<std::uint64_t>& round_histogram() const {
    return round_histogram_;
  }

 private:
  std::vector<std::uint64_t> slot_count_;  // valid iff slot_epoch_ == epoch_
  std::vector<std::uint64_t> slot_epoch_;
  std::uint64_t epoch_ = 0;  // bumped per phase: implicit slot-counter clear

  std::vector<std::uint64_t> round_histogram_;
  std::uint64_t cur_round_ = 0;
  std::uint64_t cur_round_messages_ = 0;

  PhaseCongestion current_;
  bool phase_open_ = false;
  std::string phase_label_;
  std::vector<Phase> phases_;
};

}  // namespace dls
