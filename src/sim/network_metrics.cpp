#include "sim/network_metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dls {

void NetworkMetrics::reset(std::size_t num_slots) {
  if (slot_count_.size() < num_slots) {
    slot_count_.resize(num_slots, 0);
    slot_epoch_.resize(num_slots, 0);
  }
  ++epoch_;
  round_histogram_.clear();
  cur_round_ = 0;
  cur_round_messages_ = 0;
  current_ = {};
  phase_open_ = false;
  phase_label_.clear();
  phases_.clear();
}

void NetworkMetrics::begin_phase(const std::string& label) {
  if (phase_open_) end_phase(cur_round_);
  ++epoch_;  // forget per-slot counts of the previous phase in O(1)
  current_ = {};
  cur_round_ = 0;
  cur_round_messages_ = 0;
  phase_label_ = label;
  phase_open_ = true;
}

void NetworkMetrics::end_phase(std::uint64_t rounds) {
  if (!phase_open_) return;
  current_.peak_round_messages =
      std::max(current_.peak_round_messages,
               static_cast<std::size_t>(cur_round_messages_));
  phases_.push_back({phase_label_, rounds, current_});
  current_ = {};
  phase_open_ = false;
}

void NetworkMetrics::record_send(std::size_t slot, std::uint64_t round) {
  DLS_ASSERT(slot < slot_count_.size(),
             "NetworkMetrics slot out of range — reset() with enough slots");
  if (slot_epoch_[slot] != epoch_) {
    slot_epoch_[slot] = epoch_;
    slot_count_[slot] = 0;
  }
  ++slot_count_[slot];
  current_.peak_slot_messages = std::max(
      current_.peak_slot_messages, static_cast<std::size_t>(slot_count_[slot]));
  ++current_.messages;
  if (round != cur_round_) {
    current_.peak_round_messages =
        std::max(current_.peak_round_messages,
                 static_cast<std::size_t>(cur_round_messages_));
    cur_round_ = round;
    cur_round_messages_ = 0;
  }
  ++cur_round_messages_;
  if (round_histogram_.size() <= round) round_histogram_.resize(round + 1, 0);
  ++round_histogram_[round];
}

PhaseCongestion NetworkMetrics::totals() const {
  PhaseCongestion total;
  auto fold = [&total](const PhaseCongestion& c) {
    total.messages += c.messages;
    total.peak_slot_messages =
        std::max(total.peak_slot_messages, c.peak_slot_messages);
    total.peak_round_messages =
        std::max(total.peak_round_messages, c.peak_round_messages);
  };
  for (const Phase& p : phases_) fold(p.congestion);
  if (phase_open_) {
    PhaseCongestion open = current_;
    open.peak_round_messages =
        std::max(open.peak_round_messages,
                 static_cast<std::size_t>(cur_round_messages_));
    fold(open);
  }
  return total;
}

}  // namespace dls
