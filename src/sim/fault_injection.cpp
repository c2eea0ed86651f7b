#include "sim/fault_injection.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace dls {

const char* to_string(FaultKind kind) {
  // Exhaustive switch, no default: adding a FaultKind without a name is a
  // compiler warning here and a loud throw below — chaos repro output must
  // never print a placeholder for a kind it cannot name.
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kCorrupt:
      return "corrupt";
  }
  throw std::invalid_argument("unnamed FaultKind " +
                              std::to_string(static_cast<unsigned>(kind)));
}

FaultKind fault_kind_from_string(const std::string& name) {
  for (FaultKind kind : kAllFaultKinds) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown FaultKind name '" + name + "'");
}

std::string to_string(const FaultEvent& event) {
  std::string s = to_string(event.kind);
  s += "(epoch=" + std::to_string(event.epoch);
  s += ", round=" + std::to_string(event.round);
  s += ", subject=" + std::to_string(event.subject);
  if (event.param != 0) s += ", param=" + std::to_string(event.param);
  s += ")";
  return s;
}

double corrupt_payload(double value, std::uint32_t mask) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= static_cast<std::uint64_t>(mask == 0 ? 1u : mask);
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

FaultPlan::FaultPlan(std::uint64_t seed, FaultConfig config)
    : FaultPlan(seed, config, /*replay=*/false, {}) {}

FaultPlan FaultPlan::replay(std::uint64_t seed, std::vector<FaultEvent> events,
                            FaultConfig config) {
  return FaultPlan(seed, config, /*replay=*/true, std::move(events));
}

FaultPlan::FaultPlan(std::uint64_t seed, FaultConfig config, bool replay,
                     std::vector<FaultEvent> events)
    : seed_(seed),
      config_(config),
      replay_(replay),
      replay_events_(std::move(events)) {
  DLS_REQUIRE(config_.drop_rate >= 0.0 && config_.drop_rate <= 1.0 &&
                  config_.duplicate_rate >= 0.0 &&
                  config_.duplicate_rate <= 1.0 &&
                  config_.delay_rate >= 0.0 && config_.delay_rate <= 1.0 &&
                  config_.crash_rate >= 0.0 && config_.crash_rate <= 1.0 &&
                  config_.flap_rate >= 0.0 && config_.flap_rate <= 1.0 &&
                  config_.corrupt_rate >= 0.0 && config_.corrupt_rate <= 1.0,
              "fault rates must be probabilities in [0, 1]");
  DLS_REQUIRE(config_.max_delay >= 1 && config_.max_crash_len >= 1 &&
                  config_.max_flap_len >= 1,
              "fault window lengths must be at least 1");
  std::sort(replay_events_.begin(), replay_events_.end());
}

void FaultPlan::reset() {
  epoch_ = 0;
  injected_.clear();
}

std::uint64_t FaultPlan::mix(Channel channel, std::uint64_t round,
                             std::uint64_t subject) const {
  // Each coordinate is folded in under its own odd multiplier, then a
  // splitmix64 finalizer scrambles the sum. Decisions are therefore
  // independent of consultation order — the property the whole layer rests
  // on: a retried message at a later round is a *new* coordinate, while two
  // consumers asking about the same coordinate always agree.
  std::uint64_t x = seed_;
  x ^= (static_cast<std::uint64_t>(channel) + 1) * 0x9e3779b97f4a7c15ULL;
  x ^= (static_cast<std::uint64_t>(epoch_) + 1) * 0xbf58476d1ce4e5b9ULL;
  x ^= (round + 1) * 0x94d049bb133111ebULL;
  x ^= (subject + 1) * 0xd6e8feb86659fd93ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double FaultPlan::uniform(Channel channel, std::uint64_t round,
                          std::uint64_t subject) const {
  return static_cast<double>(mix(channel, round, subject) >> 11) * 0x1.0p-53;
}

bool FaultPlan::replay_find(FaultKind kind, std::uint64_t round,
                            std::uint64_t subject,
                            std::uint32_t* param) const {
  const FaultEvent probe{kind, epoch_, round, subject, 0};
  const auto it =
      std::lower_bound(replay_events_.begin(), replay_events_.end(), probe);
  if (it == replay_events_.end() || it->kind != kind || it->epoch != epoch_ ||
      it->round != round || it->subject != subject) {
    return false;
  }
  if (param != nullptr) *param = it->param;
  return true;
}

void FaultPlan::record(FaultKind kind, std::uint64_t round,
                       std::uint64_t subject, std::uint32_t param) {
  // Window faults (crash, flap) are re-discovered every round they cover;
  // keep the log sorted and deduplicated so each fires exactly one event.
  const FaultEvent event{kind, epoch_, round, subject, param};
  const auto it =
      std::lower_bound(injected_.begin(), injected_.end(), event);
  if (it != injected_.end() && *it == event) return;
  injected_.insert(it, event);
}

std::vector<FaultEvent> FaultPlan::injected() const { return injected_; }

std::uint32_t FaultPlan::window_len(FaultKind kind, std::uint64_t round,
                                    std::uint64_t subject) {
  if (replay_) {
    std::uint32_t param = 0;
    if (!replay_find(kind, round, subject, &param)) return 0;
    return param;
  }
  const bool crash = kind == FaultKind::kCrash;
  const double rate = crash ? config_.crash_rate : config_.flap_rate;
  const std::uint32_t max_len =
      crash ? config_.max_crash_len : config_.max_flap_len;
  if (rate <= 0.0 || round > config_.horizon) return 0;
  const Channel start = crash ? Channel::kCrash : Channel::kFlap;
  const Channel len = crash ? Channel::kCrashLen : Channel::kFlapLen;
  if (uniform(start, round, subject) >= rate) return 0;
  return 1 + static_cast<std::uint32_t>(mix(len, round, subject) % max_len);
}

bool FaultPlan::node_crashed(std::uint64_t round, NodeId v) {
  const std::uint64_t span = config_.max_crash_len;
  const std::uint64_t first = round > span - 1 ? round - (span - 1) : 0;
  for (std::uint64_t r0 = first; r0 <= round; ++r0) {
    const std::uint32_t len = window_len(FaultKind::kCrash, r0, v);
    if (len != 0 && r0 + len > round) {
      record(FaultKind::kCrash, r0, v, len);
      return true;
    }
  }
  return false;
}

bool FaultPlan::link_down(std::uint64_t round, EdgeId e) {
  const std::uint64_t span = config_.max_flap_len;
  const std::uint64_t first = round > span - 1 ? round - (span - 1) : 0;
  for (std::uint64_t r0 = first; r0 <= round; ++r0) {
    const std::uint32_t len = window_len(FaultKind::kLinkDown, r0, e);
    if (len != 0 && r0 + len > round) {
      record(FaultKind::kLinkDown, r0, e, len);
      return true;
    }
  }
  return false;
}

MessageFate FaultPlan::message_fate(std::uint64_t round, std::size_t slot,
                                    NodeId from, NodeId to) {
  MessageFate fate;
  // Crashed endpoints and down links lose the message outright; the crash /
  // flap window event is what the log records (and what replay keys on).
  if (node_crashed(round, from) || node_crashed(round, to) ||
      link_down(round, static_cast<EdgeId>(slot / 2))) {
    fate.dropped = true;
    return fate;
  }
  if (replay_) {
    std::uint32_t param = 0;
    if (replay_find(FaultKind::kDrop, round, slot, nullptr)) {
      fate.dropped = true;
      record(FaultKind::kDrop, round, slot, 0);
      return fate;
    }
    if (replay_find(FaultKind::kCorrupt, round, slot, &param)) {
      fate.corrupted = true;
      fate.corrupt_mask = param == 0 ? 1 : param;
      record(FaultKind::kCorrupt, round, slot, fate.corrupt_mask);
    }
    if (replay_find(FaultKind::kDelay, round, slot, &param)) {
      fate.delay = param;
      record(FaultKind::kDelay, round, slot, param);
    }
    if (replay_find(FaultKind::kDuplicate, round, slot, nullptr)) {
      fate.duplicated = true;
      record(FaultKind::kDuplicate, round, slot, 0);
    }
    return fate;
  }
  if (round > config_.horizon) return fate;
  if (config_.drop_rate > 0.0 &&
      uniform(Channel::kDrop, round, slot) < config_.drop_rate) {
    fate.dropped = true;
    record(FaultKind::kDrop, round, slot, 0);
    return fate;
  }
  // Corruption only fires on messages that still arrive (a dropped message
  // has no payload to perturb). The mask rides a second channel so it is
  // independent of the fire/no-fire draw, and is forced nonzero so a
  // corrupted payload always differs bitwise.
  if (config_.corrupt_rate > 0.0 &&
      uniform(Channel::kCorrupt, round, slot) < config_.corrupt_rate) {
    fate.corrupted = true;
    fate.corrupt_mask = static_cast<std::uint32_t>(
        mix(Channel::kCorruptMask, round, slot));
    if (fate.corrupt_mask == 0) fate.corrupt_mask = 1;
    record(FaultKind::kCorrupt, round, slot, fate.corrupt_mask);
  }
  if (config_.delay_rate > 0.0 &&
      uniform(Channel::kDelay, round, slot) < config_.delay_rate) {
    fate.delay = 1 + static_cast<std::uint32_t>(
                         mix(Channel::kDelayLen, round, slot) %
                         config_.max_delay);
    record(FaultKind::kDelay, round, slot, fate.delay);
  }
  if (config_.duplicate_rate > 0.0 &&
      uniform(Channel::kDuplicate, round, slot) < config_.duplicate_rate) {
    fate.duplicated = true;
    record(FaultKind::kDuplicate, round, slot, 0);
  }
  return fate;
}

std::vector<std::size_t> FaultPlan::reorder_permutation(std::uint64_t round,
                                                        std::uint64_t subject,
                                                        std::size_t count) {
  if (count < 2) return {};
  if (replay_) {
    if (!replay_find(FaultKind::kReorder, round, subject, nullptr)) return {};
  } else {
    if (!config_.reorder || round > config_.horizon) return {};
  }
  // The permutation itself re-derives from the seed in both modes, so a
  // replayed kReorder event shuffles exactly as the generative run did.
  Rng rng(mix(Channel::kReorder, round, subject));
  std::vector<std::size_t> perm = rng.permutation(count);
  bool identity = true;
  for (std::size_t i = 0; i < count; ++i) identity &= perm[i] == i;
  if (identity) return {};
  record(FaultKind::kReorder, round, subject,
         static_cast<std::uint32_t>(count));
  return perm;
}

}  // namespace dls
