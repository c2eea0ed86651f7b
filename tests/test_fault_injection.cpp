#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "sim/fault_injection.hpp"

namespace dls {
namespace {

// --- FaultPlan: the hash oracle -------------------------------------------

TEST(FaultPlan, DecisionsArePureFunctionsOfCoordinates) {
  FaultConfig config;
  config.drop_rate = 0.5;
  config.delay_rate = 0.3;
  config.duplicate_rate = 0.3;
  FaultPlan a(0x1234, config);
  FaultPlan b(0x1234, config);
  // Consult b at scrambled coordinates first: decisions must not shift.
  for (std::uint64_t r = 16; r >= 1; --r) {
    for (std::size_t s = 0; s < 8; ++s) b.message_fate(r, 7 - s, 0, 1);
  }
  for (std::uint64_t r = 1; r <= 16; ++r) {
    for (std::size_t s = 0; s < 8; ++s) {
      const MessageFate fa = a.message_fate(r, s, 0, 1);
      const MessageFate fb = b.message_fate(r, s, 0, 1);
      EXPECT_EQ(fa.dropped, fb.dropped) << "r=" << r << " s=" << s;
      EXPECT_EQ(fa.delay, fb.delay) << "r=" << r << " s=" << s;
      EXPECT_EQ(fa.duplicated, fb.duplicated) << "r=" << r << " s=" << s;
    }
  }
  // Identical consultation histories also leave identical injected logs.
  EXPECT_EQ(a.injected(), b.injected());
}

TEST(FaultPlan, RepeatConsultationAgrees) {
  FaultConfig config;
  config.drop_rate = 0.4;
  FaultPlan plan(99, config);
  for (std::uint64_t r = 1; r <= 8; ++r) {
    const MessageFate first = plan.message_fate(r, 3, 0, 1);
    const MessageFate again = plan.message_fate(r, 3, 0, 1);
    EXPECT_EQ(first.dropped, again.dropped);
  }
}

TEST(FaultPlan, DifferentSeedsAndEpochsChangeTheSchedule) {
  FaultConfig config;
  config.drop_rate = 0.5;
  auto signature = [&](FaultPlan& plan) {
    std::uint64_t bits = 0;
    for (std::size_t s = 0; s < 64; ++s) {
      bits = (bits << 1) | plan.message_fate(1, s, 0, 1).dropped;
    }
    return bits;
  };
  FaultPlan a(1, config);
  FaultPlan b(2, config);
  EXPECT_NE(signature(a), signature(b));
  FaultPlan c(1, config);
  const std::uint64_t epoch0 = signature(c);
  EXPECT_EQ(c.begin_epoch(), 1u);
  EXPECT_NE(signature(c), epoch0);
}

TEST(FaultPlan, HorizonBoundsMessageFaults) {
  FaultConfig config;
  config.drop_rate = 1.0;
  config.horizon = 4;
  FaultPlan plan(7, config);
  for (std::uint64_t r = 1; r <= 4; ++r) {
    EXPECT_TRUE(plan.message_fate(r, 0, 0, 1).dropped) << r;
  }
  for (std::uint64_t r = 5; r <= 12; ++r) {
    const MessageFate fate = plan.message_fate(r, 0, 0, 1);
    EXPECT_FALSE(fate.dropped) << r;
    EXPECT_EQ(fate.delay, 0u);
    EXPECT_FALSE(fate.duplicated);
  }
}

TEST(FaultPlan, CrashWindowCoversItsLengthAndLogsOneEvent) {
  FaultConfig config;
  config.crash_rate = 0.2;
  config.max_crash_len = 4;
  FaultPlan plan(0xBEEF, config);
  // Find some crash window by scanning; the rates make one overwhelmingly
  // likely within this search space.
  bool found = false;
  for (NodeId v = 0; v < 32 && !found; ++v) {
    for (std::uint64_t r = 1; r <= 32 && !found; ++r) {
      if (plan.node_crashed(r, v)) found = true;
    }
  }
  ASSERT_TRUE(found);
  const std::vector<FaultEvent> injected = plan.injected();
  ASSERT_FALSE(injected.empty());
  const FaultEvent w = injected.front();
  ASSERT_EQ(w.kind, FaultKind::kCrash);
  ASSERT_GE(w.param, 1u);
  ASSERT_LE(w.param, config.max_crash_len);
  // Every round of the window reports crashed; the log still holds exactly
  // one event per window (re-discovery deduplicates).
  for (std::uint64_t r = w.round; r < w.round + w.param; ++r) {
    EXPECT_TRUE(plan.node_crashed(r, static_cast<NodeId>(w.subject)));
  }
  const std::vector<FaultEvent> after = plan.injected();
  EXPECT_EQ(std::count(after.begin(), after.end(), w), 1);
}

TEST(FaultPlan, ReplayFiresExactlyTheListedEvents) {
  FaultConfig config;
  config.drop_rate = 0.4;
  config.delay_rate = 0.3;
  config.duplicate_rate = 0.3;
  FaultPlan generative(0xABC, config);
  for (std::uint64_t r = 1; r <= 8; ++r) {
    for (std::size_t s = 0; s < 6; ++s) generative.message_fate(r, s, 0, 1);
  }
  const std::vector<FaultEvent> events = generative.injected();
  ASSERT_FALSE(events.empty());

  FaultPlan replay = FaultPlan::replay(0xABC, events, config);
  for (std::uint64_t r = 1; r <= 8; ++r) {
    for (std::size_t s = 0; s < 6; ++s) {
      const MessageFate want = generative.message_fate(r, s, 0, 1);
      const MessageFate got = replay.message_fate(r, s, 0, 1);
      EXPECT_EQ(want.dropped, got.dropped) << "r=" << r << " s=" << s;
      EXPECT_EQ(want.delay, got.delay) << "r=" << r << " s=" << s;
      EXPECT_EQ(want.duplicated, got.duplicated) << "r=" << r << " s=" << s;
    }
  }
  // Coordinates outside the list are clean, even where the generative hash
  // would have fired.
  const MessageFate outside = replay.message_fate(1, 999, 0, 1);
  EXPECT_FALSE(outside.dropped);
  EXPECT_EQ(outside.delay, 0u);
  EXPECT_FALSE(outside.duplicated);
  // A full replay reconstructs the same injected log.
  EXPECT_EQ(replay.injected(), events);
}

TEST(FaultPlan, ReorderPermutationIsValidDeterministicAndReplayable) {
  FaultConfig config;
  config.reorder = true;
  FaultPlan plan(0x515, config);
  EXPECT_TRUE(plan.reorder_permutation(1, 0, 1).empty());  // count < 2

  // Find a coordinate whose shuffle is not the identity.
  std::uint64_t subject = 0;
  std::vector<std::size_t> perm;
  while (perm.empty()) perm = plan.reorder_permutation(2, ++subject, 5);
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(plan.reorder_permutation(2, subject, 5), perm);

  const std::vector<FaultEvent> events = plan.injected();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kReorder);
  FaultPlan replay = FaultPlan::replay(0x515, events, config);
  EXPECT_EQ(replay.reorder_permutation(2, subject, 5), perm);
  EXPECT_TRUE(replay.reorder_permutation(2, subject + 1, 5).empty());
}

TEST(FaultPlan, ValidatesConfig) {
  FaultConfig bad_rate;
  bad_rate.drop_rate = 1.5;
  EXPECT_THROW(FaultPlan(1, bad_rate), std::invalid_argument);
  FaultConfig bad_len;
  bad_len.max_delay = 0;
  EXPECT_THROW(FaultPlan(1, bad_len), std::invalid_argument);
}

TEST(FaultPlan, ResetRestoresConstructedState) {
  FaultConfig config;
  config.drop_rate = 1.0;
  FaultPlan plan(5, config);
  plan.begin_epoch();
  plan.message_fate(1, 0, 0, 1);
  ASSERT_FALSE(plan.injected().empty());
  plan.reset();
  EXPECT_EQ(plan.epoch(), 0u);
  EXPECT_TRUE(plan.injected().empty());
}

// --- FaultKind naming (satellite: exhaustive, round-trips) -----------------

TEST(FaultKind, ToStringIsExhaustiveAndRoundTrips) {
  for (const FaultKind kind : kAllFaultKinds) {
    const std::string name = to_string(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "unnamed FaultKind";
    EXPECT_EQ(fault_kind_from_string(name), kind) << name;
  }
  EXPECT_THROW(fault_kind_from_string("no-such-kind"), std::invalid_argument);
  // A kind outside the enum (torn bytes in a repro file) fails loudly
  // instead of printing garbage into chaos repro output.
  EXPECT_THROW(to_string(static_cast<FaultKind>(250)), std::invalid_argument);
}

// --- Payload corruption ----------------------------------------------------

TEST(CorruptPayload, PerturbsEveryValueButKeepsItFinite) {
  const double values[] = {0.0, 1.0, -3.25, 1e-300, 12345.678};
  for (const double v : values) {
    for (const std::uint32_t mask : {1u, 0xFFFFu, 0xFFFFFFFFu}) {
      const double out = corrupt_payload(v, mask);
      EXPECT_NE(out, v) << v << " mask=" << mask;
      EXPECT_TRUE(std::isfinite(out)) << v << " mask=" << mask;
      // XOR is an involution: re-applying the mask restores the value.
      EXPECT_EQ(corrupt_payload(out, mask), v);
    }
  }
  // A zero mask is forced to 1 rather than silently not corrupting.
  EXPECT_NE(corrupt_payload(2.5, 0), 2.5);
}

TEST(FaultPlan, CorruptFiresRecordsAndReplays) {
  FaultConfig config;
  config.corrupt_rate = 0.5;
  FaultPlan plan(0xC0DE, config);
  std::size_t corrupted = 0;
  for (std::uint64_t r = 1; r <= 16; ++r) {
    for (std::size_t s = 0; s < 8; ++s) {
      const MessageFate fate = plan.message_fate(r, s, 0, 1);
      if (!fate.corrupted) continue;
      ++corrupted;
      EXPECT_NE(fate.corrupt_mask, 0u);  // a corruption always flips bits
    }
  }
  ASSERT_GT(corrupted, 0u);
  const std::vector<FaultEvent> events = plan.injected();
  ASSERT_EQ(events.size(), corrupted);
  for (const FaultEvent& e : events) {
    EXPECT_EQ(e.kind, FaultKind::kCorrupt);
    EXPECT_NE(e.param, 0u);  // the recorded mask replays the perturbation
  }
  FaultPlan replay = FaultPlan::replay(0xC0DE, events, config);
  for (std::uint64_t r = 1; r <= 16; ++r) {
    for (std::size_t s = 0; s < 8; ++s) {
      const MessageFate want = plan.message_fate(r, s, 0, 1);
      const MessageFate got = replay.message_fate(r, s, 0, 1);
      EXPECT_EQ(want.corrupted, got.corrupted) << "r=" << r << " s=" << s;
      EXPECT_EQ(want.corrupt_mask, got.corrupt_mask) << "r=" << r << " s=" << s;
    }
  }
}

TEST(FaultPlan, CorruptNeverFiresOnDroppedMessages) {
  FaultConfig config;
  config.drop_rate = 1.0;
  config.corrupt_rate = 1.0;
  FaultPlan plan(0xFEED, config);
  for (std::uint64_t r = 1; r <= 8; ++r) {
    const MessageFate fate = plan.message_fate(r, 0, 0, 1);
    EXPECT_TRUE(fate.dropped);
    EXPECT_FALSE(fate.corrupted);  // there is no payload left to corrupt
  }
  for (const FaultEvent& e : plan.injected()) {
    EXPECT_NE(e.kind, FaultKind::kCorrupt);
  }
}

}  // namespace
}  // namespace dls
