#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "sim/aggregation_scheduler.hpp"
#include "sim/network_metrics.hpp"
#include "sim/round_ledger.hpp"
#include "sim/sim_batch.hpp"
#include "util/thread_pool.hpp"

namespace dls {
namespace {

TEST(NetworkMetrics, PhaseBoundariesForgetSlotCounts) {
  NetworkMetrics metrics;
  metrics.reset(4);
  metrics.begin_phase("up");
  metrics.record_send(0, 1);
  metrics.record_send(0, 1);
  metrics.record_send(2, 2);
  metrics.end_phase(2);
  metrics.begin_phase("down");
  metrics.record_send(0, 3);  // same slot: count restarts at the boundary
  metrics.end_phase(1);
  ASSERT_EQ(metrics.phases().size(), 2u);
  EXPECT_EQ(metrics.phases()[0].congestion.messages, 3u);
  EXPECT_EQ(metrics.phases()[0].congestion.peak_slot_messages, 2u);
  EXPECT_EQ(metrics.phases()[0].congestion.peak_round_messages, 2u);
  EXPECT_EQ(metrics.phases()[1].congestion.messages, 1u);
  EXPECT_EQ(metrics.phases()[1].congestion.peak_slot_messages, 1u);
  const PhaseCongestion total = metrics.totals();
  EXPECT_EQ(total.messages, 4u);
  EXPECT_EQ(total.peak_slot_messages, 2u);
  // Histogram spans both phases: rounds 1..3 carried 2, 1, 1 messages.
  ASSERT_EQ(metrics.round_histogram().size(), 4u);
  EXPECT_EQ(metrics.round_histogram()[1], 2u);
  EXPECT_EQ(metrics.round_histogram()[2], 1u);
  EXPECT_EQ(metrics.round_histogram()[3], 1u);
}

TEST(RoundLedger, AccumulatesAndLabels) {
  RoundLedger ledger;
  ledger.charge_local(5, "phase-a");
  ledger.charge_global(3, "phase-b");
  ledger.charge_local(2, "phase-c");
  EXPECT_EQ(ledger.total_local(), 7u);
  EXPECT_EQ(ledger.total_global(), 3u);
  // Hybrid: sequential phases, each costing max(local, global).
  EXPECT_EQ(ledger.total_hybrid(), 5u + 3u + 2u);
  EXPECT_EQ(ledger.entries().size(), 3u);
  EXPECT_EQ(ledger.entries()[0].label, "phase-a");
}

TEST(RoundLedger, AbsorbPrefixesLabels) {
  RoundLedger inner, outer;
  inner.charge_local(4, "x");
  outer.absorb(inner, "oracle");
  EXPECT_EQ(outer.total_local(), 4u);
  EXPECT_EQ(outer.entries()[0].label, "oracle/x");
}

TEST(RoundLedger, CarriesCongestionProfiles) {
  RoundLedger ledger;
  PhaseCongestion up{30, 5, 12};
  PhaseCongestion down{20, 3, 9};
  ledger.charge_local(4, "up", up);
  ledger.charge_local(2, "down", down);
  ledger.charge_local(1, "charge-only");  // no profile: all-zero congestion
  EXPECT_EQ(ledger.peak_congestion(), 5u);
  EXPECT_EQ(ledger.total_messages(), 50u);
  EXPECT_EQ(ledger.entries()[0].congestion.peak_round_messages, 12u);
  EXPECT_EQ(ledger.entries()[2].congestion.messages, 0u);
  // absorb keeps the profiles.
  RoundLedger outer;
  outer.absorb(ledger, "oracle");
  EXPECT_EQ(outer.peak_congestion(), 5u);
  EXPECT_EQ(outer.total_messages(), 50u);
}

TEST(RoundLedger, ClearResets) {
  RoundLedger ledger;
  ledger.charge_local(4, "x");
  ledger.clear();
  EXPECT_EQ(ledger.total_local(), 0u);
  EXPECT_TRUE(ledger.entries().empty());
}

// --- SimBatch: the deterministic sharded runtime --------------------------

TEST(SimBatch, ScenarioSeedsAreStableAndDistinct) {
  // Pure function of (root, index)...
  EXPECT_EQ(derive_scenario_seed(7, 0), derive_scenario_seed(7, 0));
  // ...different per index and per root, over a decent window.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 512; ++i) seeds.insert(derive_scenario_seed(7, i));
  for (std::uint64_t i = 0; i < 512; ++i) seeds.insert(derive_scenario_seed(8, i));
  EXPECT_EQ(seeds.size(), 1024u);
  // Scenario 0 must not alias the root stream itself.
  EXPECT_NE(derive_scenario_seed(7, 0), 7u);
}

namespace {
/// A batch whose scenarios run real tree aggregations through the scheduler,
/// so ledgers carry real round and congestion numbers worth comparing.
SimBatch make_probe_batch() {
  SimBatch batch(/*root_seed=*/0xbadc0deULL);
  for (int s = 0; s < 12; ++s) {
    batch.add("probe" + std::to_string(s), [](Rng& rng, SimOutcome& out) {
      const Graph g = make_path(4 + rng.next_below(4));
      AggregationTree tree;
      tree.root = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      for (EdgeId e = 0; e < g.num_edges(); ++e) tree.edges.push_back(e);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        tree.inputs.push_back({v, rng.next_double()});
      }
      const AggregationOutcome agg =
          run_tree_aggregations(g, {tree}, AggregationMonoid::sum(), rng);
      out.ledger.charge_local(agg.total_rounds, "probe", agg.congestion());
      out.results = {agg.results[0], static_cast<double>(agg.messages)};
    });
  }
  return batch;
}
}  // namespace

TEST(SimBatch, OutcomesAreBitIdenticalAcrossThreadCounts) {
  SimBatch serial = make_probe_batch();
  serial.run(nullptr);
  ThreadPool pool(4);
  SimBatch threaded = make_probe_batch();
  threaded.run(&pool);
  ASSERT_EQ(serial.outcomes().size(), threaded.outcomes().size());
  for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
    const SimOutcome& a = serial.outcomes()[i];
    const SimOutcome& b = threaded.outcomes()[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.results, b.results);  // exact, not approximate
    EXPECT_TRUE(a.ledger == b.ledger) << "ledger mismatch in scenario " << i;
  }
  EXPECT_TRUE(serial.merged_ledger() == threaded.merged_ledger());
  EXPECT_TRUE(serial.merged_congestion() == threaded.merged_congestion());
}

TEST(SimBatch, MergedLedgerFoldsInIndexOrderWithLabelPrefixes) {
  SimBatch batch(1);
  batch.add("a", [](Rng&, SimOutcome& out) { out.ledger.charge_local(2, "x"); });
  batch.add("b", [](Rng&, SimOutcome& out) { out.ledger.charge_global(3, "y"); });
  batch.run();
  const RoundLedger merged = batch.merged_ledger();
  ASSERT_EQ(merged.entries().size(), 2u);
  EXPECT_EQ(merged.entries()[0].label, "a/x");
  EXPECT_EQ(merged.entries()[1].label, "b/y");
  EXPECT_EQ(merged.total_local(), 2u);
  EXPECT_EQ(merged.total_global(), 3u);
}

TEST(SimBatch, GuardsAgainstMisuse) {
  SimBatch batch(1);
  EXPECT_THROW(batch.outcomes(), std::invalid_argument);  // before run
  batch.add("a", [](Rng&, SimOutcome&) {});
  batch.run();
  EXPECT_THROW(batch.add("b", [](Rng&, SimOutcome&) {}), std::invalid_argument);
  EXPECT_THROW(batch.run(), std::invalid_argument);  // run is once-only
}

}  // namespace
}  // namespace dls
