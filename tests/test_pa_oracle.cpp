#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "laplacian/pa_oracle.hpp"
#include "shortcuts/partition.hpp"

namespace dls {
namespace {

PartCollection two_rows() { return grid_row_partition(2, 4); }

std::vector<std::vector<double>> values_for(const PartCollection& pc, double v) {
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), v);
  }
  return values;
}

TEST(PaOracle, ShortcutOracleAggregatesAndCharges) {
  const Graph g = make_grid(2, 4);
  Rng rng(1);
  ShortcutPaOracle oracle(g, rng);
  const PartCollection pc = two_rows();
  const auto results =
      oracle.aggregate_once(pc, values_for(pc, 2.0), AggregationMonoid::sum());
  EXPECT_DOUBLE_EQ(results[0], 8.0);
  EXPECT_DOUBLE_EQ(results[1], 8.0);
  EXPECT_GT(oracle.ledger().total_local(), 0u);
  EXPECT_EQ(oracle.ledger().total_global(), 0u);
  EXPECT_EQ(oracle.pa_calls(), 1u);
}

TEST(PaOracle, PreparedInstanceCostIsCachedAndRecharged) {
  const Graph g = make_grid(3, 3);
  Rng rng(2);
  ShortcutPaOracle oracle(g, rng);
  const PartCollection pc = grid_row_partition(3, 3);
  const auto id = oracle.prepare(pc);
  oracle.aggregate(id, values_for(pc, 1.0), AggregationMonoid::sum());
  const auto after_first = oracle.ledger().total_local();
  oracle.aggregate(id, values_for(pc, 1.0), AggregationMonoid::sum());
  const auto after_second = oracle.ledger().total_local();
  // Identical cost charged again (value-oblivious schedule).
  EXPECT_EQ(after_second, 2 * after_first);
  EXPECT_EQ(oracle.pa_calls(), 2u);
}

TEST(PaOracle, NccOracleChargesGlobalRounds) {
  const Graph g = make_grid(2, 4);
  Rng rng(3);
  NccPaOracle oracle(g, rng);
  const PartCollection pc = two_rows();
  const auto results =
      oracle.aggregate_once(pc, values_for(pc, 1.0), AggregationMonoid::sum());
  EXPECT_DOUBLE_EQ(results[0], 4.0);
  EXPECT_EQ(oracle.ledger().total_local(), 0u);
  EXPECT_GT(oracle.ledger().total_global(), 0u);
}

TEST(PaOracle, BaselineOracleHandlesCongestedInstances) {
  const Graph g = make_grid(5, 5);
  Rng rng(4);
  BaselinePaOracle oracle(g, rng);
  const PartCollection pc = figure1_diagonal_instance(5);
  const auto results =
      oracle.aggregate_once(pc, values_for(pc, 1.0), AggregationMonoid::sum());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], static_cast<double>(pc.parts[i].size()));
  }
  EXPECT_GT(oracle.ledger().total_local(), 0u);
}

TEST(PaOracle, BaselinePaysMoreThanShortcutOnManyParts) {
  // The baseline routes every part over the global BFS tree; with many small
  // parts its rounds exceed the shortcut pipeline's.
  const Graph g = make_grid(8, 8);
  Rng rng1(5), rng2(5);
  ShortcutPaOracle fast(g, rng1);
  BaselinePaOracle slow(g, rng2);
  Rng part_rng(6);
  const PartCollection pc = random_voronoi_partition(g, 16, part_rng);
  fast.aggregate_once(pc, values_for(pc, 1.0), AggregationMonoid::sum());
  slow.aggregate_once(pc, values_for(pc, 1.0), AggregationMonoid::sum());
  EXPECT_LT(fast.ledger().total_local(), slow.ledger().total_local());
}

TEST(PaOracle, LocalExchangeChargesOneRound) {
  const Graph g = make_path(3);
  Rng rng(7);
  ShortcutPaOracle oracle(g, rng);
  oracle.charge_local_exchange("matvec");
  oracle.charge_local_exchange("matvec");
  EXPECT_EQ(oracle.ledger().total_local(), 2u);
}

std::vector<LedgerEntry> entries_since(const RoundLedger& ledger,
                                       std::size_t mark) {
  return {ledger.entries().begin() + static_cast<std::ptrdiff_t>(mark),
          ledger.entries().end()};
}

// The shared path (aggregate), its charge-only twin (charge_aggregate) and
// the private batch-slot path (charge_aggregate_into) must charge the same
// entry and count one PA call each: a batched solve is bit-identical to
// sequential solves only because the three agree.
void expect_charge_paths_agree(CongestedPaOracle& oracle, bool global_model) {
  SCOPED_TRACE(oracle.name());
  PartCollection global;
  global.parts.emplace_back();
  for (NodeId v = 0; v < oracle.graph().num_nodes(); ++v) {
    global.parts[0].push_back(v);
  }
  const auto id = oracle.prepare(global);
  RoundLedger slot;
  std::uint64_t slot_calls = 0;
  EXPECT_THROW(oracle.charge_aggregate_into(id, slot, slot_calls),
               std::invalid_argument);
  oracle.warm(id);

  std::size_t mark = oracle.ledger().entries().size();
  oracle.aggregate(id, values_for(global, 1.0), AggregationMonoid::sum());
  const std::vector<LedgerEntry> by_aggregate =
      entries_since(oracle.ledger(), mark);
  EXPECT_EQ(oracle.pa_calls(), 1u);

  mark = oracle.ledger().entries().size();
  oracle.charge_aggregate(id);
  const std::vector<LedgerEntry> by_charge =
      entries_since(oracle.ledger(), mark);
  EXPECT_EQ(oracle.pa_calls(), 2u);

  const RoundLedger shared_before = oracle.ledger();
  oracle.charge_aggregate_into(id, slot, slot_calls);
  EXPECT_EQ(slot_calls, 1u);
  // The private path leaves the shared counter and ledger alone.
  EXPECT_EQ(oracle.pa_calls(), 2u);
  EXPECT_TRUE(oracle.ledger() == shared_before);

  ASSERT_EQ(by_aggregate.size(), 1u);
  EXPECT_EQ(by_aggregate[0].label, oracle.name() + "-pa");
  if (global_model) {
    EXPECT_EQ(by_aggregate[0].local_rounds, 0u);
    EXPECT_GT(by_aggregate[0].global_rounds, 0u);
  } else {
    EXPECT_GT(by_aggregate[0].local_rounds, 0u);
    EXPECT_EQ(by_aggregate[0].global_rounds, 0u);
  }
  EXPECT_EQ(by_charge, by_aggregate);
  EXPECT_EQ(slot.entries(), by_aggregate);
}

TEST(PaOracle, ChargePathsChargeIdentically) {
  const Graph g = make_grid(6, 6);
  Rng shortcut_rng(10), ncc_rng(10);
  ShortcutPaOracle shortcut(g, shortcut_rng);
  expect_charge_paths_agree(shortcut, /*global_model=*/false);
  NccPaOracle ncc(g, ncc_rng);
  expect_charge_paths_agree(ncc, /*global_model=*/true);
}

TEST(PaOracle, RejectsInvalidPartCollection) {
  const Graph g = make_path(5);
  Rng rng(8);
  ShortcutPaOracle oracle(g, rng);
  PartCollection pc;
  pc.parts = {{0, 4}};  // disconnected
  EXPECT_THROW(oracle.prepare(pc), std::invalid_argument);
}

TEST(PaOracle, RejectsUnknownInstance) {
  const Graph g = make_path(3);
  Rng rng(9);
  ShortcutPaOracle oracle(g, rng);
  EXPECT_THROW(oracle.aggregate(3, {}, AggregationMonoid::sum()),
               std::invalid_argument);
}

}  // namespace
}  // namespace dls
