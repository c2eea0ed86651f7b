// Round-complexity regression tests: measured round counts must stay inside
// the theory's envelopes (with generous constants). These tests pin the
// paper's quantitative claims so a regression in the scheduler, the layered
// reduction or an oracle cannot silently inflate costs.
#include <gtest/gtest.h>

#include <cmath>

#include "congested_pa/solver.hpp"
#include "graph/generators.hpp"
#include "laplacian/pa_oracle.hpp"
#include "shortcuts/construction.hpp"
#include "shortcuts/partwise_aggregation.hpp"
#include "sim/ncc.hpp"

namespace dls {
namespace {

std::vector<std::vector<double>> unit_values(const PartCollection& pc) {
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 1.0);
  }
  return values;
}

TEST(RoundBounds, Proposition6QualityEnvelope) {
  // PA rounds ≤ c · (congestion + dilation) for the constructed shortcut.
  Rng rng(1);
  for (const std::size_t side : {6u, 9u, 12u}) {
    const Graph g = make_grid(side, side);
    const PartCollection pc = grid_row_partition(side, side);
    const BestShortcut best = build_best_shortcut(g, pc, rng);
    const auto outcome = solve_partwise_aggregation(
        g, pc, unit_values(pc), AggregationMonoid::sum(), best.shortcut, rng);
    EXPECT_LE(outcome.schedule.total_rounds, 8 * (best.quality.quality() + 2))
        << "side " << side;
  }
}

TEST(RoundBounds, Lemma16ChargeIsExactlyLayersTimesRounds) {
  Rng rng(2);
  const Graph g = make_grid(6, 6);
  const PartCollection pc = figure1_diagonal_instance(6);
  const CongestedPaOutcome outcome = solve_congested_pa(
      g, pc, unit_values(pc), AggregationMonoid::sum(), rng);
  // The ledger decomposes into phases; each phase's charge embeds the
  // layers × layered-rounds product plus coloring — verify the totals add.
  std::uint64_t sum = 0;
  for (const LedgerEntry& e : outcome.ledger.entries()) sum += e.local_rounds;
  EXPECT_EQ(sum, outcome.total_rounds);
  EXPECT_GE(outcome.max_layers, 2u);
}

TEST(RoundBounds, Corollary23LinearRhoEnvelope) {
  // Doubling ρ must not more than ~triple the charged rounds (linear + noise).
  Rng rng(3);
  const Graph g = make_grid(7, 7);
  std::uint64_t rounds_lo = 0, rounds_hi = 0;
  {
    const PartCollection pc = stacked_voronoi_instance(g, 4, 2, rng);
    rounds_lo = solve_congested_pa(g, pc, unit_values(pc),
                                   AggregationMonoid::sum(), rng)
                    .total_rounds;
  }
  {
    const PartCollection pc = stacked_voronoi_instance(g, 4, 4, rng);
    rounds_hi = solve_congested_pa(g, pc, unit_values(pc),
                                   AggregationMonoid::sum(), rng)
                    .total_rounds;
  }
  EXPECT_LE(rounds_hi, 4 * rounds_lo);
}

TEST(RoundBounds, Lemma26NccEnvelope) {
  // NCC PA rounds ≤ c·(ρ + log n).
  Rng rng(4);
  const std::size_t n = 128;
  const double logn = std::log2(static_cast<double>(n));
  for (const std::size_t rho : {1u, 4u, 16u}) {
    std::vector<NccPart> parts(rho);
    for (std::size_t p = 0; p < rho; ++p) {
      for (NodeId v = 0; v < n; ++v) {
        parts[p].members.push_back(v);
        parts[p].values.push_back(1.0);
      }
    }
    const auto outcome =
        ncc_partwise_aggregate(n, parts, AggregationMonoid::sum(), rng);
    EXPECT_LE(outcome.rounds,
              static_cast<std::uint64_t>(6.0 * (static_cast<double>(rho) + logn)))
        << "rho " << rho;
  }
}

TEST(RoundBounds, OracleCostIsDeterministicPerInstance) {
  // Repeated aggregations on a prepared instance charge identical rounds —
  // the value-oblivious caching contract.
  const Graph g = make_grid(5, 5);
  Rng rng(6);
  ShortcutPaOracle oracle(g, rng);
  const PartCollection pc = grid_row_partition(5, 5);
  const auto id = oracle.prepare(pc);
  std::vector<std::uint64_t> deltas;
  std::uint64_t last = 0;
  for (int call = 0; call < 4; ++call) {
    oracle.aggregate(id, unit_values(pc), AggregationMonoid::sum());
    deltas.push_back(oracle.ledger().total_local() - last);
    last = oracle.ledger().total_local();
  }
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i], deltas[0]);
  }
}

TEST(RoundBounds, BaselineGrowsWithPartCountShortcutDoesNot) {
  // The structural reason for Theorem 2's gap: baseline PA cost grows
  // linearly in the number of parts, shortcut PA cost tracks quality.
  const Graph g = make_grid(10, 10);
  std::vector<std::uint64_t> base_costs, fast_costs;
  for (const std::size_t k : {4u, 16u, 32u}) {
    Rng rng(7);
    const PartCollection pc = random_voronoi_partition(g, k, rng);
    Rng r1(8), r2(8);
    ShortcutPaOracle fast(g, r1);
    BaselinePaOracle slow(g, r2);
    fast.aggregate_once(pc, unit_values(pc), AggregationMonoid::sum());
    slow.aggregate_once(pc, unit_values(pc), AggregationMonoid::sum());
    fast_costs.push_back(fast.ledger().total_local());
    base_costs.push_back(slow.ledger().total_local());
  }
  // Baseline at k=32 costs ≥ 2× its k=4 cost; shortcut grows much less.
  EXPECT_GE(base_costs[2], 2 * base_costs[0]);
  EXPECT_LE(fast_costs[2], 3 * fast_costs[0]);
  EXPECT_LT(fast_costs[2], base_costs[2]);
}

TEST(RoundBounds, HybridLedgerMaxComposition) {
  // total_hybrid is per-entry max(local, global) — mixed-mode algorithms
  // must not double-count lockstep rounds.
  RoundLedger ledger;
  ledger.charge_local(10, "local-phase");
  ledger.charge_global(4, "global-phase");
  EXPECT_EQ(ledger.total_hybrid(), 14u);
  RoundLedger mixed;
  mixed.charge_local(10, "a");
  mixed.charge_global(10, "b");
  EXPECT_EQ(mixed.total_hybrid(), 20u);
}

}  // namespace
}  // namespace dls
