// Differential / fuzz testing: every distributed result in the library is
// cross-checked against an independent sequential computation over a broad
// randomized sweep of graphs, instances, monoids and oracle models.
#include <gtest/gtest.h>

#include <cmath>

#include "congested_pa/solver.hpp"
#include "graph/generators.hpp"
#include "laplacian/elimination.hpp"
#include "laplacian/recursive_solver.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/solvers.hpp"
#include "shortcuts/unicast.hpp"
#include "sim/sim_batch.hpp"
#include "util/thread_pool.hpp"

namespace dls {
namespace {

Graph random_family_graph(int family, Rng& rng) {
  switch (family % 5) {
    case 0: return make_grid(4 + rng.next_below(4), 4 + rng.next_below(4));
    case 1: return make_random_regular(24 + 2 * rng.next_below(8), 4, rng);
    case 2: return make_weighted_grid(5, 5 + rng.next_below(3), rng);
    case 3: return make_random_tree(20 + rng.next_below(20), rng);
    default: return make_torus(5, 5 + rng.next_below(3));
  }
}

struct FuzzInstance {
  PartCollection pc;
  std::vector<std::vector<double>> values;
};

FuzzInstance random_instance(const Graph& g, Rng& rng) {
  FuzzInstance inst;
  const std::size_t rho = 1 + rng.next_below(3);
  const std::size_t k = 2 + rng.next_below(4);
  inst.pc = stacked_voronoi_instance(g, k, rho, rng);
  inst.values.resize(inst.pc.num_parts());
  for (std::size_t i = 0; i < inst.pc.num_parts(); ++i) {
    for (std::size_t j = 0; j < inst.pc.parts[i].size(); ++j) {
      inst.values[i].push_back(rng.next_double() * 10.0 - 5.0);
    }
  }
  return inst;
}

class DifferentialPa
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DifferentialPa, CongestedPaMatchesSequentialFold) {
  const auto [family, seed, model_pick] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + family);
  const Graph g = random_family_graph(family, rng);
  const FuzzInstance inst = random_instance(g, rng);
  CongestedPaOptions options;
  options.model = model_pick == 0   ? PaModel::kSupportedCongest
                  : model_pick == 1 ? PaModel::kCongest
                                    : PaModel::kNcc;
  // Sum monoid.
  {
    const CongestedPaOutcome outcome = solve_congested_pa(
        g, inst.pc, inst.values, AggregationMonoid::sum(), rng, options);
    for (std::size_t i = 0; i < inst.pc.num_parts(); ++i) {
      double expected = 0.0;
      for (double v : inst.values[i]) expected += v;
      EXPECT_NEAR(outcome.results[i], expected, 1e-9);
    }
  }
  // Min monoid.
  {
    const CongestedPaOutcome outcome = solve_congested_pa(
        g, inst.pc, inst.values, AggregationMonoid::min(), rng, options);
    for (std::size_t i = 0; i < inst.pc.num_parts(); ++i) {
      double expected = std::numeric_limits<double>::infinity();
      for (double v : inst.values[i]) expected = std::min(expected, v);
      EXPECT_DOUBLE_EQ(outcome.results[i], expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialPa,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 3),
                                            ::testing::Values(0, 1, 2)));

// --- Deterministic sharded corpus -----------------------------------------
//
// A property-based sweep far broader than the parameterized cases above:
// kCorpusCases random (graph family × partition × ρ ∈ {1..8} × model ×
// monoid) instances, all derived from one root seed through the SimBatch
// seed-derivation scheme. Each case checks the congested-PA solver's outputs
// word-for-word against a naive sequential fold (inputs are integer-valued,
// so even the sum monoid is exact under any association), and the whole
// corpus doubles as the fixture proving the batch runtime is bit-identical
// across thread counts. To reproduce one failing case standalone, seed an
// Rng with the printed scenario seed and replay corpus_task.
constexpr std::uint64_t kCorpusRootSeed = 0x5EED2022ULL;
constexpr std::size_t kCorpusCases = 216;  // ISSUE 2 asks for >= 200

void corpus_task(Rng& rng, SimOutcome& out) {
  const int family = static_cast<int>(rng.next_below(5));
  const std::size_t rho = 1 + rng.next_below(8);
  const std::size_t k = 2 + rng.next_below(4);
  const int model_pick = static_cast<int>(rng.next_below(3));
  const int monoid_pick = static_cast<int>(rng.next_below(3));
  out.label += " (family=" + std::to_string(family) +
               " rho=" + std::to_string(rho) + " k=" + std::to_string(k) +
               " model=" + std::to_string(model_pick) +
               " monoid=" + std::to_string(monoid_pick) + ")";

  const Graph g = random_family_graph(family, rng);
  const PartCollection pc = stacked_voronoi_instance(g, k, rho, rng);
  // Integer-valued inputs: every intermediate aggregate is a small integer,
  // so the distributed fold equals the sequential fold bit-for-bit no matter
  // how the aggregation tree associates.
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].reserve(pc.parts[i].size());
    for (std::size_t j = 0; j < pc.parts[i].size(); ++j) {
      values[i].push_back(static_cast<double>(
          static_cast<std::int64_t>(rng.next_below(11)) - 5));
    }
  }
  const AggregationMonoid monoid = monoid_pick == 0   ? AggregationMonoid::sum()
                                   : monoid_pick == 1 ? AggregationMonoid::min()
                                                      : AggregationMonoid::max();
  CongestedPaOptions options;
  options.model = model_pick == 0   ? PaModel::kSupportedCongest
                  : model_pick == 1 ? PaModel::kCongest
                                    : PaModel::kNcc;
  const CongestedPaOutcome outcome =
      solve_congested_pa(g, pc, values, monoid, rng, options);
  out.ledger = outcome.ledger;

  // results layout: [#parts, distributed..., sequential-oracle...].
  out.results.push_back(static_cast<double>(pc.num_parts()));
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    out.results.push_back(outcome.results[i]);
  }
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    double expected = monoid.identity;
    for (double v : values[i]) expected = monoid.op(expected, v);
    out.results.push_back(expected);
  }
}

SimBatch build_corpus() {
  SimBatch batch(kCorpusRootSeed);
  for (std::size_t c = 0; c < kCorpusCases; ++c) {
    batch.add("corpus" + std::to_string(c), corpus_task);
  }
  return batch;
}

TEST(DifferentialCorpus, CongestedPaMatchesSequentialOracleWordForWord) {
  SimBatch corpus = build_corpus();
  corpus.run();  // serial reference run
  ASSERT_GE(corpus.size(), 200u);
  for (const SimOutcome& out : corpus.outcomes()) {
    ASSERT_FALSE(out.results.empty()) << out.label;
    const auto parts = static_cast<std::size_t>(out.results[0]);
    ASSERT_EQ(out.results.size(), 1 + 2 * parts) << out.label;
    for (std::size_t i = 0; i < parts; ++i) {
      // Exact equality — integer-valued inputs make this well-defined.
      EXPECT_EQ(out.results[1 + i], out.results[1 + parts + i])
          << out.label << " part " << i << " seed " << out.seed;
    }
  }
}

TEST(DifferentialCorpus, BatchLedgersBitIdenticalAcrossThreadCounts) {
  SimBatch serial = build_corpus();
  serial.run(nullptr);
  ThreadPool pool(4);
  SimBatch threaded = build_corpus();
  threaded.run(&pool);
  ASSERT_EQ(serial.outcomes().size(), threaded.outcomes().size());
  for (std::size_t c = 0; c < serial.outcomes().size(); ++c) {
    const SimOutcome& a = serial.outcomes()[c];
    const SimOutcome& b = threaded.outcomes()[c];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.results, b.results) << a.label;  // bitwise vector equality
    EXPECT_TRUE(a.ledger == b.ledger)
        << a.label << ": round/congestion accounting depends on thread count";
  }
  EXPECT_TRUE(serial.merged_ledger() == threaded.merged_ledger());
}

class DifferentialSolver : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(DifferentialSolver, DistributedMatchesSequentialCg) {
  const auto [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + family);
  Graph g = random_family_graph(family, rng);
  Vec b(g.num_nodes());
  for (double& v : b) v = rng.next_double() * 2 - 1;
  project_mean_zero(b);

  ShortcutPaOracle oracle(g, rng);
  LaplacianSolverOptions options;
  options.tolerance = 1e-8;
  options.base_size = 32;
  DistributedLaplacianSolver solver(oracle, rng, options);
  const LaplacianSolveReport report = solver.solve(b);
  EXPECT_TRUE(report.converged) << g.describe();

  SolveOptions ref_options;
  ref_options.tolerance = 1e-12;
  const SolveResult ref = solve_laplacian_cg(g, b, ref_options);
  EXPECT_LT(relative_error_in_l_norm(g, report.x, ref.x), 1e-5) << g.describe();
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialSolver,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 3)));

class DifferentialElimination : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialElimination, EliminationChainSolvesExactly) {
  Rng rng(31337 + GetParam());
  // Sparsifier-shaped inputs: random tree + a few extra edges, random weights.
  Graph g = make_random_tree(16 + rng.next_below(24), rng);
  const std::size_t extras = rng.next_below(6);
  for (std::size_t i = 0; i < extras; ++i) {
    const NodeId u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (u != v) g.add_edge(u, v, 0.5 + rng.next_double() * 4.0);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, 0.5 + rng.next_double() * 4.0);
  }
  const EliminationResult elim = eliminate_degree_le2(MinorGraph::identity(g));
  Vec b(g.num_nodes());
  for (double& v : b) v = rng.next_double() * 2 - 1;
  project_mean_zero(b);
  Vec x;
  if (elim.schur.num_nodes >= 2) {
    const GroundedCholesky schur(elim.schur.as_graph());
    Vec reduced = elim.forward_rhs(b);
    project_mean_zero(reduced);
    x = elim.backward_solution(schur.solve(reduced), b);
  } else {
    x = elim.backward_solution(Vec(elim.schur.num_nodes, 0.0), b);
  }
  const Vec r = sub(b, laplacian_apply(g, x));
  EXPECT_LT(norm2(r), 1e-8 * (norm2(b) + 1)) << g.describe();
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialElimination, ::testing::Range(0, 12));

class DifferentialRouting : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialRouting, RoutedPathsRespectMeasuredEnvelope) {
  Rng rng(55441 + GetParam());
  const Graph g = random_family_graph(GetParam(), rng);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 8; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const NodeId b = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (a != b) pairs.push_back({a, b});
  }
  if (pairs.empty()) return;
  const UnicastSolution solution = route_multiple_unicast(g, pairs, rng);
  // Endpoints honored.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(solution.paths[i].front(), pairs[i].first);
    EXPECT_EQ(solution.paths[i].back(), pairs[i].second);
  }
  // Measured schedule within the Leighton–Maggs–Rao envelope.
  const std::uint64_t rounds = simulate_packet_routing(solution.paths, rng);
  EXPECT_LE(rounds, 4 * (solution.congestion + solution.dilation) + 4);
  EXPECT_GE(rounds, solution.dilation);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialRouting, ::testing::Range(0, 10));

}  // namespace
}  // namespace dls
