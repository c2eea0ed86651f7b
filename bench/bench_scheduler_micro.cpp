// Wall-clock micro-benchmark (google-benchmark) of the message-level
// aggregation scheduler — the engine every experiment above leans on. Not a
// paper experiment; tracks simulator throughput so regressions in the
// hot loop are caught.
#include <benchmark/benchmark.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "shortcuts/partition.hpp"
#include "shortcuts/partwise_aggregation.hpp"

namespace dls {
namespace {

void BM_TreeAggregation(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  const std::size_t parts = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  const Graph g = make_grid(side, side);
  const PartCollection pc = random_voronoi_partition(g, parts, rng);
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 1.0);
  }
  const BestShortcut best = build_best_shortcut(g, pc, rng);
  for (auto _ : state) {
    Rng run_rng(2);
    const auto outcome = solve_partwise_aggregation(
        g, pc, values, AggregationMonoid::sum(), best.shortcut, run_rng);
    benchmark::DoNotOptimize(outcome.results.data());
  }
  state.counters["simulated_rounds"] = static_cast<double>([&] {
    Rng run_rng(2);
    return solve_partwise_aggregation(g, pc, values, AggregationMonoid::sum(),
                                      best.shortcut, run_rng)
        .schedule.total_rounds;
  }());
}

BENCHMARK(BM_TreeAggregation)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({24, 12})
    ->Unit(benchmark::kMillisecond);

void BM_ShortcutConstruction(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Graph g = make_grid(side, side);
  const PartCollection pc = random_voronoi_partition(g, side, rng);
  for (auto _ : state) {
    Rng run_rng(4);
    const BestShortcut best = build_best_shortcut(g, pc, run_rng);
    benchmark::DoNotOptimize(best.quality);
  }
}

BENCHMARK(BM_ShortcutConstruction)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dls

BENCHMARK_MAIN();
