// Deterministic sharded simulation runtime.
//
// A SimBatch executes many independent simulation scenarios — typically one
// congested-PA / estimator instance per (graph, seed, ρ) combination —
// across the workers of a ThreadPool, while keeping every
// reported number bit-identical to a serial run:
//
//   * Each scenario gets a private Rng seeded from
//     derive_scenario_seed(root_seed, index) — a splitmix64 stream over the
//     scenario index, so scenario i's randomness is a pure function of
//     (root seed, i) and never depends on which thread runs it, in what
//     order, or how many workers exist.
//   * Each scenario writes only to its own SimOutcome slot; no scenario
//     observes another's state.
//   * Merging is an ordered fold over scenario indices (never completion
//     order), so the combined RoundLedger / congestion summary of a batch is
//     deterministic too.
//
// Consequently `run(nullptr)`, `run(&pool_1_thread)` and
// `run(&pool_N_threads)` produce byte-for-byte identical outcomes — the
// property the differential test suite pins, and the discipline that lets
// later scaling work (sharding across processes, multi-backend dispatch)
// reuse recorded golden traces unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/round_ledger.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace dls {

/// The Rng seed of scenario `index` in a batch rooted at `root_seed`:
/// splitmix64 of the index within the root's stream. Exposed so a failing
/// scenario printed as (label, seed) can be re-run standalone.
std::uint64_t derive_scenario_seed(std::uint64_t root_seed, std::uint64_t index);

/// Result slot of one scenario. `label` and `seed` are filled by the runner;
/// the task fills `results` (algorithm-defined outputs) and `ledger`.
struct SimOutcome {
  std::string label;
  std::uint64_t seed = 0;
  std::vector<double> results;
  RoundLedger ledger;
};

class SimBatch {
 public:
  /// A scenario body: consumes the scenario's private Rng, records outputs
  /// and round/congestion accounting into its own outcome slot.
  using Task = std::function<void(Rng&, SimOutcome&)>;

  explicit SimBatch(std::uint64_t root_seed) : root_seed_(root_seed) {}

  /// Registers a scenario; returns its index (== seed-derivation index).
  std::size_t add(std::string label, Task task);

  /// Executes every registered scenario. With a null pool (or a 1-thread
  /// pool) scenarios run serially in index order on the calling thread;
  /// otherwise they are distributed across the pool's workers. Outcomes are
  /// identical either way. May be called once per batch.
  void run(ThreadPool* pool = nullptr);

  std::uint64_t root_seed() const { return root_seed_; }
  std::size_t size() const { return tasks_.size(); }
  bool finished() const { return finished_; }

  /// Per-scenario outcomes, indexed by registration order. Valid after run().
  const std::vector<SimOutcome>& outcomes() const;

  /// Ordered merge of every scenario's ledger, each entry prefixed with its
  /// scenario label. Deterministic: folds in index order.
  RoundLedger merged_ledger() const;

  /// Ordered merge of every scenario's congestion totals (messages add,
  /// peaks take the max — see merge_phases).
  PhaseCongestion merged_congestion() const;

 private:
  std::uint64_t root_seed_;
  std::vector<std::string> labels_;
  std::vector<Task> tasks_;
  std::vector<SimOutcome> outcomes_;
  bool finished_ = false;
};

}  // namespace dls
