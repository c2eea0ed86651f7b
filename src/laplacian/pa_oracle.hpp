// The congested part-wise aggregation oracle of Assumption 27.
//
// The Laplacian solver expresses all of its communication as (i) single
// local-exchange rounds and (ii) calls to this oracle. Three implementations
// instantiate the paper's three models:
//   * ShortcutPaOracle  — Corollary 23 pipeline (layered graph + shortcuts);
//     Supported-CONGEST / CONGEST local rounds.
//   * NccPaOracle       — Lemma 26 pipeline; NCC global rounds (the HYBRID
//     solver of Theorem 3 is the solver run against this oracle).
//   * BaselinePaOracle  — the existential [18]-style substitute: parts are
//     processed in greedily-chosen disjoint batches, each batch aggregated
//     with the global-BFS-tree shortcut, paying Θ(D + batch size) per batch
//     — the √n-type behaviour the paper improves on.
//
// Because PA round cost is value-oblivious (the schedule depends only on the
// part structure), an instance can be *prepared* once: the first aggregate()
// call simulates messages and caches the measured cost; later calls on the
// same prepared instance fold sequentially and charge the cached cost. This
// keeps repeated solver iterations cheap without changing any reported number.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "congested_pa/solver.hpp"
#include "shortcuts/partition.hpp"
#include "sim/round_ledger.hpp"

namespace dls {

class CongestedPaOracle {
 public:
  using InstanceId = std::size_t;

  explicit CongestedPaOracle(const Graph& g) : graph_(g) {}
  virtual ~CongestedPaOracle() = default;
  CongestedPaOracle(const CongestedPaOracle&) = delete;
  CongestedPaOracle& operator=(const CongestedPaOracle&) = delete;

  /// Registers a part collection for repeated use.
  InstanceId prepare(const PartCollection& pc);

  /// Aggregates `values` over the prepared instance; every part member is
  /// considered to learn its part's aggregate. Charges the ledger.
  std::vector<double> aggregate(InstanceId instance,
                                const std::vector<std::vector<double>>& values,
                                const AggregationMonoid& monoid);

  /// One-shot convenience (prepare + aggregate).
  std::vector<double> aggregate_once(
      const PartCollection& pc, const std::vector<std::vector<double>>& values,
      const AggregationMonoid& monoid);

  /// Measures `instance` now if it has not been measured yet (running the
  /// model-specific simulation exactly as the first aggregate() would) and
  /// caches the cost. Charges nothing and counts no PA call — warming only
  /// moves *when* the one-time measurement happens, never what it costs.
  /// NOT thread-safe; call before fanning a batch out.
  void warm(InstanceId instance);
  bool is_measured(InstanceId instance) const;

  /// Charge-only fast path: identical span, counters, measure-on-first-use
  /// and ledger charges to aggregate(), but no per-part values and no fold.
  /// For call sites that use the PA phase purely as round accounting (the
  /// solver's matvec/dot/residual charges discard the aggregates — the fold
  /// is the only allocating part, and it is dead work there).
  void charge_aggregate(InstanceId instance);

  /// Replays a measured instance into a caller-owned ledger: charges
  /// `ledger` with exactly the entries charge_aggregate() would have charged
  /// the shared ledger, incrementing `pa_calls`. Touches no shared mutable
  /// state, so concurrent calls on distinct ledgers are safe — this is the
  /// per-RHS charging path of batched solves (docs/BATCHING.md).
  void charge_aggregate_into(InstanceId instance, RoundLedger& ledger,
                             std::uint64_t& pa_calls) const;

  /// Pipelined batch cost model: `n` concurrent aggregations over the same
  /// measured instance share one congested phase. A schedule of R rounds
  /// whose worst (edge,direction) slot carries c messages admits round-robin
  /// pipelining of n copies in R + (n-1)·max(1, c) rounds — the batch is one
  /// congested phase, not n naive replays. NCC schedules pipeline one global
  /// round per extra copy.
  std::uint64_t batched_local_rounds(InstanceId instance, std::size_t n) const;
  std::uint64_t batched_global_rounds(InstanceId instance, std::size_t n) const;

  /// Charges `ledger` one batched PA phase over `n` concurrent copies of the
  /// measured instance (label name() + "-pa-batched", congestion attached).
  void charge_batched(InstanceId instance, std::size_t n,
                      RoundLedger& ledger) const;

  /// Folds externally accounted PA phases (e.g. a batch fold that charged
  /// this oracle's ledger through absorb()) into the pa_calls() counter.
  void note_batched_pa_calls(std::uint64_t n) { pa_calls_ += n; }

  /// Warm-charging mode (docs/CACHING.md): with it on, every per-call charge
  /// of a measured instance pays only its *use* cost — the measured local
  /// rounds minus the shortcut-construction rounds embedded in them — because
  /// a long-lived cache entry has already built (and paid for once) the
  /// shortcuts it aggregates over. A no-op for models whose construction is
  /// free (Supported-CONGEST) or absent (NCC, baseline): their embedded
  /// construction cost is zero. Off by default, so golden traces and every
  /// historical number are unchanged. Never feeds numerics — results are
  /// bit-identical either way; only the charged rounds differ.
  void set_warm_charging(bool warm) { warm_charging_ = warm; }
  bool warm_charging() const { return warm_charging_; }

  /// Full measured per-call cost of `instance` (requires measured) —
  /// independent of warm-charging mode; what one cold aggregate() charges.
  std::uint64_t measured_local_rounds(InstanceId instance) const;
  std::uint64_t measured_global_rounds(InstanceId instance) const;

  /// Rough resident size of the oracle's reusable state (prepared part
  /// collections + measured costs), for cache memory accounting.
  std::size_t approx_state_bytes() const;

  /// Charges one local-exchange round (each node sends one O(log n)-bit word
  /// to each neighbor) — the cost of a Laplacian matvec on the base graph.
  void charge_local_exchange(const std::string& label);

  const Graph& graph() const { return graph_; }
  std::size_t num_instances() const { return instances_.size(); }
  RoundLedger& ledger() { return ledger_; }
  const RoundLedger& ledger() const { return ledger_; }
  std::uint64_t pa_calls() const { return pa_calls_; }
  virtual std::string name() const = 0;

 protected:
  struct Measured {
    std::uint64_t local_rounds = 0;
    std::uint64_t global_rounds = 0;
    /// Portion of local_rounds spent on shortcut construction ("construct-*"
    /// phases; CONGEST model only — zero elsewhere). Construction cost is
    /// structural: it does not depend on the aggregated values, so a warm
    /// cache entry pays it once at build instead of on every call.
    std::uint64_t construction_local_rounds = 0;
    /// Congestion profile observed while measuring (local oracles only; the
    /// NCC clique model has no edge slots). Attached to every ledger charge
    /// of this instance, so solver totals decompose into where traffic
    /// concentrated.
    PhaseCongestion congestion;
  };
  /// Runs the model-specific distributed simulation once per instance.
  virtual Measured measure(const PartCollection& pc) = 0;

  /// Instance currently being measured (valid only inside measure() calls
  /// reached through aggregate); lets a wrapping oracle attribute recovery
  /// events to the instance — and thus the solver level — they belong to.
  InstanceId measuring_instance() const { return measuring_instance_; }

 private:
  // The supervisor delegates to the wrapped oracles' protected measure()
  // (resilience/solve_supervisor.hpp); it is the one sanctioned cross-object
  // caller — the escalation ladder lives exactly at this boundary.
  friend class SupervisedPaOracle;

  const Graph& graph_;
  RoundLedger ledger_;
  std::uint64_t pa_calls_ = 0;
  InstanceId measuring_instance_ = 0;
  bool warm_charging_ = false;
  struct Prepared {
    PartCollection pc;
    /// Part-collection congestion ρ (max parts sharing a node), computed at
    /// prepare() time — deterministic, no rounds charged; traced PA calls
    /// report it on their span.
    std::size_t rho = 0;
    bool measured = false;
    Measured cost;
  };
  /// Ledger label shared by every per-call charge; name() is fixed for the
  /// oracle's lifetime, so build it once instead of per PA call. Set by
  /// prepare(), which precedes every charge: the const charge paths that
  /// batch slots run concurrently only read it.
  const std::string& pa_label() const { return pa_label_; }
  std::string pa_label_;
  /// Runs the one-time measure() of an unmeasured `instance` and caches its
  /// cost; both first-use paths (warm(), the first charge_aggregate()) end
  /// here.
  void measure_instance(InstanceId instance);
  /// The one per-call charge behind aggregate(), charge_aggregate() and
  /// charge_aggregate_into(): opens the "pa/call" span on `ledger`'s clock,
  /// runs `first_use` inside it (the shared path measures there), then
  /// counts the call in `pa_calls` and charges the instance's measured cost
  /// to `ledger`. Writes nothing else, so batch slots run it concurrently.
  template <typename FirstUse>
  void charge_call(InstanceId instance, RoundLedger& ledger,
                   std::uint64_t& pa_calls, FirstUse first_use) const;
  /// Local rounds one call charges under the current charging mode.
  std::uint64_t effective_local(const Prepared& prepared) const {
    const Measured& c = prepared.cost;
    return warm_charging_ ? c.local_rounds - std::min(c.local_rounds,
                                                      c.construction_local_rounds)
                          : c.local_rounds;
  }
  std::vector<Prepared> instances_;
};

/// Corollary 23: heavy paths + layered graph + shortcuts. `model` selects
/// Supported-CONGEST (construction free; the default) or CONGEST
/// (construction rounds charged per Theorem 8's distinction).
class ShortcutPaOracle final : public CongestedPaOracle {
 public:
  ShortcutPaOracle(const Graph& g, Rng& rng,
                   SchedulingPolicy policy = SchedulingPolicy::kRandomPriority,
                   PaModel model = PaModel::kSupportedCongest)
      : CongestedPaOracle(g), rng_(rng), policy_(policy), model_(model) {
    DLS_REQUIRE(model != PaModel::kNcc,
                "ShortcutPaOracle is a local-communication oracle");
  }
  std::string name() const override {
    return model_ == PaModel::kCongest ? "shortcut-congest" : "shortcut";
  }

  /// Opt-in fault injection for subsequent measure() runs (not owned, may be
  /// null). The measurement's built-in cross-check — distributed results must
  /// equal the sequential fold — becomes the fault-correctness oracle: under
  /// eventual delivery the faulty run must still produce exact aggregates,
  /// and a wedged phase surfaces as ChaosAbortError instead of a hang.
  void set_fault_plan(FaultPlan* faults) { faults_ = faults; }

 protected:
  Measured measure(const PartCollection& pc) override;

 private:
  Rng& rng_;
  SchedulingPolicy policy_;
  PaModel model_;
  FaultPlan* faults_ = nullptr;
};

/// Lemma 26: NCC aggregation; charges global rounds.
class NccPaOracle final : public CongestedPaOracle {
 public:
  NccPaOracle(const Graph& g, Rng& rng, std::size_t capacity = 0)
      : CongestedPaOracle(g), rng_(rng), capacity_(capacity) {}
  std::string name() const override { return "ncc"; }

 protected:
  Measured measure(const PartCollection& pc) override;

 private:
  Rng& rng_;
  std::size_t capacity_;
};

/// Existential baseline: greedy disjoint batches over the global BFS tree.
class BaselinePaOracle final : public CongestedPaOracle {
 public:
  BaselinePaOracle(const Graph& g, Rng& rng,
                   SchedulingPolicy policy = SchedulingPolicy::kRandomPriority)
      : CongestedPaOracle(g), rng_(rng), policy_(policy) {}
  std::string name() const override { return "baseline"; }

 protected:
  Measured measure(const PartCollection& pc) override;

 private:
  Rng& rng_;
  SchedulingPolicy policy_;
};

}  // namespace dls
