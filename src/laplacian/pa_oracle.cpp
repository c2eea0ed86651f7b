#include "laplacian/pa_oracle.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "obs/ledger_clock.hpp"
#include "sim/fault_injection.hpp"
#include "obs/trace.hpp"
#include "shortcuts/construction.hpp"
#include "shortcuts/partwise_aggregation.hpp"

namespace dls {

CongestedPaOracle::InstanceId CongestedPaOracle::prepare(const PartCollection& pc) {
  DLS_REQUIRE(is_valid_part_collection(graph_, pc), "invalid part collection");
  if (pa_label_.empty()) pa_label_ = name() + "-pa";
  instances_.push_back({pc, congestion(graph_, pc), false, {}});
  return instances_.size() - 1;
}

void CongestedPaOracle::measure_instance(InstanceId instance) {
  Prepared& prepared = instances_[instance];
  measuring_instance_ = instance;
  prepared.cost = measure(prepared.pc);
  prepared.measured = true;
}

template <typename FirstUse>
void CongestedPaOracle::charge_call(InstanceId instance, RoundLedger& ledger,
                                    std::uint64_t& pa_calls,
                                    FirstUse first_use) const {
  const Prepared& prepared = instances_[instance];
  // On batched paths the ambient tracer is a per-slot tracer whose clock is
  // the slot's private ledger, so the span lands in the slot's trace and
  // merges slot-indexed.
  ClockScope clock(Tracer::ambient(), ledger_clock(ledger));
  ScopedSpan span(Tracer::ambient(), "pa/call", SpanKind::kPaCall);
  if (span.active()) {
    span.note(name());
    span.counter("instance", instance);
    span.counter("rho", prepared.rho);
    span.counter("parts", prepared.pc.num_parts());
  }
  first_use();
  ++pa_calls;
  if (const std::uint64_t local = effective_local(prepared); local > 0) {
    ledger.charge_local(local, pa_label(), prepared.cost.congestion);
  }
  if (prepared.cost.global_rounds > 0) {
    ledger.charge_global(prepared.cost.global_rounds, pa_label(),
                         prepared.cost.congestion);
  }
}

std::vector<double> CongestedPaOracle::aggregate(
    InstanceId instance, const std::vector<std::vector<double>>& values,
    const AggregationMonoid& monoid) {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  const PartCollection& pc = instances_[instance].pc;
  DLS_REQUIRE(values.size() == pc.num_parts(), "values mismatch");
  charge_aggregate(instance);
  // Results equal the sequential fold (the distributed protocols were
  // validated against it once at measure() time and in the test suite).
  std::vector<double> results(pc.num_parts(), monoid.identity);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    DLS_REQUIRE(values[i].size() == pc.parts[i].size(),
                "values size mismatch");
    for (double v : values[i]) results[i] = monoid.op(results[i], v);
  }
  return results;
}

void CongestedPaOracle::warm(InstanceId instance) {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  const Prepared& prepared = instances_[instance];
  if (prepared.measured) return;
  ScopedSpan span(Tracer::ambient(), "pa/warm", SpanKind::kPhase);
  if (span.active()) {
    span.note(name());
    span.counter("instance", instance);
    span.counter("rho", prepared.rho);
  }
  measure_instance(instance);
}

bool CongestedPaOracle::is_measured(InstanceId instance) const {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  return instances_[instance].measured;
}

void CongestedPaOracle::charge_aggregate(InstanceId instance) {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  // The first call measures inside its own "pa/call" span.
  charge_call(instance, ledger_, pa_calls_, [this, instance] {
    if (instances_[instance].measured) return;
    ScopedSpan measure_span(Tracer::ambient(), "pa/measure", SpanKind::kPhase);
    measure_instance(instance);
  });
}

void CongestedPaOracle::charge_aggregate_into(InstanceId instance,
                                              RoundLedger& ledger,
                                              std::uint64_t& pa_calls) const {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  DLS_REQUIRE(instances_[instance].measured,
              "charge_aggregate_into requires a warmed instance; call warm() "
              "before fanning a batch out");
  charge_call(instance, ledger, pa_calls, [] {});
}

std::uint64_t CongestedPaOracle::batched_local_rounds(InstanceId instance,
                                                      std::size_t n) const {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  const Prepared& prepared = instances_[instance];
  DLS_REQUIRE(prepared.measured, "batched cost requires a measured instance");
  const std::uint64_t base = effective_local(prepared);
  if (base == 0 || n == 0) return 0;
  // Round-robin pipelining: copy k+1 starts once the busiest slot of copy k
  // drains, i.e. max(1, peak slot occupancy) rounds behind it.
  const std::uint64_t stride = std::max<std::uint64_t>(
      1, prepared.cost.congestion.peak_slot_messages);
  return base + static_cast<std::uint64_t>(n - 1) * stride;
}

std::uint64_t CongestedPaOracle::batched_global_rounds(InstanceId instance,
                                                       std::size_t n) const {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  const Prepared& prepared = instances_[instance];
  DLS_REQUIRE(prepared.measured, "batched cost requires a measured instance");
  const std::uint64_t base = prepared.cost.global_rounds;
  if (base == 0 || n == 0) return 0;
  return base + static_cast<std::uint64_t>(n - 1);
}

void CongestedPaOracle::charge_batched(InstanceId instance, std::size_t n,
                                       RoundLedger& ledger) const {
  if (n == 0) return;
  const std::uint64_t local = batched_local_rounds(instance, n);
  const std::uint64_t global = batched_global_rounds(instance, n);
  const Prepared& prepared = instances_[instance];
  ClockScope clock(Tracer::ambient(), ledger_clock(ledger));
  ScopedSpan span(Tracer::ambient(), "pa/batched", SpanKind::kPaCall);
  if (span.active()) {
    span.note(name() + "-pa-batched");
    span.counter("instance", instance);
    span.counter("rho", prepared.rho);
    span.counter("n", n);
  }
  // The n copies travel together, so the phase carries n× the traffic of one
  // aggregation (slot peaks scale the same way — that is exactly why the
  // pipeline stride above is the per-copy peak).
  PhaseCongestion congestion = prepared.cost.congestion;
  congestion.messages *= n;
  congestion.peak_slot_messages *= n;
  congestion.peak_round_messages *= n;
  if (local > 0) {
    ledger.charge_local(local, name() + "-pa-batched", congestion);
  }
  if (global > 0) {
    ledger.charge_global(global, name() + "-pa-batched", congestion);
  }
}

std::uint64_t CongestedPaOracle::measured_local_rounds(
    InstanceId instance) const {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  const Prepared& prepared = instances_[instance];
  DLS_REQUIRE(prepared.measured, "measured cost requires a measured instance");
  return prepared.cost.local_rounds;
}

std::uint64_t CongestedPaOracle::measured_global_rounds(
    InstanceId instance) const {
  DLS_REQUIRE(instance < instances_.size(), "unknown oracle instance");
  const Prepared& prepared = instances_[instance];
  DLS_REQUIRE(prepared.measured, "measured cost requires a measured instance");
  return prepared.cost.global_rounds;
}

std::size_t CongestedPaOracle::approx_state_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const Prepared& prepared : instances_) {
    bytes += sizeof(Prepared);
    for (const auto& part : prepared.pc.parts) {
      bytes += sizeof(part) + part.size() * sizeof(NodeId);
    }
  }
  return bytes;
}

std::vector<double> CongestedPaOracle::aggregate_once(
    const PartCollection& pc, const std::vector<std::vector<double>>& values,
    const AggregationMonoid& monoid) {
  return aggregate(prepare(pc), values, monoid);
}

void CongestedPaOracle::charge_local_exchange(const std::string& label) {
  ledger_.charge_local(1, label);
}

namespace {

/// Neutral input values for a measurement run (cost is value-oblivious).
std::vector<std::vector<double>> unit_values(const PartCollection& pc) {
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 1.0);
  }
  return values;
}

}  // namespace

CongestedPaOracle::Measured ShortcutPaOracle::measure(const PartCollection& pc) {
  CongestedPaOptions options;
  options.model = model_;
  options.policy = policy_;
  options.faults = faults_;
  const CongestedPaOutcome outcome = solve_congested_pa(
      graph(), pc, unit_values(pc), AggregationMonoid::sum(), rng_, options);
  // Sanity: the distributed run must agree with the fold. Under a fault plan
  // a mismatch is an *expected* failure mode — unprotected payload corruption
  // perturbing the convergecast fold — so it surfaces as the typed chaos
  // error (carrying the measured ledger) that the supervision ladder retries
  // or degrades on. Without a plan it stays a hard invariant violation.
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    if (outcome.results[i] == static_cast<double>(pc.parts[i].size())) continue;
    if (faults_ != nullptr) {
      throw ChaosAbortError(
          "corruption detected at verification: shortcut PA run disagrees "
          "with sequential fold",
          outcome.ledger);
    }
    DLS_ASSERT(false, "shortcut PA run disagrees with sequential fold");
  }
  PhaseCongestion congestion;
  std::uint64_t construction = 0;
  for (const LedgerEntry& e : outcome.ledger.entries()) {
    congestion = merge_phases(congestion, e.congestion);
    // CONGEST-model shortcut construction phases; absent (and therefore 0)
    // under Supported-CONGEST, where the support pre-built the shortcuts.
    if (e.label.rfind("construct-", 0) == 0) construction += e.local_rounds;
  }
  return {outcome.total_rounds, 0, construction, congestion};
}

CongestedPaOracle::Measured NccPaOracle::measure(const PartCollection& pc) {
  std::vector<NccPart> parts(pc.num_parts());
  const auto values = unit_values(pc);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    parts[i].members = pc.parts[i];
    parts[i].values = values[i];
  }
  const NccAggregationOutcome outcome = ncc_partwise_aggregate(
      graph().num_nodes(), parts, AggregationMonoid::sum(), rng_, capacity_);
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    DLS_ASSERT(outcome.results[i] == static_cast<double>(pc.parts[i].size()),
               "NCC PA run disagrees with sequential fold");
  }
  return {0, outcome.rounds, 0, {}};
}

CongestedPaOracle::Measured BaselinePaOracle::measure(const PartCollection& pc) {
  // Greedy batching into disjoint sub-collections (Observation 14 shows the
  // number of batches can be Θ(#parts); that is the point of this baseline).
  std::vector<char> assigned(pc.num_parts(), 0);
  std::size_t remaining = pc.num_parts();
  std::uint64_t total_rounds = 0;
  PhaseCongestion congestion;
  // Global BFS tree reused as H_i for every part of every batch.
  Rng tree_rng = rng_.fork();
  const RootedSpanningTree tree = centered_bfs_tree(graph(), tree_rng);
  std::vector<EdgeId> tree_edges;
  for (NodeId v = 0; v < graph().num_nodes(); ++v) {
    if (tree.parent_edge[v] != kInvalidEdge) tree_edges.push_back(tree.parent_edge[v]);
  }
  while (remaining > 0) {
    std::vector<char> used(graph().num_nodes(), 0);
    PartCollection batch;
    std::vector<std::vector<double>> batch_values;
    for (std::size_t i = 0; i < pc.num_parts(); ++i) {
      if (assigned[i]) continue;
      const bool clash = std::any_of(pc.parts[i].begin(), pc.parts[i].end(),
                                     [&](NodeId v) { return used[v] != 0; });
      if (clash) continue;
      for (NodeId v : pc.parts[i]) used[v] = 1;
      batch.parts.push_back(pc.parts[i]);
      batch_values.push_back(std::vector<double>(pc.parts[i].size(), 1.0));
      assigned[i] = 1;
      --remaining;
    }
    DLS_ASSERT(!batch.parts.empty(), "baseline batching stalled");
    Shortcut shortcut;
    shortcut.h_edges.assign(batch.parts.size(), tree_edges);
    const PartwiseAggregationOutcome pa = solve_partwise_aggregation(
        graph(), batch, batch_values, AggregationMonoid::sum(), shortcut, rng_,
        policy_);
    total_rounds += pa.schedule.total_rounds;
    congestion = merge_phases(congestion, pa.schedule.congestion());
  }
  return {total_rounds, 0, 0, congestion};
}

}  // namespace dls
